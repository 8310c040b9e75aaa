"""Exact-rational number handling.

All instance data is normalized to `fractions.Fraction` at the boundary, so
verifiers and LP solves are exact.  Floats are converted through
``Fraction(float)`` which is exact for the binary value actually stored.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import InvalidInstanceError

Num = Union[int, float, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Sentinel "no finite contract can make this pair individually rational".
INF_WAGE = math.inf


def as_fraction(x: Num) -> Fraction:
    """Convert ints, floats, Fractions, or "num/den" strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("bool is not a number here")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite number: {x!r}")
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as a number")


def as_int(x, what: str) -> int:
    """An integral value (1, 1.0, a numpy integer) as int.  A bool or a
    non-integral value is rejected rather than truncated; `what` names it
    in the error."""
    try:
        if not isinstance(x, bool) and int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidInstanceError(f"{what} {x!r} is not an integer")


def as_count(x, what: str) -> int:
    """An integral value of at least 1 (a budget or a worker count) as int."""
    if (value := as_int(x, what)) < 1:
        raise InvalidInstanceError(f"{what} {x!r} is not a positive integer")
    return value


def ceil_div(a: Fraction, b: Fraction) -> int:
    """ceil(a / b) for positive b, exact."""
    return -((-a) // b)


def format_number(x: Num, exact: bool = False) -> int | float | str:
    """JSON-friendly form: int when integral, 'num/den' in exact mode,
    otherwise a float rounded to 12 significant digits."""
    f = as_fraction(x)
    if f.denominator == 1:
        return int(f)
    if exact:
        return f"{f.numerator}/{f.denominator}"
    return float(f"{float(f):.12g}")


def format_scalar_text(x: Num, exact: bool = False) -> str:
    """Human-readable scalar with the CLI's 12-significant-digit contract."""
    f = as_fraction(x)
    if exact:
        return str(f) if f.denominator > 1 else str(int(f))
    return f"{float(f):.12g}"
