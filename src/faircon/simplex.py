"""Two-phase simplex over exact integers, on sparse rows.

The tableau is kept fraction-free.  Every row coefficient and right-hand
side is scaled by one common denominator D (the lcm of their denominators),
the slack and artificial columns stay +-1 (the slacks are s' = D*s), and the
whole tableau stands over one positive denominator d.  Pivots are
integer-preserving (Bareiss/Edmonds): on pivot p, a row with f in the pivot
column becomes (p*row - f*pivot_row) // d, an exact division, and d becomes
p.  A row with f = 0 becomes p*row // d; since those factors telescope to
d_now / d_then over several pivots, that rescale is deferred until a pivot
or the result reads the row.  The tableau over d is the rational one, so
every sign and ratio ordering that Bland's rule reads is too: the pivot
sequence and the returned vertex are those of a Fraction tableau, without a
gcd per entry.

Rows are sparse, a map from each nonzero column to its entry: a pivot
updates only the rows with an entry in the pivot column, and each over its
own columns and the pivot row's, not over all few hundred columns.

Every optimum is certified in integers before it is returned: `_certify`
checks the point against every row and x >= 0, and the dual (read from the
final objective row at the slack columns) against the same rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import FairconError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def maximize(
    n_vars: int,
    objective: dict[int, Fraction],
    rows: Sequence[tuple[dict[int, Fraction], Fraction]],
) -> tuple[str, list[Fraction] | None, Fraction | None, int]:
    """Maximize objective . x subject to coeffs . x >= rhs for every
    (coeffs, rhs) in rows, and x >= 0.

    Returns (status, x, value, pivots); x and value are None unless status
    is 'optimal', and pivots counts the pivots of both phases.  A variable
    index outside range(n_vars), or an optimum whose certificate fails,
    raises FairconError.
    """
    if any(not 0 <= k < n_vars for coeffs in (objective, *(c for c, _ in rows)) for k in coeffs):
        raise FairconError(f"simplex: a variable index lies outside range({n_vars})")
    n_rows = len(rows)
    scale = math.lcm(
        *(v.denominator for coeffs, _ in rows for v in coeffs.values()),
        *(rhs.denominator for _, rhs in rows),
    )
    # The original rows over D, kept for the certificate.
    int_rows = [
        (
            {k: v.numerator * (scale // v.denominator) for k, v in coeffs.items()},
            rhs.numerator * (scale // rhs.denominator),
        )
        for coeffs, rhs in rows
    ]

    # Each tableau row maps its nonzero columns, and its rhs at key RHS, to
    # their entries.  The row reads -coeffs . x + s' = -rhs.  Unless rhs > 0
    # its slack starts basic; otherwise it is negated and starts on an artificial.
    art_rows = [i for i, (_, rhs) in enumerate(int_rows) if rhs > 0]
    art_start = n_vars + n_rows
    width = RHS = art_start + len(art_rows)
    tableau: list[dict[int, int]] = []
    basis: list[int] = []
    for i, (coeffs, rhs) in enumerate(int_rows):
        sign = 1 if rhs > 0 else -1
        row = {k: sign * v for k, v in coeffs.items() if v}
        row[n_vars + i] = -sign
        if rhs:
            row[RHS] = sign * rhs
        tableau.append(row)
        basis.append(n_vars + i)
    for a_idx, i in enumerate(art_rows):
        tableau[i][art_start + a_idx] = 1
        basis[i] = art_start + a_idx
    # The objective row (reduced costs, "> 0 improves", then z = minus the
    # objective value), all times d and the cost denominator; it is the
    # last row, so pivots update it like any other.
    tableau.append({})
    d = 1
    # Row r is stored over den[r], the d of its last update: its Bareiss row
    # is tableau[r] * d // den[r], an exact division.  The factor is
    # positive, so a stored row has the signs and ratios that Bland's rule
    # and the ratio test read.
    den = [1] * (n_rows + 1)
    pivots = 0

    def current(r: int) -> dict[int, int]:
        """Row r brought up to the common denominator d."""
        if den[r] != d:
            tableau[r] = {k: v * d // den[r] for k, v in tableau[r].items()}
            den[r] = d
        return tableau[r]

    def pivot(prow: int, pcol: int) -> None:
        nonlocal d, pivots
        row = current(prow)
        # Only a drive-out pivot can be negative; it negates every row it
        # updates, so that d stays positive.
        sign = 1 if row[pcol] > 0 else -1
        p = sign * row[pcol]
        for r, trow in enumerate(tableau):
            if pcol in trow and r != prow:
                # trow stands for trow * d / den[r], so divide by den[r].
                f, q = sign * trow[pcol], den[r]
                new = {k: p * v // q for k, v in trow.items() if k not in row}
                for k, w in row.items():
                    v = (p * trow.get(k, 0) - f * w) // q
                    if v:
                        new[k] = v
                tableau[r] = new
                den[r] = p
        if sign < 0:
            tableau[prow] = {k: -v for k, v in row.items()}
        basis[prow] = pcol
        d = den[prow] = p
        pivots += 1

    def run(cost: dict[int, int]) -> str:
        """Price `cost` against the basis, then pivot to optimality."""
        zrow = {k: d * c for k, c in cost.items()}
        for r, bv in enumerate(basis):
            f = cost.get(bv)
            if f:
                for k, v in current(r).items():
                    zrow[k] = zrow.get(k, 0) - f * v
        tableau[n_rows] = {k: z for k, z in zrow.items() if z}
        den[n_rows] = d
        while True:
            # Bland: entering is the lowest-index improving column.
            pcol = min((k for k, z in tableau[n_rows].items() if z > 0 and k < width), default=-1)
            if pcol < 0:
                return OPTIMAL
            # Ratio test b_r / a_r over a_r > 0, compared as cross products.
            prow, best_b, best_a = -1, 0, 1
            for r in range(n_rows):
                a = tableau[r].get(pcol, 0)
                if a > 0:
                    b = tableau[r].get(RHS, 0)
                    lhs, rhs = b * best_a, best_b * a
                    if prow < 0 or lhs < rhs or (lhs == rhs and basis[r] < basis[prow]):
                        prow, best_b, best_a = r, b, a
            if prow < 0:
                return UNBOUNDED
            pivot(prow, pcol)

    # Phase 1: maximize -(sum of artificials); z is then their sum.
    if art_rows:
        status = run(dict.fromkeys(range(art_start, width), -1))
        if status != OPTIMAL or tableau[n_rows].get(RHS, 0) > 0:
            return INFEASIBLE, None, None, pivots
        # Drive leftover artificials (basic at zero) out of the basis.
        for r in range(n_rows):
            if basis[r] >= art_start:
                pcol = min((k for k in tableau[r] if k < art_start), default=None)
                if pcol is not None:
                    pivot(r, pcol)
        # Freeze artificials at zero by dropping their columns.
        tableau[:] = [{k: v for k, v in row.items() if not art_start <= k < RHS} for row in tableau]
        width = art_start

    # Phase 2.
    cden = math.lcm(*(v.denominator for v in objective.values()))
    cost = {k: v.numerator * (cden // v.denominator) for k, v in objective.items() if v}
    status = run(cost)
    if status != OPTIMAL:
        return status, None, None, pivots

    zrow = current(n_rows)
    x = [0] * n_vars
    for r, bv in enumerate(basis):
        if bv < n_vars:
            x[bv] = current(r).get(RHS, 0)
    y = [-zrow.get(k, 0) for k in range(n_vars, art_start)]
    value = -zrow.get(RHS, 0)
    _certify([cost.get(k, 0) for k in range(n_vars)], int_rows, x, y, value, d)
    return OPTIMAL, [Fraction(v, d) for v in x], Fraction(value, d * cden), pivots


def _certify(
    cost: Sequence[int],
    rows: Sequence[tuple[dict[int, int], int]],
    x: Sequence[int],
    y: Sequence[int],
    value: int,
    d: int,
) -> None:
    """Check in integers that x/d is optimal with value value/d for:
    maximize cost . x subject to coeffs . x >= rhs for every row, x >= 0.

    x/d is feasible when x >= 0 and coeffs . x >= rhs * d on every row.  y/d
    is the dual, one entry per row: y >= 0 and cost + A^T y/d <= 0 give
    cost . x' <= -sum_i y_i/d coeffs_i . x' <= -rhs . y/d for every feasible
    x', so the bound -rhs . y/d = value/d = cost . x/d proves optimality.
    """
    if any(v < 0 for v in x):
        raise FairconError("simplex certificate: negative variable")
    for r, (coeffs, rhs) in enumerate(rows):
        if sum(v * x[k] for k, v in coeffs.items()) < rhs * d:
            raise FairconError(f"simplex certificate: infeasible point at row {r}")
    if any(v < 0 for v in y):
        raise FairconError("simplex certificate: negative dual")
    reduced = [d * c for c in cost]
    for yi, (coeffs, _) in zip(y, rows):
        if yi:
            for k, v in coeffs.items():
                reduced[k] += yi * v
    if any(v > 0 for v in reduced):
        raise FairconError("simplex certificate: dual infeasible")
    if -sum(yi * rhs for yi, (_, rhs) in zip(y, rows)) != value:
        raise FairconError("simplex certificate: dual bound differs from the value")
    if sum(c * v for c, v in zip(cost, x)) != value:
        raise FairconError("simplex certificate: primal value differs from the value")
