"""Dense two-phase simplex over exact rationals.

Bland's rule guards against cycling; with Fraction arithmetic the optimum
is exact, which the hardness-instance regressions rely on.  Problem sizes
here are tiny (tens of variables), so a dense tableau is the right tool.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .numeric import ZERO, ONE

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


def maximize(
    n_vars: int,
    objective: dict[int, Fraction],
    rows: Sequence[tuple[dict[int, Fraction], Fraction]],
) -> tuple[str, list[Fraction] | None, Fraction | None]:
    """Maximize objective . x subject to coeffs . x >= rhs for every
    (coeffs, rhs) in rows, and x >= 0.

    Returns (status, x, value); x and value are None unless status is
    'optimal'.
    """
    n_rows = len(rows)
    art_cols: list[int] = []
    width = n_vars + n_rows  # artificials appended later
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    rhs_col: list[Fraction] = []

    for i, (coeffs, rhs) in enumerate(rows):
        # The row reads -coeffs . x + slack = -rhs.  Unless rhs > 0 the
        # slack starts basic; otherwise the row is negated and starts on an
        # artificial.
        art = rhs > 0
        row = [ZERO] * width
        for k, v in coeffs.items():
            row[k] = v if art else -v
        row[n_vars + i] = -ONE if art else ONE
        tableau.append(row)
        rhs_col.append(rhs if art else -rhs)
        if art:
            art_cols.append(i)
            basis.append(-1)  # placeholder, artificial assigned below
        else:
            basis.append(n_vars + i)

    n_art = len(art_cols)
    art_start = width
    if n_art:
        for row in tableau:
            row.extend([ZERO] * n_art)
        for a_idx, i in enumerate(art_cols):
            tableau[i][art_start + a_idx] = ONE
            basis[i] = art_start + a_idx
        width += n_art

    zrow: list[Fraction] = []
    z = ZERO

    def pivot(prow: int, pcol: int) -> None:
        nonlocal z
        row = tableau[prow]
        piv = row[pcol]
        if piv != 1:
            inv = 1 / piv
            tableau[prow] = row = [v * inv for v in row]
            rhs_col[prow] *= inv
        nz = [k for k, v in enumerate(row) if v]
        b_p = rhs_col[prow]
        for r in range(n_rows):
            if r == prow:
                continue
            f = tableau[r][pcol]
            if f:
                trow = tableau[r]
                for k in nz:
                    trow[k] -= f * row[k]
                rhs_col[r] -= f * b_p
        f = zrow[pcol]
        if f:
            for k in nz:
                zrow[k] -= f * row[k]
            z -= f * b_p
        basis[prow] = pcol

    def run(cost: list[Fraction]) -> str:
        """Price `cost` against the basis, then pivot to optimality.

        zrow holds the reduced costs with "> 0 improves" signs, and z minus
        the objective value.
        """
        nonlocal zrow, z
        zrow, z = cost[:], ZERO
        for r, bv in enumerate(basis):
            f = cost[bv]
            if f:
                row = tableau[r]
                for k in range(width):
                    zrow[k] -= f * row[k]
                z -= f * rhs_col[r]
        while True:
            # Bland: entering is the lowest-index improving column.
            pcol = -1
            for k in range(width):
                if zrow[k] > 0:
                    pcol = k
                    break
            if pcol < 0:
                return OPTIMAL
            prow, best_ratio = -1, None
            for r in range(n_rows):
                a = tableau[r][pcol]
                if a > 0:
                    ratio = rhs_col[r] / a
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and basis[r] < basis[prow])
                    ):
                        prow, best_ratio = r, ratio
            if prow < 0:
                return UNBOUNDED
            pivot(prow, pcol)

    # Phase 1: maximize -(sum of artificials); z is then the artificial sum.
    if n_art:
        status = run([ZERO] * art_start + [-ONE] * n_art)
        if status != OPTIMAL or z > 0:
            return INFEASIBLE, None, None
        # Drive leftover artificials (basic at zero) out of the basis.
        for r in range(n_rows):
            if basis[r] >= art_start:
                pcol = next(
                    (k for k in range(art_start) if tableau[r][k] != 0), None
                )
                if pcol is not None:
                    pivot(r, pcol)
        # Freeze artificials at zero by forbidding re-entry.
        for r in range(n_rows):
            for a_idx in range(n_art):
                tableau[r][art_start + a_idx] = ZERO

    # Phase 2.
    cost = [ZERO] * width
    for k, v in objective.items():
        cost[k] = v
    status = run(cost)
    if status != OPTIMAL:
        return status, None, None

    x = [ZERO] * n_vars
    for r, bv in enumerate(basis):
        if bv < n_vars:
            x[bv] = rhs_col[r]
    return OPTIMAL, x, -z
