"""Independent oracles for the test suite.

Everything here recomputes fairness and revenue straight from the
definitions (grid search, exhaustive removal enumeration, closed-form
subsidies), deliberately avoiding the library's solver and verifier code
paths it is used to check.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np

from faircon.core import Allocation, Contract, Instance
from faircon.numeric import ONE, ZERO
from faircon.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED


def float_utilities(inst: Instance, alphas: np.ndarray) -> list[np.ndarray]:
    """Per-agent (G, m) utility arrays for a (G, m) alpha grid."""
    out = []
    for i in range(inst.n):
        p = np.array([float(x) for x in inst.p[i]])
        r = np.array([float(x) for x in inst.r])
        c = np.array([float(x) for x in inst.c[i]])
        out.append(alphas * p * r - c)
    return out


def alpha_grid(m: int, step: float) -> np.ndarray:
    """All alpha vectors on a uniform grid, shape (count^m, m)."""
    axis = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    grids = np.meshgrid(*([axis] * m), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _revenues(inst: Instance, assignment, alphas: np.ndarray) -> np.ndarray:
    rev = np.zeros(len(alphas))
    for j, i in enumerate(assignment):
        rev += (1.0 - alphas[:, j]) * float(inst.p[i][j] * inst.r[j])
    return rev


def _ir_mask(inst: Instance, assignment, utils) -> np.ndarray:
    mask = np.ones(len(utils[0]), dtype=bool)
    for j, i in enumerate(assignment):
        mask &= utils[i][:, j] >= -1e-12
    return mask


def grid_ef_best(inst: Instance, assignment, eps: float, step: float) -> float:
    """Best (eps-)EF revenue on a fixed allocation over an alpha grid;
    -inf when no grid point is feasible."""
    alphas = alpha_grid(inst.m, step)
    utils = float_utilities(inst, alphas)
    bundles = Allocation(tuple(assignment), inst.n).bundles()
    mask = _ir_mask(inst, assignment, utils)
    own = [
        utils[i][:, bundles[i]].sum(axis=1) if bundles[i] else np.zeros(len(alphas))
        for i in range(inst.n)
    ]
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            switch = np.clip(utils[i][:, bundles[j]], 0.0, None).sum(axis=1)
            mask &= own[i] >= switch - eps - 1e-12
    if not mask.any():
        return -np.inf
    return float(_revenues(inst, assignment, alphas)[mask].max())


def grid_ef1_best(inst: Instance, assignment, step: float) -> float:
    """Best EF1 revenue on a fixed allocation over an alpha grid."""
    alphas = alpha_grid(inst.m, step)
    utils = float_utilities(inst, alphas)
    bundles = Allocation(tuple(assignment), inst.n).bundles()
    mask = _ir_mask(inst, assignment, utils)
    own = [
        utils[i][:, bundles[i]].sum(axis=1) if bundles[i] else np.zeros(len(alphas))
        for i in range(inst.n)
    ]
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            gains = np.clip(utils[i][:, bundles[j]], 0.0, None)
            mask &= own[i] >= gains.sum(axis=1) - gains.max(axis=1) - 1e-12
    if not mask.any():
        return -np.inf
    return float(_revenues(inst, assignment, alphas)[mask].max())


def grid_ef1_opt(inst: Instance, step: float) -> float:
    """EF1 optimum over all allocations by grid search."""
    best = -np.inf
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        best = max(best, grid_ef1_best(inst, assignment, step))
    return best


def grid_efs_best_two_agents(inst: Instance, assignment, step: float) -> float:
    """Best EFS revenue for two agents: alpha on a grid, subsidies solved
    in closed form (min s1+s2 with s1-s2 >= a, s2-s1 >= b, s >= 0)."""
    assert inst.n == 2
    alphas = alpha_grid(inst.m, step)
    utils = float_utilities(inst, alphas)
    bundles = Allocation(tuple(assignment), inst.n).bundles()
    mask = _ir_mask(inst, assignment, utils)
    own = [
        utils[i][:, bundles[i]].sum(axis=1) if bundles[i] else np.zeros(len(alphas))
        for i in range(2)
    ]
    switch = {}
    for i, j in ((0, 1), (1, 0)):
        switch[(i, j)] = (
            np.clip(utils[i][:, bundles[j]], 0.0, None).sum(axis=1)
            if bundles[j]
            else np.zeros(len(alphas))
        )
    a = switch[(0, 1)] - own[0]
    b = switch[(1, 0)] - own[1]
    mask &= a + b <= 1e-12
    if not mask.any():
        return -np.inf
    subs = np.clip(a, 0.0, None) + np.clip(b, 0.0, None)
    rev = _revenues(inst, assignment, alphas) - subs
    return float(rev[mask].max())


def grid_efs_opt_two_agents(inst: Instance, step: float) -> float:
    best = -np.inf
    for assignment in itertools.product(range(2), repeat=inst.m):
        best = max(best, grid_efs_best_two_agents(inst, assignment, step))
    return best


def ef1_holds_exhaustive(inst: Instance, k: Contract) -> bool:
    """Definitional EF1 check enumerating every single-task removal.

    The left side uses the general clamped envy form, which coincides with
    the plain sum whenever the contract is individually rational.
    """
    bundles = k.allocation.bundles()

    def util(i, j):
        return k.alpha[j] * inst.p[i][j] * inst.r[j] - inst.c[i][j]

    for i in range(inst.n):
        own = sum((max(util(i, t), Fraction(0)) for t in bundles[i]), Fraction(0))
        for j in range(inst.n):
            if i == j:
                continue
            if not bundles[j]:
                continue
            found = False
            for drop in bundles[j]:
                rhs = sum(
                    (max(util(i, t), Fraction(0)) for t in bundles[j] if t != drop),
                    Fraction(0),
                )
                if own >= rhs:
                    found = True
                    break
            if not found:
                return False
    return True


def exhaustive_profiles(inst: Instance, grids, agent_steps, principal_step):
    """All reachable (h, v...) profiles by brute force over grid contracts
    and allocations, with rounding recomputed from the definitions."""

    def ceil_units(x: Fraction, step: Fraction) -> int:
        if x <= 0:
            return 0
        assert step > 0
        return -((-x) // step)

    profiles = set()
    n, m = inst.n, inst.m
    for assignment in itertools.product(range(n), repeat=m):
        for alphas in itertools.product(*grids):
            ok = True
            for j, i in enumerate(assignment):
                if alphas[j] * inst.p[i][j] * inst.r[j] - inst.c[i][j] < 0:
                    ok = False
                    break
            if not ok:
                continue
            h = 0
            v = [0] * (n * n)
            for j, agent in enumerate(assignment):
                h += ceil_units(
                    (1 - alphas[j]) * inst.p[agent][j] * inst.r[j], principal_step
                )
                for i in range(n):
                    u = alphas[j] * inst.p[i][j] * inst.r[j] - inst.c[i][j]
                    if u > 0:
                        v[i * n + agent] += ceil_units(u, agent_steps[i])
            profiles.add((h, *v))
    return profiles


def best_h_per_profile(profiles) -> dict:
    """Full (h, v...) profiles projected to {v: max h}: what the DP keeps,
    the most principal units of each reachable cross-utility profile."""
    best: dict = {}
    for h, *v in profiles:
        best[tuple(v)] = max(h, best.get(tuple(v), h))
    return best


def task_options_reference(inst: Instance, disc, j: int, packer):
    """IR (agent, alpha, packed cross deltas, principal units) choices for
    task j, in Fractions straight from the rounding definitions: the DP's
    option list before its integer kernel, kept as the kernel's reference.

    Units are ceil(u / step) for u > 0 and 0 otherwise; a positive utility
    on a degenerate (step 0) grid raises FairconError.
    """
    from faircon.errors import FairconError

    def units(u: Fraction, step: Fraction, i: int) -> int:
        if u <= 0:
            return 0
        if step == 0:
            raise FairconError(f"agent {i} has positive utility {u} but a degenerate grid")
        return -((-u) // step)

    n = inst.n
    out = []
    seen = set()
    for alpha in disc.task_grids[j]:
        u = [alpha * inst.p[i][j] * inst.r[j] - inst.c[i][j] for i in range(n)]
        du = [units(x, disc.agent_steps[i], i) for i, x in enumerate(u)]
        for agent in range(n):
            if u[agent] < 0:
                continue
            dv = [0] * (n * n)
            for i in range(n):
                dv[i * n + agent] = du[i]
            dh = units((1 - alpha) * inst.p[agent][j] * inst.r[j], disc.principal_step, agent)
            sig = (agent, dh, *dv)
            if sig in seen:
                continue
            seen.add(sig)
            out.append((agent, alpha, packer.pack(dv), dh))
    return out


def adaptive_task_grids_reference(inst: Instance, guess, K: int):
    """Per-task contract grids of the EF1 discretization in Fractions: for
    each agent with a finite minimum wage w at or below the task's cap, the
    K + 1 points w + k/K (cap - w); the grid is their sorted union."""
    grids = []
    for j in range(inst.m):
        low = Fraction(1)
        for i in range(inst.n):
            pr = inst.p[i][j] * inst.r[j]
            if pr > 0:
                low = min(low, (guess[i] + inst.c[i][j]) / pr)
        points = set()
        for i in range(inst.n):
            pr = inst.p[i][j] * inst.r[j]
            if inst.c[i][j] == 0:
                w = Fraction(0)
            elif pr > 0:
                w = inst.c[i][j] / pr
            else:
                continue
            if w > low:
                continue
            points.update(w + Fraction(k, K) * (low - w) for k in range(K + 1))
        grids.append(tuple(sorted(points)))
    return tuple(grids)


def best_lp_reference(inst: Instance, budget_lps: int, models):
    """The exact solvers' driver as plain enumeration: every allocation in
    `itertools.product` order whose pairs all admit an IR contract, every
    model of it, and the first strictly better LP optimum wins.

    A drop-in for `faircon.exact._best_lp` (same arguments, same return
    shape) with no bound, seed or symmetry, so patching it in gives the
    reference each branch-and-bound solve must match.  It reuses the
    library's LP builders and simplex: it checks the search, not the LPs.
    """
    from faircon.core import minimum_wage
    from faircon.errors import BudgetExceededError
    from faircon.lp import solve_lp

    if inst.n**inst.m > budget_lps:
        raise BudgetExceededError("lps", budget_lps, inst.n**inst.m)
    lps = solved = 0
    best = None
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        if any(minimum_wage(inst, i, j) > 1 for j, i in enumerate(assignment)):
            continue
        solved += 1
        alloc = Allocation(assignment, inst.n)
        for model in models(alloc):
            lps += 1
            if lps > budget_lps:
                raise BudgetExceededError("lps", budget_lps)
            sol = solve_lp(model)
            if sol.optimal and (best is None or sol.objective > best[0]):
                best = (sol.objective, alloc, sol)
    assert best is not None, "no feasible allocation"
    return best, {"lp_solves": lps, "allocations_solved": solved}


def ef1_case4_models(inst: Instance, alloc: Allocation):
    """The EF1 models `faircon.exact.solve_opt_ef1` solved before agents
    with empty bundles got witness rows, kept as its reference.

    Witness rows only for pairs of nonempty bundles; every agent with an
    empty bundle is covered instead by a wage-cap vector per nonempty
    bundle from `enumerate_case4_bounds`, written into the model's upper
    bounds, one LP per witness choice and cap combination.  Pass it to
    `best_lp_reference` as `lambda alloc: ef1_case4_models(inst, alloc)`.
    """
    from faircon import exact, lp

    bundles = alloc.bundles()
    nonempty = [i for i in range(inst.n) if bundles[i]]
    empty = [i for i in range(inst.n) if not bundles[i]]

    pair_options = []
    for i in nonempty:
        for j in nonempty:
            if i != j:
                pair_options.append(((i, j), exact._witness_candidates(inst, i, bundles[j])))

    bound_options = []
    if empty:
        for j in nonempty:
            vectors = exact.enumerate_case4_bounds(inst, bundles[j], empty)
            # Equal wages can repeat a threshold map; one LP each suffices.
            unique = list({tuple(sorted(v.items())): v for v in vectors}.values())
            bound_options.append(unique)

    witness_product = itertools.product(*(opts for _, opts in pair_options))
    for witness_choice in witness_product:
        witnesses = {pair: task for (pair, _), task in zip(pair_options, witness_choice)}
        for bound_choice in itertools.product(*bound_options):
            b = lp._Builder(inst, alloc)
            for (i, j), w in witnesses.items():
                b.envy_row(i, j, exclude=w)
            for chunk in bound_choice:
                for k, bound in chunk.items():
                    b.ub[k] = min(ONE, bound)
            yield b.model()


def simplex_reference(
    n_vars: int,
    objective: dict[int, Fraction],
    rows: Sequence[tuple[dict[int, Fraction], Fraction]],
) -> tuple[str, list[Fraction] | None, Fraction | None, int]:
    """The dense two-phase Fraction simplex with Bland's rule that
    `faircon.simplex.maximize` replaced, kept as its reference.

    Maximize objective . x subject to coeffs . x >= rhs for every
    (coeffs, rhs) in rows, and x >= 0.  Returns (status, x, value, pivots);
    x and value are None unless status is 'optimal'.
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
    pivots = 0

    def pivot(prow: int, pcol: int) -> None:
        nonlocal z, pivots
        pivots += 1
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
            return INFEASIBLE, None, None, pivots
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
        return status, None, None, pivots

    x = [ZERO] * n_vars
    for r, bv in enumerate(basis):
        if bv < n_vars:
            x[bv] = rhs_col[r]
    return OPTIMAL, x, -z, pivots
