"""Independent oracles for the test suite.

Everything here recomputes fairness and revenue straight from the
definitions (grid search, exhaustive removal enumeration, closed-form
subsidies), deliberately avoiding the library's solver and verifier code
paths it is used to check.
"""

from __future__ import annotations

import itertools
import math
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


def _grid_terms(inst: Instance, step: float):
    """An instance's alpha grid and what every allocation reads from it:
    per-agent (G, m) utilities, the same gains clipped at zero, and per
    (agent, task) the grid points where that utility is IR (>= -1e-12)."""
    alphas = alpha_grid(inst.m, step)
    utils = float_utilities(inst, alphas)
    gains = [np.clip(u, 0.0, None) for u in utils]
    ir = [[u[:, j] >= -1e-12 for j in range(inst.m)] for u in utils]
    return alphas, utils, gains, ir


def _ir_mask(assignment, ir) -> np.ndarray:
    mask = np.ones(len(ir[0][0]), dtype=bool)
    for j, i in enumerate(assignment):
        mask &= ir[i][j]
    return mask


def _own_sums(inst: Instance, bundles, alphas, utils) -> list[np.ndarray]:
    return [
        utils[i][:, bundles[i]].sum(axis=1) if bundles[i] else np.zeros(len(alphas))
        for i in range(inst.n)
    ]


def grid_ef_best(inst: Instance, assignment, eps: float, step: float) -> float:
    """Best (eps-)EF revenue on a fixed allocation over an alpha grid;
    -inf when no grid point is feasible."""
    alphas, utils, gains, ir = _grid_terms(inst, step)
    bundles = Allocation(tuple(assignment), inst.n).bundles()
    mask = _ir_mask(assignment, ir)
    if not mask.any():
        return -np.inf
    own = _own_sums(inst, bundles, alphas, utils)
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            switch = gains[i][:, bundles[j]].sum(axis=1)
            mask &= own[i] >= switch - eps - 1e-12
    if not mask.any():
        return -np.inf
    return float(_revenues(inst, assignment, alphas)[mask].max())


def grid_ef1_best(inst: Instance, assignment, terms) -> float:
    """Best EF1 revenue on a fixed allocation over the alpha grid of
    `terms = _grid_terms(inst, step)`."""
    alphas, utils, gains, ir = terms
    bundles = Allocation(tuple(assignment), inst.n).bundles()
    mask = _ir_mask(assignment, ir)
    if not mask.any():
        return -np.inf
    own = _own_sums(inst, bundles, alphas, utils)
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            g = gains[i][:, bundles[j]]
            mask &= own[i] >= g.sum(axis=1) - g.max(axis=1) - 1e-12
    if not mask.any():
        return -np.inf
    return float(_revenues(inst, assignment, alphas)[mask].max())


def grid_ef1_opt(inst: Instance, step: float) -> float:
    """EF1 optimum over all allocations by grid search."""
    terms = _grid_terms(inst, step)
    best = -np.inf
    for assignment in itertools.product(range(inst.n), repeat=inst.m):
        best = max(best, grid_ef1_best(inst, assignment, terms))
    return best


def grid_efs_best_two_agents(inst: Instance, assignment, terms) -> float:
    """Best EFS revenue for two agents: alpha on the grid of
    `terms = _grid_terms(inst, step)`, subsidies solved in closed form
    (min s1+s2 with s1-s2 >= a, s2-s1 >= b, s >= 0)."""
    assert inst.n == 2
    alphas, utils, gains, ir = terms
    bundles = Allocation(tuple(assignment), inst.n).bundles()
    mask = _ir_mask(assignment, ir)
    if not mask.any():
        return -np.inf
    own = _own_sums(inst, bundles, alphas, utils)
    switch = {}
    for i, j in ((0, 1), (1, 0)):
        switch[(i, j)] = (
            gains[i][:, bundles[j]].sum(axis=1) if bundles[j] else np.zeros(len(alphas))
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
    terms = _grid_terms(inst, step)
    best = -np.inf
    for assignment in itertools.product(range(2), repeat=inst.m):
        best = max(best, grid_efs_best_two_agents(inst, assignment, terms))
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


def report_reference(inst: Instance, k: Contract, eps, tol) -> dict:
    """Every `FairnessReport` field recomputed one pair at a time from the
    definitions.

    IR holds when every assigned pair's utility is at least -tol.  Agent
    i's own sum is then the plain sum of its utilities over S_i, and
    otherwise the clamped sum (each task at max(u, 0)); its value for
    another bundle S_j is always the clamped sum.  EF1 may drop any one
    task of a nonempty S_j; the witness is the first task of S_j whose
    clamped utility is largest.
    """
    eps, tol = Fraction(eps), Fraction(tol)
    n = inst.n
    bundles = k.allocation.bundles()

    def util(i, t):
        return k.alpha[t] * inst.p[i][t] * inst.r[t] - inst.c[i][t]

    def gain(i, t):
        return max(util(i, t), ZERO)

    ir_slacks = {(i, t): util(i, t) for t, i in enumerate(k.assignment)}
    ir_ok = all(s >= -tol for s in ir_slacks.values())
    own = [
        sum(((util if ir_ok else gain)(i, t) for t in bundles[i]), ZERO) for i in range(n)
    ]
    slacks = [[ZERO] * n for _ in range(n)]
    ef_ok = eps_ef_ok = ef1_ok = efs_ok = True
    witnesses = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            value = sum((gain(i, t) for t in bundles[j]), ZERO)
            slacks[i][j] = own[i] - value
            ef_ok &= own[i] >= value - tol
            eps_ef_ok &= own[i] >= value - eps - tol
            if k.subsidies is not None:
                efs_ok &= own[i] + k.subsidies[i] >= value + k.subsidies[j] - tol
            if not bundles[j]:
                witnesses[(i, j)] = None
                continue
            best = max(gain(i, t) for t in bundles[j])
            witnesses[(i, j)] = next(t for t in bundles[j] if gain(i, t) == best)
            ef1_ok &= any(own[i] >= value - gain(i, t) - tol for t in bundles[j])
    return {
        "tolerance": tol,
        "epsilon": eps,
        "ir_ok": ir_ok,
        "ir_slacks": ir_slacks,
        "ef_ok": ef_ok,
        "ef_slacks": tuple(tuple(row) for row in slacks),
        "eps_ef_ok": eps_ef_ok,
        "ef1_ok": ef1_ok,
        "ef1_witnesses": witnesses,
        "lhs_form": "simplified" if ir_ok else "clamped",
        "efs_ok": efs_ok if k.subsidies is not None else None,
    }


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


def grid_fractions(disc) -> tuple[tuple[Fraction, ...], ...]:
    """Each task's contract grid of a discretization as ascending Fractions."""
    return tuple(
        tuple(disc.alpha(j, k) for k in range(len(points)))
        for j, (points, _) in enumerate(disc.task_grids)
    )


def dp_profiles(dp) -> dict[tuple[int, ...], int]:
    """A DP's final layer as {(v[0][0], v[0][1], ..): max principal units}."""
    comps = dp.packer.unpack_rows(dp.keys).tolist()
    return dict(zip(map(tuple, comps), dp.h.tolist()))


def dedupe_reference(rows: np.ndarray, h: np.ndarray, gidx: np.ndarray):
    """The max-h representative per distinct row, rows in lexicographic order.

    Ties in h prefer the smallest original index, matching the
    task/contract/agent loop order.
    """
    order = np.lexsort((gidx, -h, *(rows[:, w] for w in range(rows.shape[1] - 1, -1, -1))))
    srows = rows[order]
    keep = np.ones(len(srows), dtype=bool)
    if len(srows) > 1:
        keep[1:] = np.any(srows[1:] != srows[:-1], axis=1)
    picked = order[keep]
    return srows[keep], h[picked], gidx[picked]


def dp_enumerate_reference(inst: Instance, disc, prune_caps=None, min_final_h=0):
    """The profile DP's transitions from their definition, on unpacked
    profiles: each task's options are `task_options_reference`'s, only the
    first of each agent and units kept, as n*n component rows (agent i's
    units on the receiver's bundle at i*n + receiver).  Per task layer,
    every candidate (state plus option delta) goes in one array, one
    `dedupe_reference` runs over (row, -h, gidx), then the states over a cap
    or below the layer's h floor are dropped.  No packing, chunks, merge or
    budget.  The caps are per agent: prune_caps[i] bounds agent i's units
    on every bundle, the form dp-ef1 passed before its cap became one
    number.

    Returns (gidx per layer, final component rows, final h, states over all
    layers): what `dp_enumerate` fills in, its keys unpacked.
    """
    n = inst.n
    tables = []
    for j in range(inst.m):
        seen, deltas, dh = set(), [], []
        for agent, _, units, h_units in task_options_reference(inst, disc, j):
            if (agent, units) not in seen:
                seen.add((agent, units))
                deltas.append([units[i] if r == agent else 0 for i in range(n) for r in range(n)])
                dh.append(h_units)
        tables.append((np.array(deltas, dtype=np.int64), np.array(dh, dtype=np.int64)))
    future_h = list(itertools.accumulate((int(dh.max()) for _, dh in reversed(tables)), initial=0))
    future_h.reverse()
    caps = None if prune_caps is None else np.repeat(np.array(prune_caps, dtype=np.int64), n)
    states = np.zeros((1, n * n), dtype=np.int64)
    h = np.zeros(1, dtype=np.int64)
    layers, total = [], 0
    for j, (deltas, dh) in enumerate(tables):
        cand = (states[None, :, :] + deltas[:, None, :]).reshape(-1, n * n)
        cand_h = (h[None, :] + dh[:, None]).ravel()
        states, h, gidx = dedupe_reference(cand, cand_h, np.arange(len(cand), dtype=np.int64))
        mask = h >= min_final_h - future_h[j + 1]
        if caps is not None:
            mask &= np.all(states <= caps, axis=1)
        states, h, gidx = states[mask], h[mask], gidx[mask]
        layers.append(gidx)
        total += len(h)
    return layers, states, h, total


def best_h_per_profile(profiles) -> dict:
    """Full (h, v...) profiles projected to {v: max h}: what the DP keeps,
    the most principal units of each reachable cross-utility profile."""
    best: dict = {}
    for h, *v in profiles:
        best[tuple(v)] = max(h, best.get(tuple(v), h))
    return best


def task_options_reference(inst: Instance, disc, j: int):
    """IR (agent, grid index of alpha, every agent's units, principal units)
    choices for task j, in Fractions straight from the rounding definitions:
    the DP's option list before its integer kernel, kept as the kernel's
    reference.

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
    for k, alpha in enumerate(grid_fractions(disc)[j]):
        u = [alpha * inst.p[i][j] * inst.r[j] - inst.c[i][j] for i in range(n)]
        du = tuple(units(x, disc.agent_steps[i], i) for i, x in enumerate(u))
        for agent in range(n):
            if u[agent] < 0:
                continue
            dh = units((1 - alpha) * inst.p[agent][j] * inst.r[j], Fraction(1, disc.K), agent)
            sig = (agent, dh, du)
            if sig in seen:
                continue
            seen.add(sig)
            out.append((agent, k, du, dh))
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


def best_lp_reference(inst: Instance, budget_lps: int, models, limits=None):
    """The exact solvers' driver as plain enumeration: every allocation in
    `itertools.product` order whose pairs all admit an IR contract, every
    model of it, and the first strictly better LP optimum wins.

    A drop-in for `faircon.exact._best_lp` (same arguments, same return
    shape) with no bound, seed, symmetry or screen (`limits` is
    ignored), so patching it in gives the reference each branch-and-bound
    solve must match.  It reuses the library's LP builders and simplex: it
    checks the search, not the LPs.
    """
    from faircon.core import minimum_wage
    from faircon.errors import BudgetExceededError
    from faircon.lp import solve_lp

    if inst.n**inst.m > budget_lps:
        raise BudgetExceededError("lps", budget_lps, inst.n**inst.m)
    lps = pivots = solved = 0
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
            pivots += sol.pivots
            if sol.optimal and (best is None or sol.objective > best[0]):
                best = (sol.objective, alloc, sol)
    assert best is not None, "no feasible allocation"
    return best, {"lp_solves": lps, "pivots": pivots, "allocations_solved": solved}


def best_over_guesses_reference(
    inst: Instance, runs, unit_cap, rev_floor, budget_states, verify, screen
):
    """The FPTAS guess driver before it stopped at the unconstrained optimum,
    pruned a guess or raised a guess's floor: every (guess, discretization)
    run is made once, in order, floored at the proof floor or the
    incumbent, and the first strictly better verified candidate wins.

    A drop-in for `faircon.dp._best_over_guesses` (same arguments, same
    return shape, no run pruned), so patching it in gives the reference each
    dp-ef1 and dp-eps-ef solve must match.  It reuses the library's DP and
    candidate scan: it checks the loop, not the runs.
    """
    from faircon.dp import _dp_setup, _scan_candidates, dp_enumerate
    from faircon.errors import BudgetExceededError

    best_rev = best = best_guess = None
    states = checks = screened = count = 0
    for count, (guess, disc) in enumerate(runs, 1):
        floor = rev_floor if best_rev is None else max(rev_floor, best_rev)
        h_floor = int(floor * disc.K)
        try:
            dp = dp_enumerate(_dp_setup(inst, disc), budget_states - states, unit_cap, h_floor)
        except BudgetExceededError as exc:
            raise BudgetExceededError("states", budget_states, states + exc.needed) from None
        states += dp.states_total
        new_rev, new_best, run_checks, run_screened = _scan_candidates(
            dp, best_rev, best, verify, screen
        )
        checks += run_checks
        screened += run_screened
        if new_best is not best:
            best_rev, best, best_guess = new_rev, new_best, guess
    assert best is not None, "no candidate passed verification"
    counts = {
        "guesses": count, "guesses_pruned": 0, "runs": count, "states": states,
        "exact_checks": checks, "screened": screened,
    }
    return best, best_rev, best_guess, counts


def ef1_screen_reference(inst: Instance, agents: np.ndarray, alphas: np.ndarray, slack: float):
    """The float EF1 screen of `faircon.dp` before its rows-last layout, over
    the (N, n, m) utility tensor, and each row's float EF1 slack, the least
    own - (switch - drop) over ordered pairs: (passed, slack per row)."""
    n = inst.n
    pr = np.array([[float(x) for x in row] for row in inst.pr])
    c = np.array([[float(x) for x in row] for row in inst.c])
    gains = np.maximum(alphas[:, None, :] * pr - c, 0.0)  # (N, n, m)
    member = agents[:, None, :] == np.arange(n)[:, None]  # (N, n, m): task in S_j
    switch = np.einsum("bit,bjt->bij", gains, member.astype(np.float64))
    drop = np.where(member[:, None, :, :], gains[:, :, None, :], 0.0).max(axis=3)
    own = np.diagonal(switch, axis1=1, axis2=2)
    passed = np.all(own[:, :, None] >= switch - drop - slack, axis=(1, 2))
    return passed, (own[:, :, None] - (switch - drop)).min(axis=(1, 2))


def scan_candidates_reference(dp, best_rev, best, verify, screen: bool):
    """`faircon.dp._scan_candidates` as one loop step per scanned row: the
    same arguments and (revenue, contract, verifier calls, screened) return.

    Each row in descending float revenue ends the scan when it falls the
    band margin below the incumbent, counts as screened when the screen
    fails it, and is otherwise rebuilt for its exact revenue and verified
    when that beats the incumbent.
    """
    from faircon.core import revenue
    from faircon.dp import _band_margin, _descending, _ef1_screen, _screen_slack

    inst = dp.inst
    positions, frev = dp.band(best_rev)
    margin = _band_margin(inst.m)
    slack = _screen_slack(inst.m)
    checks = screened = 0
    fbest = float(best_rev) if best_rev is not None else -math.inf
    for block in _descending(frev, fbest - margin):
        if screen:
            passed = _ef1_screen(inst, *dp.choices(positions[block]), slack).tolist()
        else:
            passed = [True] * len(block)
        for q, ok in zip(block.tolist(), passed):
            if float(frev[q]) < fbest - margin:
                return best_rev, best, checks, screened
            if not ok:
                screened += 1
                continue
            assignment, alphas = dp.reconstruct(int(positions[q]))
            contract = Contract(Allocation(assignment, inst.n), alphas)
            rev = revenue(inst, contract)
            if best_rev is not None and rev <= best_rev:
                continue
            checks += 1
            if verify(contract):
                best_rev, best, fbest = rev, contract, float(rev)
    return best_rev, best, checks, screened


def ef1_case4_models(inst: Instance, alloc: Allocation):
    """The EF1 models `faircon.exact.solve_opt_ef1` solved before agents
    with empty bundles got witness rows, kept as its reference.

    Witness rows only for pairs of nonempty bundles; every agent with an
    empty bundle is covered instead by a wage-cap vector per nonempty
    bundle from `enumerate_case4_bounds`, written over the model's
    alpha <= 1 bound rows, one LP per witness choice and cap combination.
    Pass it to `best_lp_reference` as
    `lambda alloc: ef1_case4_models(inst, alloc)`.
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
            model = lp._contract_lp(inst, alloc, [(i, j, w) for (i, j), w in witnesses.items()])
            rows = model.rows
            for chunk in bound_choice:
                for k, bound in chunk.items():
                    rows[len(rows) - inst.m + k] = lp.LpRow({k: -ONE}, -min(ONE, bound))
            yield model


def contract_lp_reference(
    inst: Instance, alloc: Allocation, notion: str, eps=ZERO, witnesses=None
) -> tuple:
    """The contract LP of `faircon.lp`, written densely from the row
    formulas of the `LpModel` docstring: (n_vars, objective,
    objective_const, rows), each row a (coefficient list, rhs) pair.

    notion is 'ef' (relaxed by eps), 'ef1' (witnesses[(i, j)] dropped from
    S_j; no row when S_j is empty) or 'efs' (a subsidy per agent).
    """
    n, m, owner = inst.n, inst.m, alloc.assignment
    subsidized = notion == "efs"
    n_vars = m + n * m + (n if subsidized else 0)

    def pr(i, k):
        return inst.p[i][k] * inst.r[k]

    def t(i, k):
        return m + i * m + k

    def s(i):
        return m + n * m + i

    def dense(terms):
        out = [ZERO] * n_vars
        for var, coeff in terms:
            out[var] += coeff
        return out

    objective = dense(
        [(j, -pr(owner[j], j)) for j in range(m)]
        + [(s(i), -ONE) for i in range(n) if subsidized]
    )
    const = sum((pr(owner[j], j) for j in range(m)), ZERO)
    rows = [(dense([(j, pr(owner[j], j))]), inst.c[owner[j]][j]) for j in range(m)]
    for i in range(n):
        for k in range(m):
            rows.append((dense([(t(i, k), ONE), (k, -pr(i, k))]), -inst.c[i][k]))
    for i in range(n):
        own = [k for k in range(m) if owner[k] == i]
        for j in range(n):
            envied = [k for k in range(m) if owner[k] == j]
            if i == j or (notion == "ef1" and not envied):
                continue
            if notion == "ef1":
                envied.remove(witnesses[i, j])
            terms = [(k, pr(i, k)) for k in own] + [(t(i, k), -ONE) for k in envied]
            if subsidized:
                terms += [(s(i), ONE), (s(j), -ONE)]
            rhs = sum((inst.c[i][k] for k in own), ZERO) - (eps if notion == "ef" else ZERO)
            rows.append((dense(terms), rhs))
    rows += [(dense([(j, -ONE)]), -ONE) for j in range(m)]
    return n_vars, objective, const, rows


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
