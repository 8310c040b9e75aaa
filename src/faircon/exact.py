"""Globally optimal solvers by enumeration over allocations.

Feasible at desk scale (up to n^m allocations, each solved as an LP);
these are the oracles the approximate solvers are tested against.  Budgets
count search nodes and LP solves, not wall time, so runs are reproducible.

One driver, `_best_lp`, runs a depth-first branch-and-bound that assigns
tasks 0..m-1 in order, so it reaches allocations in lexicographic order.
It returns exactly what plain enumeration returns, by four arguments:

- *Bound.*  Every contract LP keeps the IR row alpha_j pr >= c for each
  assigned pair, so task j adds (1 - alpha_j) pr <= pr - c, the pair's
  welfare, to the objective; EFS subsidies only subtract.  A prefix of the
  assignment is therefore worth at most its welfare plus, per remaining
  task, the best welfare over the agents that admit an IR contract.
- *Seed.*  Greedy EF is envy-free with zero subsidies, so it is also
  eps-EF, EF1 and EFS; its revenue is a lower bound on every optimum here.
  Its own allocation's bound equals that revenue, so only a bound strictly
  below the seed is cut.  A bound at most the best LP objective so far is
  cut too: allocations come in lexicographic order and only a strictly
  better optimum replaces the incumbent, so the result is still the first
  allocation, and its first model, that reaches the optimum.
- *Symmetry.*  Agents with equal p and c rows are interchangeable:
  swapping them maps fair contracts to fair contracts of equal revenue, so
  an allocation and its image have the same optimum.  Only canonical
  allocations are searched, where such an agent takes a task only once the
  equal agent before it holds one.  The lexicographically first optimum is
  the smallest allocation of its orbit, which is canonical, so it is never
  cut.
- *Screen.*  IR forces alpha_j >= mw_ij, the minimum wage of task j's
  holder i, so any agent k values task j of S_i at least at its envy
  floor f_ijk = max(0, mw_ij pr_kj - c_kj), while alpha <= 1 caps what
  k's own bundle gives it at W_k, the bundle's welfare (0 when empty).
  k's envy row for S_i then fails under every contract when the floors
  of S_i sum to more than W_k + eps (eps 0 under EF); EF1 drops the
  largest floor first (a witness removes one task), and EFS has no
  screen (subsidies repair any envy).  Floors only grow with S_i and W_k
  only when k takes a task, so an agent ruled out at a prefix must take
  one of the remaining tasks, each of which goes to one agent: a prefix
  is cut when more agents are ruled out than tasks remain (at a leaf,
  when any is).  A cut allocation has no feasible LP, so it could never
  have changed the incumbent: every other cut, and the first optimum,
  are the same as without the screen.
"""

from __future__ import annotations

import itertools
import logging
import math
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional

from .core import (
    Allocation,
    Contract,
    Instance,
    SolveResult,
    greedy_ef,
    minimum_wage,
    revenue,
    verify_ef1,
    verify_efs,
    verify_eps_ef,
    verify_ir,
)
from .errors import BudgetExceededError, FairconError
from .lp import (
    LpModel,
    LpSolution,
    build_ef_lp,
    build_ef1_lp,
    build_efs_lp,
    contract_from_solution,
    solve_lp,
)
from .numeric import Num, ONE, ZERO, as_fraction

log = logging.getLogger("faircon")

DEFAULT_LP_BUDGET = 10**7
_LOG_EVERY_LPS = 1_000  # DEBUG progress interval

_Best = tuple[Fraction, Allocation, LpSolution]


_Floors = tuple[tuple[int, Fraction], ...]
# A notion's screen rule as (drops one task, eps): a bundle whose floors, less
# the largest if the rule drops one, sum to more than agent k's welfare so far
# plus eps rules k out (the module docstring's *Screen*); None rules out none.
_Rule = Optional[tuple[bool, Fraction]]


def _viable_pairs(inst: Instance) -> list[list[tuple[int, Fraction, _Floors]]]:
    """Per task j, (i, welfare, floors) for each agent i that admits an IR
    contract (`Instance.viable_agents`), in agent order.  `floors` holds
    (k, f_ijk) for each other agent k whose envy floor f_ijk = mw_ij pr_kj -
    c_kj on the task is positive; the others are clamped to 0 and add
    nothing."""
    out = []
    for j in range(inst.m):
        row = []
        for i in inst.viable_agents(j):
            wage = minimum_wage(inst, i, j)
            floors = tuple(
                (k, f) for k in range(inst.n)
                if k != i and (f := wage * inst.pr[k][j] - inst.c[k][j]) > 0
            )
            row.append((i, inst.welfare(i, j), floors))
        out.append(row)
    return out


def _screen(viable: list, rule: _Rule) -> tuple[list[dict], list[dict], Optional[tuple[bool, int]]]:
    """`_viable_pairs`' floors and welfare per (task, holder), and `rule`
    as (drops one task, eps), in ints over one common denominator L."""
    drop, eps = rule or (False, ZERO)
    fracs = [x for row in viable for _, w, fs in row for x in (w, *(f for _, f in fs))]
    scale = math.lcm(eps.denominator, *(x.denominator for x in fracs))
    floors = [{i: tuple((k, int(f * scale)) for k, f in fs) for i, _, fs in row} for row in viable]
    units = [{i: int(w * scale) for i, w, _ in row} for row in viable]
    return floors, units, None if rule is None else (drop, int(eps * scale))


def _forced(
    floors: list[dict], assignment: list[int], d: int, own: list[int],
    screen: Optional[tuple[bool, int]],
) -> int:
    """How many agents the floors (`floors[j][i]`, task j's under holder i)
    of some bundle of assignment[:d + 1] rule out under `screen`, given
    each agent's welfare so far `own`; all three come from `_screen`."""
    if screen is None:
        return 0
    drop, cap = screen
    tally: dict[tuple[int, int], tuple[int, int]] = {}
    for j, i in enumerate(assignment[:d + 1]):
        for k, f in floors[j][i]:
            total, top = tally.get((k, i), (0, 0))
            tally[k, i] = (total + f, top if top > f else f)
    return len({k for (k, _), (total, top) in tally.items() if total - drop * top > own[k] + cap})


def _twin_before(inst: Instance) -> list[Optional[int]]:
    """Per agent, the nearest earlier agent with equal p and c rows, if any."""
    last: dict[tuple, int] = {}
    out: list[Optional[int]] = []
    for i in range(inst.n):
        key = (inst.p[i], inst.c[i])
        out.append(last.get(key))
        last[key] = i
    return out


def _best_lp(
    inst: Instance,
    budget_lps: int,
    models: Callable[[Allocation], Iterable[LpModel]],
    rule: _Rule,
) -> tuple[_Best, dict[str, int]]:
    """Best LP optimum over all IR-feasible allocations, by branch-and-bound.

    `models(alloc)` yields the LP models for one allocation; `rule` is
    the notion's screen rule (`_Rule`), applied to each prefix by
    `_forced`.  The result is the one plain enumeration gives: the first
    allocation in lexicographic order, and its first model, that attains
    the best optimum.  The module docstring argues why the welfare bound,
    the greedy-EF seed, the twin-agent rule and the envy-floor screen never
    cut that allocation.  Within an allocation the model loop stops once an
    LP reaches the allocation's welfare, since no later model can beat it.
    Every search node (a prefix the bound lets through, screened or not)
    and every LP is charged to `budget_lps`, each count on its own, so the
    search fails once either passes it.  Returns ((objective, allocation, solution), counts) with
    counts {"lp_solves", "pivots", "allocations_solved", "nodes",
    "screened"}: the LPs, their simplex pivots, the allocations that
    reached an LP, the search nodes and those the screen cut.  Logs
    progress at DEBUG and a summary at INFO.
    """
    viable = _viable_pairs(inst)
    floors, units, screen = _screen(viable, rule)
    twin = _twin_before(inst)
    rest = [ZERO] * (inst.m + 1)  # rest[d]: best welfare of tasks d..m-1
    for j in reversed(range(inst.m)):
        rest[j] = rest[j + 1] + max(w for _, w, _ in viable[j])
    seed = revenue(inst, greedy_ef(inst))
    assignment = [0] * inst.m
    held = [0] * inst.n
    own = [0] * inst.n  # each agent's welfare so far, in `_screen`'s ints
    counts = dict.fromkeys(("lp_solves", "pivots", "allocations_solved", "nodes", "screened"), 0)
    best: Optional[_Best] = None

    def solve_leaf(welfare: Fraction) -> None:
        nonlocal best
        counts["allocations_solved"] += 1
        alloc = Allocation(tuple(assignment), inst.n)
        for model in models(alloc):
            counts["lp_solves"] += 1
            if counts["lp_solves"] > budget_lps:
                raise BudgetExceededError("lps", budget_lps)
            sol = solve_lp(model)
            counts["pivots"] += sol.pivots
            if counts["lp_solves"] % _LOG_EVERY_LPS == 0:
                log.debug("exact: %d LPs, %d allocations solved",
                          counts["lp_solves"], counts["allocations_solved"])
            if sol.optimal and (best is None or sol.objective > best[0]):
                best = (sol.objective, alloc, sol)
            if sol.optimal and sol.objective == welfare:
                return

    def search(d: int, welfare: Fraction) -> None:
        if d == inst.m:
            solve_leaf(welfare)
            return
        for i, w, _ in viable[d]:
            if twin[i] is not None and not held[twin[i]]:
                continue
            bound = welfare + w + rest[d + 1]
            if bound < seed or (best is not None and bound <= best[0]):
                continue
            counts["nodes"] += 1
            if counts["nodes"] > budget_lps:
                raise BudgetExceededError("search node", budget_lps)
            assignment[d] = i
            held[i] += 1
            own[i] += units[d][i]
            if _forced(floors, assignment, d, own, screen) > inst.m - d - 1:
                counts["screened"] += 1
            else:
                search(d + 1, welfare + w)
            held[i] -= 1
            own[i] -= units[d][i]

    search(0, ZERO)
    log.info(
        "exact: %d allocations, %d nodes, %d screened, %d solved, %d LPs, best objective %s",
        inst.n**inst.m, counts["nodes"], counts["screened"], counts["allocations_solved"],
        counts["lp_solves"], None if best is None else best[0],
    )
    if best is None:
        raise FairconError("no feasible allocation; Assumption 1 should prevent this")
    return best, counts


def _solve(
    inst: Instance, budget_lps: int, models: Callable[[Allocation], Iterable[LpModel]],
    rule: _Rule, method: str, fair: Callable[[Contract], bool],
    meta: Optional[dict] = None,
) -> SolveResult:
    """The contract of the best LP optimum (`_best_lp`), re-verified in
    rationals: its revenue must equal the LP value, and it must pass IR and
    `fair` (the notion) at tol 0.  `meta` leads the result's meta."""
    (value, alloc, sol), counts = _best_lp(inst, budget_lps, models, rule)
    contract = contract_from_solution(sol, alloc)
    if revenue(inst, contract) != value or not (verify_ir(inst, contract)[0] and fair(contract)):
        raise FairconError(f"internal error: {method} optimum failed verification")
    return SolveResult(contract, value, method, {**(meta or {}), **counts})


def solve_opt_ef(
    inst: Instance, eps: Num = 0, budget_lps: int = DEFAULT_LP_BUDGET
) -> SolveResult:
    """Optimal (eps-)envy-free contract by enumerating all allocations and
    solving the fixed-allocation LP for each."""
    eps = as_fraction(eps)
    return _solve(
        inst, budget_lps, lambda alloc: [build_ef_lp(inst, alloc, eps)], (False, eps),
        "exact-ef" if eps == 0 else "exact-eps-ef", lambda k: verify_eps_ef(inst, k, eps),
        {"eps": eps, "allocations": inst.n**inst.m},
    )


def enumerate_case4_bounds(
    inst: Instance, tasks: Iterable[int], empty_agents: Iterable[int]
) -> list[dict[int, Fraction]]:
    """Contract upper bounds making a bundle envy-free-up-to-one-task for
    every agent that holds nothing.

    Per task, agents are sorted by minimum wage with a zero sentinel at the
    head and a top sentinel at the tail; an index vector cuts each list at a
    wage threshold.  A vector is feasible when no agent sits strictly below
    the cut in two lists (that agent would need two removable tasks).
    Returns the feasible vectors as task -> wage-threshold maps.

    No solver calls it, and the package does not export it:
    `solve_opt_ef1` gives empty-bundle agents witness rows, which impose the
    same caps.  It stays in this module because `perfbench/tracing.py`
    wraps it by name, and the tests use it as the reference for those rows.
    """
    tasks = list(tasks)
    agents = list(empty_agents)
    if not agents:
        return []
    lists: list[list[tuple[Optional[int], Fraction]]] = []
    for k in tasks:
        entries = []
        for a in agents:
            pr = inst.pr[a][k]
            # pr = 0 means the agent can never gain from the task: sort last.
            wage = inst.c[a][k] / pr if pr > 0 else None
            entries.append((a, wage))
        entries.sort(key=lambda e: (e[1] is None, e[1], e[0]))
        ranked: list[tuple[Optional[int], Fraction]] = [(None, ZERO)]
        ranked += [(a, ONE if w is None else min(w, ONE)) for a, w in entries]
        ranked.append((None, ONE))
        lists.append(ranked)

    out: list[dict[int, Fraction]] = []
    for cuts in itertools.product(*(range(len(lst)) for lst in lists)):
        seen: set[int] = set()
        feasible = True
        for lst, cut in zip(lists, cuts):
            for pos in range(1, cut):
                agent = lst[pos][0]
                if agent is None:
                    continue
                if agent in seen:
                    feasible = False
                    break
                seen.add(agent)
            if not feasible:
                break
        if feasible:
            out.append({k: lst[cut][1] for k, lst, cut in zip(tasks, lists, cuts)})
    return out


def _witness_candidates(inst: Instance, i: int, bundle: list[int]) -> list[int]:
    """Removable tasks worth trying for the pair: only tasks agent i could
    ever gain from; when there are none the choice cannot matter."""
    positive = [k for k in bundle if inst.welfare(i, k) > 0]
    return positive if positive else [bundle[0]]


def solve_opt_ef1(inst: Instance, budget_lps: int = DEFAULT_LP_BUDGET) -> SolveResult:
    """Optimal EF1 contract: per allocation, enumerate a removable task for
    every pair (i, j) with S_j nonempty and solve one LP per choice.

    An agent i with an empty bundle needs no second case: its witness row
    for w in S_j forces alpha_t p_it r_t <= c_it on every other task t of
    S_j, which is the paper's case-4 wage cap on that bundle.
    """

    def models(alloc: Allocation) -> Iterator[LpModel]:
        bundles = alloc.bundles()
        pairs = [(i, j) for i in range(inst.n) for j in range(inst.n) if i != j and bundles[j]]
        options = [_witness_candidates(inst, i, bundles[j]) for i, j in pairs]
        for choice in itertools.product(*options):
            yield build_ef1_lp(inst, alloc, dict(zip(pairs, choice)))

    return _solve(
        inst, budget_lps, models, (True, ZERO), "exact-ef1", lambda k: verify_ef1(inst, k)[0]
    )


def solve_opt_efs(inst: Instance, budget_lps: int = DEFAULT_LP_BUDGET) -> SolveResult:
    """Optimal envy-free contract with subsidies: per allocation, one LP
    with a subsidy variable per agent.

    This is the subsidy-to-EF reduction solved directly: its added unit
    tasks matter only through each agent's total payment on them, which the
    LP models as that agent's subsidy (`faircon.ext` keeps the reduction
    itself).
    """
    return _solve(
        inst, budget_lps, lambda alloc: [build_efs_lp(inst, alloc)], None, "exact-efs",
        lambda k: verify_efs(inst, k),
    )
