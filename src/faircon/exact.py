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
  holder i, so an agent k with an empty bundle values task j of S_i at
  least at its envy floor f_ijk = max(0, mw_ij pr_kj - c_kj).  k's envy
  row for S_i then fails under every contract when the floors of S_i rule
  it out: any positive floor under EF, a sum above eps under eps-EF, two
  or more positive floors under EF1 (a witness drops only one), never
  under EFS (subsidies repair any envy).  Floors only grow with S_i, so an
  agent ruled out at a prefix must still take a task, and each remaining
  task makes at most one agent nonempty: a prefix is cut when more
  ruled-out agents hold nothing than tasks remain (at a leaf, when any
  does).  A cut allocation has no feasible LP, so it could never have
  changed the incumbent: every other cut, and the first optimum, are the
  same as without the screen.
"""

from __future__ import annotations

import itertools
import logging
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

__all__ = ["solve_opt_ef", "solve_opt_ef1", "solve_opt_efs"]

_Best = tuple[Fraction, Allocation, LpSolution]


_Floors = tuple[tuple[int, Fraction], ...]
# Whether an empty agent whose positive floors on one bundle number `count`
# and sum to `total` has no fair contract (the module docstring's *Screen*).
_RulesOut = Callable[[int, Fraction], bool]


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


class _EnvyScreen:
    """The screen's state along one search path: per (k, i), the count and
    sum of agent k's positive envy floors on S_i so far, and per agent k,
    the bundles whose floors rule k out while it holds nothing."""

    def __init__(self, n: int, rules_out: _RulesOut):
        self.rules_out = rules_out
        self.tally = [[(0, ZERO)] * n for _ in range(n)]
        self.ruled = [0] * n

    def add(self, i: int, floors: _Floors, sign: int = 1) -> None:
        """Add (sign 1) or remove (sign -1) one task of S_i's floors."""
        for k, f in floors:
            count, total = self.tally[k][i]
            before = self.rules_out(count, total)
            count, total = count + sign, total + sign * f
            self.tally[k][i] = (count, total)
            self.ruled[k] += self.rules_out(count, total) - before

    def cuts(self, held: list[int], tasks_left: int) -> bool:
        """More agents hold nothing yet are ruled out than tasks remain."""
        forced = sum(1 for k, ruled in enumerate(self.ruled) if ruled and not held[k])
        return forced > tasks_left


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
    rules_out: _RulesOut,
) -> tuple[_Best, dict[str, int]]:
    """Best LP optimum over all IR-feasible allocations, by branch-and-bound.

    `models(alloc)` yields the LP models for one allocation; `rules_out` is
    the notion's screen rule (`_RulesOut`).  The result is the one plain
    enumeration gives: the first allocation in lexicographic order, and its
    first model, that attains the best optimum.  The module docstring
    argues why the welfare bound, the greedy-EF seed, the twin-agent rule
    and the envy-floor screen never cut that allocation.  Within an
    allocation the model loop stops once an LP reaches the allocation's
    welfare, since no later model can beat it.  Every search node (a prefix
    the bound lets through, screened or not) and every LP is charged to
    `budget_lps`, each count on its own, so the search fails once either
    passes it.  Returns ((objective, allocation, solution), counts) with
    counts {"lp_solves", "pivots", "allocations_solved", "nodes",
    "screened"}: the LPs, their simplex pivots, the allocations that
    reached an LP, the search nodes and those the screen cut.  Logs
    progress at DEBUG and a summary at INFO.
    """
    viable = _viable_pairs(inst)
    twin = _twin_before(inst)
    rest = [ZERO] * (inst.m + 1)  # rest[d]: best welfare of tasks d..m-1
    for j in reversed(range(inst.m)):
        rest[j] = rest[j + 1] + max(w for _, w, _ in viable[j])
    seed = revenue(inst, greedy_ef(inst))
    screen = _EnvyScreen(inst.n, rules_out)
    assignment = [0] * inst.m
    held = [0] * inst.n
    lps = pivots = solved = nodes = screened = 0
    best: Optional[_Best] = None

    def solve_leaf(welfare: Fraction) -> None:
        nonlocal best, lps, pivots, solved
        solved += 1
        alloc = Allocation(tuple(assignment), inst.n)
        for model in models(alloc):
            lps += 1
            if lps > budget_lps:
                raise BudgetExceededError("lps", budget_lps)
            sol = solve_lp(model)
            pivots += sol.pivots
            if lps % _LOG_EVERY_LPS == 0:
                log.debug("exact: %d LPs, %d allocations solved", lps, solved)
            if sol.optimal and (best is None or sol.objective > best[0]):
                best = (sol.objective, alloc, sol)
            if sol.optimal and sol.objective == welfare:
                return

    def search(d: int, welfare: Fraction) -> None:
        nonlocal nodes, screened
        if d == inst.m:
            solve_leaf(welfare)
            return
        for i, w, floors in viable[d]:
            if twin[i] is not None and not held[twin[i]]:
                continue
            bound = welfare + w + rest[d + 1]
            if bound < seed or (best is not None and bound <= best[0]):
                continue
            nodes += 1
            if nodes > budget_lps:
                raise BudgetExceededError("search node", budget_lps)
            assignment[d] = i
            held[i] += 1
            screen.add(i, floors)
            if screen.cuts(held, inst.m - d - 1):
                screened += 1
            else:
                search(d + 1, welfare + w)
            screen.add(i, floors, -1)
            held[i] -= 1

    search(0, ZERO)
    log.info(
        "exact: %d allocations, %d nodes, %d screened, %d solved, %d LPs, best objective %s",
        inst.n**inst.m, nodes, screened, solved, lps, None if best is None else best[0],
    )
    if best is None:
        raise FairconError("no feasible allocation; Assumption 1 should prevent this")
    return best, {
        "lp_solves": lps, "pivots": pivots, "allocations_solved": solved,
        "nodes": nodes, "screened": screened,
    }


def _ef_rule(eps: Fraction) -> _RulesOut:
    """eps-EF, and EF at eps 0: the floors on one bundle sum above eps."""
    return lambda count, total: total > eps


def _ef1_rule(count: int, total: Fraction) -> bool:
    """EF1: two or more positive floors on one bundle; a witness drops one."""
    return count > 1


def _efs_rule(count: int, total: Fraction) -> bool:
    """EFS: never, since subsidies repair any envy."""
    return False


def _solve(
    inst: Instance, budget_lps: int, models: Callable[[Allocation], Iterable[LpModel]],
    rules_out: _RulesOut, method: str, fair: Callable[[Contract], bool],
    meta: Optional[dict] = None,
) -> SolveResult:
    """The contract of the best LP optimum (`_best_lp`), re-verified in
    rationals: its revenue must equal the LP value, and it must pass IR and
    `fair` (the notion) at tol 0.  `meta` leads the result's meta."""
    (value, alloc, sol), counts = _best_lp(inst, budget_lps, models, rules_out)
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
        inst, budget_lps, lambda alloc: [build_ef_lp(inst, alloc, eps)], _ef_rule(eps),
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
        inst, budget_lps, models, _ef1_rule, "exact-ef1", lambda k: verify_ef1(inst, k)[0]
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
        inst, budget_lps, lambda alloc: [build_efs_lp(inst, alloc)], _efs_rule, "exact-efs",
        lambda k: verify_efs(inst, k),
    )
