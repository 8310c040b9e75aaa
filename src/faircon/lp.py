"""Linear programs for optimal contracts on a fixed allocation.

The envy constraints' inner max{alpha p r - c, 0} terms are linearized with
auxiliary variables t[i,k] >= max(alpha_k p_ik r_k - c_ik, 0); at an optimum
the t take exactly the clamped values, so the LP optimum matches the clamped
program.  One function emits every contract LP (plain EF, EF relaxed by
eps, EF1 with a chosen removable task per pair, EF-with-subsidies) with its
rows in one order: an IR row per task, the t-definition rows agent-major,
the envy rows, then the m alpha <= 1 rows.  Slack indices drive the
simplex's Bland tie-breaks, so that order is part of every result.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Mapping, NamedTuple, Optional

from . import simplex
from .core import Allocation, Contract, Instance
from .errors import InvalidInstanceError
from .numeric import Num, ONE, ZERO, as_fraction


class LpRow(NamedTuple):
    """coeffs . x >= rhs."""

    coeffs: dict[int, Fraction]
    rhs: Fraction


@dataclass
class LpModel:
    """maximize objective_const + objective . x  s.t. rows, 0 <= x.

    Variables are indexed: alpha[j] at j, t[i,k] at m + i*m + k, then, in the
    EFS model, the subsidy s[i] at m + n*m + i.  With a_j the agent of task
    j and pr = p r, a contract model maximizes sum_j pr_{a_j j} (1 - alpha_j)
    (minus sum_i s_i in EFS) over these rows, in order:
      - per task j: pr_{a_j j} alpha_j >= c_{a_j j};
      - per agent i, then task k: t[i,k] - pr_ik alpha_k >= -c_ik;
      - per pair (i, j), i-major: sum_{S_i} pr_ik alpha_k - sum_{S_j} t[i,k]
        (+ s_i - s_j in EFS) >= sum_{S_i} c_ik - eps (eps-EF only); EF1 drops
        its witness task from S_j and has no row when S_j is empty;
      - per task j: -alpha[j] >= -1.
    """

    n_vars: int
    objective: dict[int, Fraction]
    objective_const: Fraction
    rows: list[LpRow]


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: tuple[Fraction, ...]
    objective: Optional[Fraction]
    pivots: int

    @property
    def optimal(self) -> bool:
        return self.status == simplex.OPTIMAL


def _contract_lp(
    inst: Instance,
    alloc: Allocation,
    envy: Iterable[tuple[int, int, Optional[int]]],
    relax: Fraction = ZERO,
    subsidized: bool = False,
) -> LpModel:
    """The contract LP of `alloc` with one envy row per (i, j, w) in `envy`
    (w is the task dropped from S_j, or None), in the `LpModel` row order."""
    if alloc.m != inst.m or alloc.n_agents != inst.n:
        raise InvalidInstanceError("allocation does not match instance")
    n, m, pr, c = inst.n, inst.m, inst.pr, inst.c
    bundles = alloc.bundles()
    s = m * (n + 1)
    objective = {s + i: -ONE for i in range(n)} if subsidized else {}
    const = ZERO
    rows: list[LpRow] = []
    for j, i in enumerate(alloc.assignment):
        const += pr[i][j]
        objective[j] = -pr[i][j]
        rows.append(LpRow({j: pr[i][j]}, c[i][j]))
    for i in range(n):
        for k in range(m):
            rows.append(LpRow({m + i * m + k: ONE, k: -pr[i][k]}, -c[i][k]))
    for i, j, w in envy:
        coeffs = {k: pr[i][k] for k in bundles[i]}
        coeffs.update((m + i * m + k, -ONE) for k in bundles[j] if k != w)
        if subsidized:
            coeffs.update({s + i: ONE, s + j: -ONE})
        rows.append(LpRow(coeffs, sum((c[i][k] for k in bundles[i]), -relax)))
    rows += [LpRow({j: -ONE}, -ONE) for j in range(m)]
    return LpModel(s + n if subsidized else s, objective, const, rows)


def build_ef_lp(inst: Instance, alloc: Allocation, eps: Num = 0) -> LpModel:
    """LP whose optimum is the best eps-envy-free revenue for this allocation
    (eps=0 gives plain envy-freeness)."""
    eps = as_fraction(eps)
    if eps < 0:
        raise InvalidInstanceError("eps must be nonnegative")
    envy = [(i, j, None) for i, j in permutations(range(inst.n), 2)]
    return _contract_lp(inst, alloc, envy, eps)


def build_ef1_lp(
    inst: Instance, alloc: Allocation, witnesses: Mapping[tuple[int, int], int]
) -> LpModel:
    """LP for the best EF1 revenue consistent with the given removable tasks.

    A witness is required for every pair (i, j) whose envied bundle S_j is
    nonempty, including an i with an empty bundle: witnesses[(i, j)] is the
    task dropped from S_j in agent i's comparison and must lie in S_j.
    Pairs with S_j empty impose no row.
    """
    bundles = alloc.bundles()
    envy = []
    for i, j in permutations(range(alloc.n_agents), 2):
        if bundles[j]:
            if (w := witnesses.get((i, j))) not in bundles[j]:
                raise InvalidInstanceError(
                    f"pair ({i},{j}) needs a witness task inside S_{j}, got {w}"
                )
            envy.append((i, j, w))
    return _contract_lp(inst, alloc, envy)


def build_efs_lp(inst: Instance, alloc: Allocation) -> LpModel:
    """LP with per-agent subsidy variables: maximize revenue minus subsidies
    subject to envy-freeness-with-subsidies.

    This is the fixed-allocation core of the subsidy-to-EF reduction: the
    added unit tasks of the reduction only ever matter through each agent's
    total payment on them, which this LP models directly as s_i.
    """
    envy = [(i, j, None) for i, j in permutations(range(inst.n), 2)]
    return _contract_lp(inst, alloc, envy, subsidized=True)


def solve_lp(model: LpModel) -> LpSolution:
    """Solve with the exact simplex; deterministic given the model.  An
    optimum comes certified: the simplex checks the point against every row
    and the dual bound against its value."""
    status, x, value, pivots = simplex.maximize(model.n_vars, model.objective, model.rows)
    if status != simplex.OPTIMAL:
        return LpSolution(status, (), None, pivots)
    return LpSolution(status, tuple(x), value + model.objective_const, pivots)


def contract_from_solution(sol: LpSolution, alloc: Allocation) -> Contract:
    """The optimal contract: alpha[0..m-1], plus the subsidies when the
    solution has the EFS layout's subsidy variables."""
    base = alloc.m * (alloc.n_agents + 1)
    subsidies = sol.x[base:] if len(sol.x) > base else None
    return Contract(alloc, sol.x[: alloc.m], subsidies)
