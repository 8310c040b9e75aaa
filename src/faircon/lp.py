"""Linear programs for optimal contracts on a fixed allocation.

The envy constraints' inner max{alpha p r - c, 0} terms are linearized with
auxiliary variables t[i,k] >= max(alpha_k p_ik r_k - c_ik, 0); at an optimum
the t take exactly the clamped values, so the LP optimum matches the clamped
program.  Variants: plain EF, EF relaxed by eps, EF1 with a chosen
removable task per pair (an agent with an empty bundle included), and
EF-with-subsidies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional

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
    EFS model, the subsidy s[i] at m + n*m + i.  The contract models end
    with the m rows -alpha[j] >= -1.
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


class _Builder:
    """The variable layout and the rows every contract LP shares: the
    revenue objective, the IR rows and the t-definition rows."""

    def __init__(self, inst: Instance, alloc: Allocation, subsidized: bool = False):
        if alloc.m != inst.m or alloc.n_agents != inst.n:
            raise InvalidInstanceError("allocation does not match instance")
        n, m = inst.n, inst.m
        self.inst = inst
        self.bundles = alloc.bundles()
        self.subsidized = subsidized
        self.objective: dict[int, Fraction] = {}
        self.const = ZERO
        self.rows: list[LpRow] = []
        for j, i in enumerate(alloc.assignment):
            pr = inst.pr[i][j]
            self.const += pr
            self.objective[j] = -pr
            self.rows.append(LpRow({j: pr}, inst.c[i][j]))
        if subsidized:
            for i in range(n):
                self.objective[self.s(i)] = -ONE
        for i in range(n):
            for k in range(m):
                self.rows.append(LpRow({self.t(i, k): ONE, k: -inst.pr[i][k]}, -inst.c[i][k]))

    def t(self, i: int, k: int) -> int:
        return self.inst.m + i * self.inst.m + k

    def s(self, i: int) -> int:
        return self.inst.m * (self.inst.n + 1) + i

    def envy_row(self, i: int, j: int, exclude: Optional[int] = None, relax: Fraction = ZERO) -> None:
        """sum_{k in S_i} alpha_k p r - sum_{k in S_j minus exclude} t_{i,k}
        (+ s_i - s_j when subsidized) >= sum_{k in S_i} c - relax."""
        coeffs: dict[int, Fraction] = {}
        rhs = -relax
        for k in self.bundles[i]:
            coeffs[k] = self.inst.pr[i][k]
            rhs += self.inst.c[i][k]
        for k in self.bundles[j]:
            if k != exclude:
                coeffs[self.t(i, k)] = -ONE
        if self.subsidized:
            coeffs[self.s(i)] = ONE
            coeffs[self.s(j)] = -ONE
        self.rows.append(LpRow(coeffs, rhs))

    def model(self) -> LpModel:
        n_vars = self.s(0) + (self.inst.n if self.subsidized else 0)
        bounds = [LpRow({j: -ONE}, -ONE) for j in range(self.inst.m)]
        return LpModel(n_vars, self.objective, self.const, self.rows + bounds)


def build_ef_lp(inst: Instance, alloc: Allocation, eps: Num = 0) -> LpModel:
    """LP whose optimum is the best eps-envy-free revenue for this allocation
    (eps=0 gives plain envy-freeness)."""
    eps = as_fraction(eps)
    if eps < 0:
        raise InvalidInstanceError("eps must be nonnegative")
    b = _Builder(inst, alloc)
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j:
                b.envy_row(i, j, relax=eps)
    return b.model()


def build_ef1_lp(
    inst: Instance, alloc: Allocation, witnesses: Mapping[tuple[int, int], int]
) -> LpModel:
    """LP for the best EF1 revenue consistent with the given removable tasks.

    A witness is required for every pair (i, j) whose envied bundle S_j is
    nonempty, including an i with an empty bundle: witnesses[(i, j)] is the
    task dropped from S_j in agent i's comparison and must lie in S_j.
    Pairs with S_j empty impose no row.
    """
    b = _Builder(inst, alloc)
    bundles = b.bundles
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j or not bundles[j]:
                continue
            w = witnesses.get((i, j))
            if w is None or w not in bundles[j]:
                raise InvalidInstanceError(
                    f"pair ({i},{j}) needs a witness task inside S_{j}, got {w}"
                )
            b.envy_row(i, j, exclude=w)
    return b.model()


def build_efs_lp(inst: Instance, alloc: Allocation) -> LpModel:
    """LP with per-agent subsidy variables: maximize revenue minus subsidies
    subject to envy-freeness-with-subsidies.

    This is the fixed-allocation core of the subsidy-to-EF reduction: the
    added unit tasks of the reduction only ever matter through each agent's
    total payment on them, which this LP models directly as s_i.
    """
    b = _Builder(inst, alloc, subsidized=True)
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j:
                b.envy_row(i, j)
    return b.model()


def solve_lp(model: LpModel) -> LpSolution:
    """Solve with the exact simplex; deterministic given the model.

    Models are built from Fractions, so the returned point must satisfy
    every row exactly; the self-check holds it to that.
    """
    status, x, value, pivots = simplex.maximize(model.n_vars, model.objective, model.rows)
    if status != simplex.OPTIMAL:
        return LpSolution(status, (), None, pivots)
    for r, (coeffs, rhs) in enumerate(model.rows):
        if sum((v * x[k] for k, v in coeffs.items()), ZERO) < rhs:
            raise AssertionError(f"simplex returned infeasible point at row {r}")
    if any(v < 0 for v in x):
        raise AssertionError("simplex returned a negative variable")
    return LpSolution(simplex.OPTIMAL, tuple(x), value + model.objective_const, pivots)


def contract_from_solution(sol: LpSolution, alloc: Allocation) -> Contract:
    """The optimal contract: alpha[0..m-1], plus the subsidies when the
    solution has the EFS layout's subsidy variables."""
    base = alloc.m * (alloc.n_agents + 1)
    subsidies = sol.x[base:] if len(sol.x) > base else None
    return Contract(alloc, sol.x[: alloc.m], subsidies)
