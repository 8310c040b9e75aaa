"""Linear programs for optimal contracts on a fixed allocation.

The envy constraints' inner max{alpha p r - c, 0} terms are linearized with
auxiliary variables t[i,k] >= max(alpha_k p_ik r_k - c_ik, 0); at an optimum
the t take exactly the clamped values, so the LP optimum matches the clamped
program.  Variants: plain EF, EF relaxed by eps, EF1 with chosen removable
tasks and per-task contract upper bounds, and EF-with-subsidies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional

from . import simplex
from .core import Allocation, Instance
from .errors import InvalidInstanceError
from .numeric import Num, ONE, ZERO, as_fraction


@dataclass(frozen=True)
class LpRow:
    coeffs: dict[int, Fraction]
    sense: str  # '<=' or '>='
    rhs: Fraction
    tag: str


@dataclass
class LpModel:
    """maximize objective_const + objective . x  s.t. rows, 0 <= x (<= ub)."""

    var_names: list[str]
    objective: dict[int, Fraction]
    objective_const: Fraction
    rows: list[LpRow]
    upper_bounds: dict[int, Fraction] = field(default_factory=dict)

    @property
    def n_vars(self) -> int:
        return len(self.var_names)


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    values: dict[str, Fraction]
    objective: Optional[Fraction]

    @property
    def optimal(self) -> bool:
        return self.status == simplex.OPTIMAL


class _Builder:
    """Shared variable bookkeeping for the contract LPs."""

    def __init__(self, inst: Instance, alloc: Allocation):
        if alloc.m != inst.m or alloc.n_agents != inst.n:
            raise InvalidInstanceError("allocation does not match instance")
        self.inst = inst
        self.alloc = alloc
        self.names: list[str] = [f"alpha[{j}]" for j in range(inst.m)]
        self.names += [f"t[{i},{k}]" for i in range(inst.n) for k in range(inst.m)]
        self.rows: list[LpRow] = []
        self.ub: dict[int, Fraction] = {j: ONE for j in range(inst.m)}

    def alpha(self, j: int) -> int:
        return j

    def t(self, i: int, k: int) -> int:
        return self.inst.m + i * self.inst.m + k

    def add_var(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def revenue_objective(self) -> tuple[dict[int, Fraction], Fraction]:
        coeffs: dict[int, Fraction] = {}
        const = ZERO
        for j, i in enumerate(self.alloc.assignment):
            pr = self.inst.pr[i][j]
            const += pr
            if pr:
                coeffs[self.alpha(j)] = coeffs.get(self.alpha(j), ZERO) - pr
        return coeffs, const

    def add_ir_rows(self) -> None:
        for j, i in enumerate(self.alloc.assignment):
            self.rows.append(
                LpRow({self.alpha(j): self.inst.pr[i][j]}, ">=", self.inst.c[i][j], f"ir[{i},{j}]")
            )

    def add_tdef_rows(self) -> None:
        for i in range(self.inst.n):
            for k in range(self.inst.m):
                self.rows.append(
                    LpRow(
                        {self.t(i, k): ONE, self.alpha(k): -self.inst.pr[i][k]},
                        ">=",
                        -self.inst.c[i][k],
                        f"tdef[{i},{k}]",
                    )
                )

    def envy_row(self, i: int, j: int, exclude: Optional[int], relax: Fraction, tag: str) -> None:
        """sum_{k in S_i} alpha_k p r - sum_{k in S_j minus exclude} t_{i,k}
        >= sum_{k in S_i} c - relax."""
        bundles = self.alloc.bundles()
        coeffs: dict[int, Fraction] = {}
        rhs = -relax
        for k in bundles[i]:
            pr = self.inst.pr[i][k]
            if pr:
                coeffs[self.alpha(k)] = coeffs.get(self.alpha(k), ZERO) + pr
            rhs += self.inst.c[i][k]
        for k in bundles[j]:
            if k == exclude:
                continue
            coeffs[self.t(i, k)] = coeffs.get(self.t(i, k), ZERO) - ONE
        self.rows.append(LpRow(coeffs, ">=", rhs, tag))


def build_ef_lp(inst: Instance, alloc: Allocation, eps: Num = 0) -> LpModel:
    """LP whose optimum is the best eps-envy-free revenue for this allocation
    (eps=0 gives plain envy-freeness)."""
    eps = as_fraction(eps)
    if eps < 0:
        raise InvalidInstanceError("eps must be nonnegative")
    b = _Builder(inst, alloc)
    obj, const = b.revenue_objective()
    b.add_ir_rows()
    b.add_tdef_rows()
    for i in range(inst.n):
        for j in range(inst.n):
            if i != j:
                b.envy_row(i, j, None, eps, f"ef[{i},{j}]")
    return LpModel(b.names, obj, const, b.rows, b.ub)


def build_ef1_lp(
    inst: Instance,
    alloc: Allocation,
    witnesses: Mapping[tuple[int, int], int],
    upper_bounds: Mapping[int, Num] = {},
) -> LpModel:
    """LP for the best EF1 revenue consistent with the given removable tasks
    (for pairs of nonempty bundles) and contract upper bounds (covering the
    empty-bundle agents).

    witnesses[(i, j)] is the task dropped from S_j in agent i's comparison
    and must lie in S_j; pairs with an empty side impose no row here.
    """
    b = _Builder(inst, alloc)
    bundles = alloc.bundles()
    obj, const = b.revenue_objective()
    b.add_ir_rows()
    b.add_tdef_rows()
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j or not bundles[i] or not bundles[j]:
                continue
            w = witnesses.get((i, j))
            if w is None or w not in bundles[j]:
                raise InvalidInstanceError(
                    f"pair ({i},{j}) needs a witness task inside S_{j}, got {w}"
                )
            b.envy_row(i, j, w, ZERO, f"ef1[{i},{j}]")
    for k, bound in upper_bounds.items():
        b.ub[b.alpha(k)] = min(ONE, as_fraction(bound))
    return LpModel(b.names, obj, const, b.rows, b.ub)


def build_efs_lp(inst: Instance, alloc: Allocation) -> LpModel:
    """LP with per-agent subsidy variables: maximize revenue minus subsidies
    subject to envy-freeness-with-subsidies.

    This is the fixed-allocation core of the subsidy-to-EF reduction: the
    added unit tasks of the reduction only ever matter through each agent's
    total payment on them, which this LP models directly as s_i.
    """
    b = _Builder(inst, alloc)
    s_vars = [b.add_var(f"s[{i}]") for i in range(inst.n)]
    obj, const = b.revenue_objective()
    for v in s_vars:
        obj[v] = -ONE
    b.add_ir_rows()
    b.add_tdef_rows()
    for i in range(inst.n):
        for j in range(inst.n):
            if i == j:
                continue
            b.envy_row(i, j, None, ZERO, f"efs[{i},{j}]")
            row = b.rows[-1].coeffs
            row[s_vars[i]] = row.get(s_vars[i], ZERO) + ONE
            row[s_vars[j]] = row.get(s_vars[j], ZERO) - ONE
    return LpModel(b.names, obj, const, b.rows, b.ub)


def solve_lp(model: LpModel) -> LpSolution:
    """Solve with the exact simplex; deterministic given the model.

    Models are built from Fractions, so the returned point must satisfy
    every row and every bound exactly; the self-check holds it to that.
    """
    rows = [(r.coeffs, r.sense, r.rhs) for r in model.rows]
    tags = [r.tag for r in model.rows]
    for k, ub in sorted(model.upper_bounds.items()):
        rows.append(({k: ONE}, "<=", ub))
        tags.append(f"ub[{model.var_names[k]}]")
    status, x, value = simplex.maximize(model.n_vars, model.objective, rows)
    if status != simplex.OPTIMAL:
        return LpSolution(status, {}, None)
    for (coeffs, sense, rhs), tag in zip(rows, tags):
        lhs = sum((v * x[k] for k, v in coeffs.items()), ZERO)
        if (lhs < rhs) if sense == ">=" else (lhs > rhs):
            raise AssertionError(f"simplex returned infeasible point at {tag}")
    if any(v < 0 for v in x):
        raise AssertionError("simplex returned a negative variable")
    values = {name: x[k] for k, name in enumerate(model.var_names)}
    return LpSolution(simplex.OPTIMAL, values, value + model.objective_const)


def alphas_from_solution(model: LpModel, sol: LpSolution, m: int) -> tuple[Fraction, ...]:
    """Extract the per-task contract vector from an optimal solution."""
    return tuple(sol.values[f"alpha[{j}]"] for j in range(m))
