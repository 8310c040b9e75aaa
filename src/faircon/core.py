"""Instance/contract data model, exact utility arithmetic, and fairness verifiers.

The model: a principal delegates m tasks to n agents.  Task j assigned to
agent i succeeds with probability p[i][j] after the agent sinks cost c[i][j];
success pays the principal r[j], of which a fraction alpha[j] goes to the
agent.  A full-allocation contract assigns every task and keeps every
assigned pair individually rational (IR).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import DimensionMismatchError, InvalidInstanceError, NoViableAgentError
from .numeric import INF_WAGE, Num, ZERO, as_fraction, as_int, as_vector


@dataclass(frozen=True)
class Instance:
    """Agents x tasks with success probabilities, costs, and rewards.

    All entries must lie in [0, 1], and every task must have at least one
    agent with nonnegative welfare p*r - c (otherwise the task could never
    be allocated; construction raises NoViableAgentError).  `pr` holds the
    products p[i][j] * r[j], derived once on construction.
    """

    r: tuple[Fraction, ...]
    p: tuple[tuple[Fraction, ...], ...]
    c: tuple[tuple[Fraction, ...], ...]
    pr: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "r", as_vector(self.r, as_fraction))
        object.__setattr__(self, "p", tuple(as_vector(row, as_fraction) for row in self.p))
        object.__setattr__(self, "c", tuple(as_vector(row, as_fraction) for row in self.c))
        n, m = len(self.p), len(self.r)
        if n < 1 or m < 1:
            raise InvalidInstanceError("need at least one agent and one task")
        if len(self.c) != n or any(len(row) != m for row in self.p) or any(
            len(row) != m for row in self.c
        ):
            raise InvalidInstanceError("p and c must be n x m, r length m")
        for vec in (self.r, *self.p, *self.c):
            for x in vec:
                if not (0 <= x <= 1):
                    raise InvalidInstanceError(f"entry {x} outside [0, 1]")
        pr = tuple(tuple(p * r for p, r in zip(row, self.r)) for row in self.p)
        object.__setattr__(self, "pr", pr)
        for j in range(m):
            if all(self.welfare(i, j) < 0 for i in range(n)):
                raise NoViableAgentError(j)

    @property
    def n(self) -> int:
        return len(self.p)

    @property
    def m(self) -> int:
        return len(self.r)

    def welfare(self, i: int, j: int) -> Fraction:
        """p*r - c for the pair: the surplus the pair can generate."""
        return self.pr[i][j] - self.c[i][j]

    def viable_agents(self, j: int) -> list[int]:
        """Agents with nonnegative welfare on task j (nonempty by construction)."""
        return [i for i in range(self.n) if self.pr[i][j] >= self.c[i][j]]

    @cached_property
    def viable_wages(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per task, each viable agent's minimum wage, in agent order (built once)."""
        rows = (self.viable_agents(j) for j in range(self.m))
        return tuple(tuple(minimum_wage(self, i, j) for i in row) for j, row in enumerate(rows))


def minimum_wage(inst: Instance, i: int, j: int) -> Fraction | float:
    """Smallest alpha making task j individually rational for agent i.

    c/(p*r) when p*r > 0; 0 when the cost is already 0; otherwise the
    INF_WAGE sentinel (the agent can never be incentivized).
    """
    pr = inst.pr[i][j]
    if inst.c[i][j] == 0:
        return ZERO
    if pr > 0:
        return inst.c[i][j] / pr
    return INF_WAGE


@dataclass(frozen=True)
class Allocation:
    """Full allocation: task j is assigned to agent assignment[j]."""

    assignment: tuple[int, ...]
    n_agents: int

    def __post_init__(self):
        agents = as_vector(self.assignment, lambda a: as_int(a, "agent index"))
        object.__setattr__(self, "assignment", agents)
        if self.n_agents < 1:
            raise InvalidInstanceError("n_agents must be positive")
        for j, a in enumerate(self.assignment):
            if not (0 <= a < self.n_agents):
                raise InvalidInstanceError(f"task {j} assigned to invalid agent {a}")

    @property
    def m(self) -> int:
        return len(self.assignment)

    def bundles(self) -> list[list[int]]:
        """Tasks per agent (the sets S_i)."""
        out: list[list[int]] = [[] for _ in range(self.n_agents)]
        for j, a in enumerate(self.assignment):
            out[a].append(j)
        return out


@dataclass(frozen=True)
class Contract:
    """An allocation plus a per-task linear contract, optionally subsidies."""

    allocation: Allocation
    alpha: tuple[Fraction, ...]
    subsidies: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", as_vector(self.alpha, as_fraction))
        if len(self.alpha) != self.allocation.m:
            raise DimensionMismatchError("alpha length must equal task count")
        for j, a in enumerate(self.alpha):
            if not (0 <= a <= 1):
                raise InvalidInstanceError(f"alpha[{j}]={a} outside [0, 1]")
        if self.subsidies is not None:
            subs = as_vector(self.subsidies, as_fraction)
            object.__setattr__(self, "subsidies", subs)
            if len(subs) != self.allocation.n_agents:
                raise DimensionMismatchError("subsidies length must equal agent count")
            if any(s < 0 for s in subs):
                raise InvalidInstanceError("subsidies must be nonnegative")

    @property
    def assignment(self) -> tuple[int, ...]:
        return self.allocation.assignment


@dataclass(frozen=True)
class FairnessReport:
    """Verification results with slack values; slacks >= -tolerance pass."""

    tolerance: Fraction
    epsilon: Fraction
    ir_ok: bool
    ir_slacks: Mapping[tuple[int, int], Fraction]
    ef_ok: bool
    ef_slacks: tuple[tuple[Fraction, ...], ...]
    eps_ef_ok: bool
    ef1_ok: bool
    ef1_witnesses: Mapping[tuple[int, int], Optional[int]]
    lhs_form: str
    efs_ok: Optional[bool] = None  # only for contracts with subsidies


@dataclass(frozen=True)
class SolveResult:
    """A contract with its exact revenue and solver metadata."""

    contract: Contract
    revenue: Fraction
    method: str
    meta: dict = field(default_factory=dict)


def _check_dims(inst: Instance, k: Contract) -> None:
    if k.allocation.m != inst.m or k.allocation.n_agents != inst.n:
        raise DimensionMismatchError(
            f"contract is {k.allocation.n_agents}x{k.allocation.m}, "
            f"instance is {inst.n}x{inst.m}"
        )


def agent_task_utility(inst: Instance, i: int, j: int, alpha: Num) -> Fraction:
    """alpha * p[i][j] * r[j] - c[i][j]; may be negative, callers clamp."""
    if not (0 <= i < inst.n and 0 <= j < inst.m):
        raise IndexError(f"agent {i} / task {j} out of range")
    a = as_fraction(alpha)
    if not (0 <= a <= 1):
        raise InvalidInstanceError(f"alpha={a} outside [0, 1]")
    return a * inst.pr[i][j] - inst.c[i][j]


def revenue(inst: Instance, k: Contract) -> Fraction:
    """Expected principal revenue sum (1-alpha_j) p r, net of subsidies."""
    _check_dims(inst, k)
    total = ZERO
    for j, i in enumerate(k.assignment):
        total += (1 - k.alpha[j]) * inst.pr[i][j]
    if k.subsidies is not None:
        total -= sum(k.subsidies, ZERO)
    return total


def utilities(inst: Instance, alpha: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], ...]:
    """The n x m utility matrix alpha_j p_ij r_j - c_ij under contract vector
    alpha: every fairness notion compares sums over its rows."""
    return tuple(
        tuple(a * pr - c for a, pr, c in zip(alpha, pr_row, c_row))
        for pr_row, c_row in zip(inst.pr, inst.c)
    )


def fairness_report(inst: Instance, k: Contract, eps: Num = 0, tol: Num = 0) -> FairnessReport:
    """Every notion's verdict, with slacks, from one utility matrix.

    Agent i's own sum is the plain sum over S_i under IR and clamps each
    task at 0 otherwise (the general envy form, recorded in lhs_form); its
    sum over another bundle S_j always clamps.  EF1 drops the first best
    task of S_j (witness None for an empty S_j, which passes).  EFS adds
    the subsidies to both sides.  A negative eps or tol is rejected.
    """
    _check_dims(inst, k)
    tol, eps = as_fraction(tol), as_fraction(eps)
    if eps < 0:
        raise InvalidInstanceError("eps must be nonnegative")
    if tol < 0:
        raise InvalidInstanceError("tol must be nonnegative")
    u = utilities(inst, k.alpha)
    n, bundles, s = inst.n, k.allocation.bundles(), k.subsidies
    ir_slacks = {(i, j): u[i][j] for j, i in enumerate(k.assignment)}
    ir_ok = all(x >= -tol for x in ir_slacks.values())
    gains = [[max(x, ZERO) for x in row] for row in u]
    lhs = u if ir_ok else gains
    own = [sum((lhs[i][t] for t in bundles[i]), ZERO) for i in range(n)]
    slacks = tuple(
        tuple(
            ZERO if i == j else own[i] - sum((gains[i][t] for t in bundles[j]), ZERO)
            for j in range(n)
        )
        for i in range(n)
    )
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    witnesses = {  # max keeps the first of ties
        (i, j): max(bundles[j], key=gains[i].__getitem__) if bundles[j] else None for i, j in pairs
    }
    return FairnessReport(
        tolerance=tol,
        epsilon=eps,
        ir_ok=ir_ok,
        ir_slacks=ir_slacks,
        ef_ok=all(slacks[i][j] >= -tol for i, j in pairs),
        ef_slacks=slacks,
        eps_ef_ok=all(slacks[i][j] >= -eps - tol for i, j in pairs),
        ef1_ok=all(
            w is None or slacks[i][j] + gains[i][w] >= -tol for (i, j), w in witnesses.items()
        ),
        ef1_witnesses=witnesses,
        efs_ok=None if s is None else all(slacks[i][j] + s[i] - s[j] >= -tol for i, j in pairs),
        lhs_form="simplified" if ir_ok else "clamped",
    )


def verify_ir(inst: Instance, k: Contract, tol: Num = 0) -> tuple[bool, dict[tuple[int, int], Fraction]]:
    """Check alpha_j p r - c >= 0 for every assigned pair; returns slacks."""
    rep = fairness_report(inst, k, tol=tol)
    return rep.ir_ok, rep.ir_slacks


def verify_ef(
    inst: Instance, k: Contract, tol: Num = 0
) -> tuple[bool, tuple[tuple[Fraction, ...], ...]]:
    """Envy-freeness: every agent prefers its own bundle to any other's.

    Under IR the left side is the plain sum alpha p r - c over the own
    bundle; if IR fails the general clamped form is used instead (the
    report from fairness_report records which).  Returns (ok, slack
    matrix) with slack[i][j] = LHS_i - RHS_{i->j} and slack[i][i] = 0.
    """
    rep = fairness_report(inst, k, tol=tol)
    return rep.ef_ok, rep.ef_slacks


def verify_eps_ef(inst: Instance, k: Contract, eps: Num, tol: Num = 0) -> bool:
    """Envy-freeness with the right side relaxed by eps >= 0."""
    return fairness_report(inst, k, eps, tol).eps_ef_ok


def verify_ef1(
    inst: Instance, k: Contract, tol: Num = 0
) -> tuple[bool, dict[tuple[int, int], Optional[int]]]:
    """Envy-free up to one task: for each pair, dropping the single most
    attractive task of the envied bundle must remove the envy.

    Empty envied bundles are vacuously fine (witness None).  Witnesses are
    the dropped tasks, always members of the envied bundle.
    """
    rep = fairness_report(inst, k, tol=tol)
    return rep.ef1_ok, rep.ef1_witnesses


def verify_efs(inst: Instance, k: Contract, tol: Num = 0) -> bool:
    """Envy-freeness with per-agent subsidies added to both sides."""
    _check_dims(inst, k)
    if k.subsidies is None:
        raise InvalidInstanceError("contract has no subsidies; EFS needs them")
    return fairness_report(inst, k, tol=tol).efs_ok


def greedy_ef(inst: Instance) -> Contract:
    """Always-feasible envy-free contract: give each task to the agent with
    the smallest incentive wage c/(p r) among nonnegative-welfare agents and
    pay exactly that wage.

    Every agent then earns exactly zero from any bundle, so the contract is
    envy-free with all slacks zero, and IR holds with equality.
    """
    assignment = []
    alphas = []
    for j in range(inst.m):
        # Ties go to the lowest agent; a viable agent with p*r = 0 has c = 0, so wage 0.
        best_w, best_i = min((minimum_wage(inst, i, j), i) for i in inst.viable_agents(j))
        assignment.append(best_i)
        alphas.append(best_w)
    alloc = Allocation(tuple(assignment), inst.n)
    return Contract(alloc, tuple(alphas))


def unconstrained_opt(inst: Instance) -> Fraction:
    """Best revenue with no fairness constraints: each task goes to the
    welfare-maximizing agent at the IR-binding contract."""
    total = ZERO
    for j in range(inst.m):
        best = max(inst.welfare(i, j) for i in range(inst.n))
        if best > 0:
            total += best
    return total
