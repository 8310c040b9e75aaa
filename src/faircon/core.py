"""Instance/contract data model, exact utility arithmetic, and fairness verifiers.

The model: a principal delegates m tasks to n agents.  Task j assigned to
agent i succeeds with probability p[i][j] after the agent sinks cost c[i][j];
success pays the principal r[j], of which a fraction alpha[j] goes to the
agent.  A full-allocation contract assigns every task and keeps every
assigned pair individually rational (IR).  Instance checks and fairness
verdicts run in integers over one common denominator (`Instance.scaled`).
"""

from __future__ import annotations

import math
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
    products p[i][j] * r[j], and `scaled` pr and c in integers, both built once.
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
                if not (0 <= x.numerator <= x.denominator):
                    raise InvalidInstanceError(f"entry {x} outside [0, 1]")
        pr = tuple(tuple(p * r for p, r in zip(row, self.r)) for row in self.p)
        object.__setattr__(self, "pr", pr)
        _, pr, c = self.scaled
        for j in range(m):
            if all(pr[i][j] < c[i][j] for i in range(n)):
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
    def scaled(self) -> tuple[int, tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
        """(D, pr * D, c * D) in ints, D the lcm of every pr and c denominator (built once)."""
        rows = (*self.pr, *self.c)
        d = math.lcm(*(x.denominator for row in rows for x in row))
        ints = tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in rows)
        return d, ints[: self.n], ints[self.n :]

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
    """Expected principal revenue sum (1-alpha_j) p r, net of subsidies,
    summed in ints over `Instance.scaled`'s D and the alpha and subsidy denominators."""
    _check_dims(inst, k)
    d, pr, _ = inst.scaled
    a = math.lcm(*(x.denominator for x in k.alpha))
    subs = k.subsidies or ()
    den = math.lcm(d * a, *(x.denominator for x in subs))
    pairs = enumerate(zip(k.assignment, k.alpha))
    kept = sum((a - x.numerator * (a // x.denominator)) * pr[i][j] for j, (i, x) in pairs)
    paid = sum(x.numerator * (den // x.denominator) for x in subs)
    return Fraction(kept * (den // (d * a)) - paid, den)


def utilities(inst: Instance, alpha: Sequence[Fraction]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The n x m utility matrix alpha_j p_ij r_j - c_ij under contract vector
    alpha, as ints (L, U): U = utility * L, L = D * lcm(alpha denominators)
    with D from `Instance.scaled`.  Every fairness notion compares row sums."""
    d, pr, c = inst.scaled
    a = math.lcm(*(x.denominator for x in alpha))
    s = [x.numerator * (a // x.denominator) for x in alpha]
    return d * a, tuple(tuple(x * p - a * y for x, p, y in zip(s, *rows)) for rows in zip(pr, c))


def fairness_report(inst: Instance, k: Contract, eps: Num = 0, tol: Num = 0) -> FairnessReport:
    """Every notion's verdict, with slacks, from one utility matrix.

    Agent i's own sum is the plain sum over S_i under IR and clamps each
    task at 0 otherwise (the general envy form, recorded in lhs_form); its
    sum over another bundle S_j always clamps.  EF1 drops the first best
    task of S_j (witness None for an empty S_j, which passes).  EFS adds
    the subsidies to both sides.  A negative eps or tol is rejected.  Sums,
    clamps and verdicts stay in `utilities`' integers over L: a slack x / L
    passes tolerance t when x * t.denominator >= -t.numerator * L.
    """
    _check_dims(inst, k)
    tol, eps = as_fraction(tol), as_fraction(eps)
    for name, x in (("eps", eps), ("tol", tol)):
        if x < 0:
            raise InvalidInstanceError(f"{name} must be nonnegative")
    scale, u = utilities(inst, k.alpha)
    n, bundles, s = inst.n, k.allocation.bundles(), k.subsidies

    def passes(xs, t: Fraction, den: int = 1) -> bool:  # every x / (scale * den) >= -t
        bar = -t.numerator * scale * den
        return all(x * t.denominator >= bar for x in xs)
    ir = {(i, j): u[i][j] for j, i in enumerate(k.assignment)}
    ir_ok = passes(ir.values(), tol)
    gains = [[x if x > 0 else 0 for x in row] for row in u]
    own = [sum((u if ir_ok else gains)[i][t] for t in bundles[i]) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    envy = {(i, j): own[i] - sum(gains[i][t] for t in bundles[j]) for i, j in pairs}
    witnesses = {  # max keeps the first of ties
        (i, j): max(bundles[j], key=gains[i].__getitem__) if bundles[j] else None for i, j in pairs
    }
    if s is not None:  # the subsidies over their own common denominator
        den = math.lcm(*(x.denominator for x in s))
        sub = [x.numerator * (den // x.denominator) for x in s]
        efs = (x * den + (sub[i] - sub[j]) * scale for (i, j), x in envy.items())
    ef1 = (envy[i, j] + gains[i][w] for (i, j), w in witnesses.items() if w is not None)
    return FairnessReport(
        tolerance=tol,
        epsilon=eps,
        ir_ok=ir_ok,
        ir_slacks={key: Fraction(x, scale) for key, x in ir.items()},
        ef_ok=passes(envy.values(), tol),
        ef_slacks=tuple(
            tuple(Fraction(envy.get((i, j), 0), scale) for j in range(n)) for i in range(n)
        ),
        eps_ef_ok=passes(envy.values(), eps + tol),
        ef1_ok=passes(ef1, tol),
        ef1_witnesses=witnesses,
        efs_ok=None if s is None else passes(efs, tol, den),
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
    d, pr, c = inst.scaled
    return Fraction(sum(max(0, *(p[j] - q[j] for p, q in zip(pr, c))) for j in range(inst.m)), d)
