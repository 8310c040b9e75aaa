"""Instance/contract data model, exact utility arithmetic, and fairness verifiers.

The model: a principal delegates m tasks to n agents.  Task j assigned to
agent i succeeds with probability p[i][j] after the agent sinks cost c[i][j];
success pays the principal r[j], of which a fraction alpha[j] goes to the
agent.  A full-allocation contract assigns every task and keeps every
assigned pair individually rational (IR).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import DimensionMismatchError, InvalidInstanceError, NoViableAgentError
from .numeric import INF_WAGE, Num, ZERO, as_fraction


def _rational_row(row: Iterable[Num]) -> tuple[Fraction, ...]:
    return tuple(as_fraction(x) for x in row)


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
        object.__setattr__(self, "r", _rational_row(self.r))
        object.__setattr__(self, "p", tuple(_rational_row(row) for row in self.p))
        object.__setattr__(self, "c", tuple(_rational_row(row) for row in self.c))
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
        return [i for i in range(self.n) if self.welfare(i, j) >= 0]


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
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
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
        object.__setattr__(self, "alpha", _rational_row(self.alpha))
        if len(self.alpha) != self.allocation.m:
            raise DimensionMismatchError("alpha length must equal task count")
        for j, a in enumerate(self.alpha):
            if not (0 <= a <= 1):
                raise InvalidInstanceError(f"alpha[{j}]={a} outside [0, 1]")
        if self.subsidies is not None:
            subs = _rational_row(self.subsidies)
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


class _EnvyTerms(NamedTuple):
    """What every verifier reads off one utility matrix.  own[i] sums
    agent i's own bundle, clamping each task at 0 when IR fails (the general
    envy form); switch[i][j] sums max(u, 0) of agent i over S_j; drop[i][j]
    is (task, gain) for the first best task of S_j, or None if S_j is empty.
    """

    ir_ok: bool
    ir_slacks: dict
    own: list
    switch: list
    drop: list


def _envy_terms(u, k: Contract, tol, zero=ZERO) -> _EnvyTerms:
    """IR slacks and envy sums from a utility matrix, exact or float alike
    (zero is the additive identity of the entries)."""
    ir_slacks = {(i, j): u[i][j] for j, i in enumerate(k.assignment)}
    ir_ok = all(s >= -tol for s in ir_slacks.values())
    gains = [[max(x, zero) for x in row] for row in u]
    lhs = u if ir_ok else gains
    bundles = k.allocation.bundles()
    own = [sum((lhs[i][t] for t in bundles[i]), zero) for i in range(len(u))]
    switch = [[sum((row[t] for t in b), zero) for b in bundles] for row in gains]
    drop = [[_best_drop(row, b) for b in bundles] for row in gains]
    return _EnvyTerms(ir_ok, ir_slacks, own, switch, drop)


def _best_drop(gains, bundle):
    if not bundle:
        return None
    task = max(bundle, key=gains.__getitem__)  # max keeps the first of ties
    return task, gains[task]


def _contract_terms(inst: Instance, k: Contract, tol: Fraction) -> _EnvyTerms:
    _check_dims(inst, k)
    return _envy_terms(utilities(inst, k.alpha), k, tol)


def _pairs(n: int):
    return ((i, j) for i in range(n) for j in range(n) if i != j)


def _ef_slacks(t: _EnvyTerms) -> tuple[tuple[Fraction, ...], ...]:
    """slack[i][j] = LHS_i - RHS_{i->j}, with slack[i][i] = 0."""
    n = len(t.own)
    return tuple(
        tuple(ZERO if i == j else t.own[i] - t.switch[i][j] for j in range(n))
        for i in range(n)
    )


def _eps_ef_ok(slacks, eps: Fraction, tol: Fraction) -> bool:
    if eps < 0:
        raise InvalidInstanceError("eps must be nonnegative")
    return all(slacks[i][j] >= -eps - tol for i, j in _pairs(len(slacks)))


def _ef1(t: _EnvyTerms, tol) -> tuple[bool, dict[tuple[int, int], Optional[int]]]:
    """The EF1 comparison: dropping the best task of each envied bundle
    must remove the envy (empty bundles pass with witness None)."""
    ok = True
    witnesses: dict[tuple[int, int], Optional[int]] = {}
    for i, j in _pairs(len(t.own)):
        if t.drop[i][j] is None:
            witnesses[(i, j)] = None
            continue
        task, gain = t.drop[i][j]
        witnesses[(i, j)] = task
        if t.own[i] < t.switch[i][j] - gain - tol:
            ok = False
    return ok, witnesses


def _efs_ok(t: _EnvyTerms, s: tuple[Fraction, ...], tol: Fraction) -> bool:
    return all(t.own[i] + s[i] >= t.switch[i][j] + s[j] - tol for i, j in _pairs(len(t.own)))


def verify_ir(inst: Instance, k: Contract, tol: Num = 0) -> tuple[bool, dict[tuple[int, int], Fraction]]:
    """Check alpha_j p r - c >= 0 for every assigned pair; returns slacks."""
    t = _contract_terms(inst, k, as_fraction(tol))
    return t.ir_ok, t.ir_slacks


def verify_ef(
    inst: Instance, k: Contract, tol: Num = 0
) -> tuple[bool, tuple[tuple[Fraction, ...], ...]]:
    """Envy-freeness: every agent prefers its own bundle to any other's.

    Under IR the left side is the plain sum alpha p r - c over the own
    bundle; if IR fails the general clamped form is used instead (the
    report from fairness_report records which).  Returns (ok, slack
    matrix) with slack[i][j] = LHS_i - RHS_{i->j} and slack[i][i] = 0.
    """
    tol = as_fraction(tol)
    slacks = _ef_slacks(_contract_terms(inst, k, tol))
    return _eps_ef_ok(slacks, ZERO, tol), slacks


def verify_eps_ef(inst: Instance, k: Contract, eps: Num, tol: Num = 0) -> bool:
    """Envy-freeness with the right side relaxed by eps >= 0."""
    tol = as_fraction(tol)
    return _eps_ef_ok(_ef_slacks(_contract_terms(inst, k, tol)), as_fraction(eps), tol)


def verify_ef1(
    inst: Instance, k: Contract, tol: Num = 0
) -> tuple[bool, dict[tuple[int, int], Optional[int]]]:
    """Envy-free up to one task: for each pair, dropping the single most
    attractive task of the envied bundle must remove the envy.

    Empty envied bundles are vacuously fine (witness None).  Witnesses are
    the dropped tasks, always members of the envied bundle.
    """
    tol = as_fraction(tol)
    return _ef1(_contract_terms(inst, k, tol), tol)


def verify_efs(inst: Instance, k: Contract, tol: Num = 0) -> bool:
    """Envy-freeness with per-agent subsidies added to both sides."""
    _check_dims(inst, k)
    if k.subsidies is None:
        raise InvalidInstanceError("contract has no subsidies; EFS needs them")
    tol = as_fraction(tol)
    return _efs_ok(_contract_terms(inst, k, tol), k.subsidies, tol)


def fairness_report(inst: Instance, k: Contract, eps: Num = 0, tol: Num = 0) -> FairnessReport:
    """Every notion's verdict, with slacks, from one utility matrix.

    A negative eps is rejected as in verify_eps_ef."""
    tol = as_fraction(tol)
    eps = as_fraction(eps)
    t = _contract_terms(inst, k, tol)
    slacks = _ef_slacks(t)
    ef_ok = _eps_ef_ok(slacks, ZERO, tol)
    ef1_ok, witnesses = _ef1(t, tol)
    return FairnessReport(
        tolerance=tol,
        epsilon=eps,
        ir_ok=t.ir_ok,
        ir_slacks=t.ir_slacks,
        ef_ok=ef_ok,
        ef_slacks=slacks,
        eps_ef_ok=_eps_ef_ok(slacks, eps, tol),
        ef1_ok=ef1_ok,
        ef1_witnesses=witnesses,
        efs_ok=_efs_ok(t, k.subsidies, tol) if k.subsidies is not None else None,
        lhs_form="simplified" if t.ir_ok else "clamped",
    )


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
        best_i, best_w = None, None
        for i in inst.viable_agents(j):
            w = minimum_wage(inst, i, j)
            if best_w is None or w < best_w:
                best_i, best_w = i, w
        assignment.append(best_i)
        # p*r = 0 inside the viable set forces c = 0; alpha 0 maximizes revenue.
        alphas.append(ZERO if inst.pr[best_i][j] == 0 else as_fraction(best_w))
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
