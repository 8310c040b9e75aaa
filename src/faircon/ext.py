"""Heuristics and extensions: round-robin EF1 and the subsidy reduction.

round_robin_ef1 carries a provable guarantee: its revenue is at least a
1/n^2 fraction of the unconstrained optimum.  The subsidy helpers convert
between the original instance and an augmented one with extra unit tasks
(p=1, c=0, r=1 for everyone) whose payments act as subsidies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Allocation,
    Contract,
    Instance,
    SolveResult,
    greedy_ef,
    minimum_wage,
    revenue,
    utilities,
)
from .errors import DimensionMismatchError, FairconError
from .numeric import ONE, ZERO


def round_robin_ef1(inst: Instance) -> SolveResult:
    """EF1 contract from round-robin picking.

    Contracts are fixed first: each task pays the most productive agent's
    wage (the agent maximizing total welfare), or greedy EF's wage, the
    cheapest viable one, where that agent has negative welfare.  Agents
    then take turns picking their favorite remaining task, most productive
    agent first, skipping tasks that are not IR for them; ties go to the
    principal's revenue, then to the lowest task index.  Every task is IR,
    at utility 0, for the agent whose wage it pays, so every round assigns
    a task.
    """
    n, m = inst.n, inst.m
    star = max(range(n), key=lambda i: (sum((max(inst.welfare(i, j), ZERO) for j in range(m)), ZERO), -i))
    cheapest = greedy_ef(inst).alpha
    alphas = [
        minimum_wage(inst, star, j) if inst.welfare(star, j) >= 0 else cheapest[j]
        for j in range(m)
    ]

    u = utilities(inst, alphas)
    order = [star] + [i for i in range(n) if i != star]
    assignment: list[int | None] = [None] * m
    remaining = set(range(m))
    while remaining:
        left = len(remaining)
        for i in order:
            candidates = [j for j in remaining if u[i][j] >= 0]
            if not candidates:
                continue  # agent passes: nothing IR for it remains
            best = max(
                candidates,
                key=lambda j: (u[i][j], (1 - alphas[j]) * inst.pr[i][j], -j),
            )
            assignment[best] = i
            remaining.discard(best)
        if len(remaining) == left:
            raise FairconError("round robin failed to allocate every task")
    contract = Contract(Allocation(tuple(assignment), n), tuple(alphas))
    return SolveResult(
        contract, revenue(inst, contract), "round-robin", {"first_agent": star}
    )


@dataclass(frozen=True)
class AugmentMap:
    """Bookkeeping for the subsidy reduction: which tasks were added."""

    original_m: int
    n_agents: int

    @property
    def added(self) -> tuple[int, ...]:
        extra = self.original_m + self.n_agents
        return tuple(range(self.original_m, self.original_m + extra))


def efs_augment(inst: Instance) -> tuple[Instance, AugmentMap]:
    """Add m+n unit tasks (reward 1, success certain, cost 0 for everybody);
    payments on them stand in for subsidies."""
    extra = inst.m + inst.n
    r = inst.r + (ONE,) * extra
    p = tuple(row + (ONE,) * extra for row in inst.p)
    c = tuple(row + (ZERO,) * extra for row in inst.c)
    return Instance(r, p, c), AugmentMap(inst.m, inst.n)


def embed_subsidized(contract: Contract, mapping: AugmentMap) -> Contract:
    """Materialize a subsidized contract on the augmented instance.

    Agent i receives ceil(s_i) added tasks: floor(s_i) fully paid plus one
    carrying the fractional remainder; leftovers go to agent 0 unpaid, so
    each agent's added-task payments total exactly s_i.
    """
    m, n = mapping.original_m, mapping.n_agents
    if contract.allocation.m != m or contract.allocation.n_agents != n:
        raise DimensionMismatchError("contract does not match the mapping")
    subs = contract.subsidies or (ZERO,) * n
    total_needed = sum(math.ceil(s) for s in subs)
    added = list(mapping.added)
    if total_needed > len(added):
        raise FairconError(
            f"subsidies need {total_needed} added tasks, only {len(added)} exist"
        )
    assignment = list(contract.assignment)
    alphas = list(contract.alpha)
    cursor = 0
    for i, s in enumerate(subs):
        whole, frac = int(s), s - int(s)
        for _ in range(whole):
            assignment.append(i)
            alphas.append(ONE)
            cursor += 1
        if frac > 0:
            assignment.append(i)
            alphas.append(frac)
            cursor += 1
    while cursor < len(added):
        assignment.append(0)
        alphas.append(ZERO)
        cursor += 1
    return Contract(Allocation(tuple(assignment), n), tuple(alphas))


def extract_subsidies(aug_contract: Contract, mapping: AugmentMap) -> Contract:
    """Map an augmented-instance contract back: drop the added tasks and
    record each agent's payments on them as its subsidy."""
    m, n = mapping.original_m, mapping.n_agents
    expected = m + len(mapping.added)
    if aug_contract.allocation.m != expected or aug_contract.allocation.n_agents != n:
        raise DimensionMismatchError("augmented contract does not match the mapping")
    subs = [ZERO] * n
    for k in mapping.added:
        i = aug_contract.assignment[k]
        subs[i] += aug_contract.alpha[k]  # p = r = 1 on added tasks
    return Contract(
        Allocation(aug_contract.assignment[:m], n),
        aug_contract.alpha[:m],
        tuple(subs),
    )
