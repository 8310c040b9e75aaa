"""Generators for every instance family used in the analysis, plus random
samplers.

All constructions emit exact rationals so regression values (e.g. the
partition families' optimal revenues) can be checked with zero tolerance.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .core import Instance
from .errors import InvalidInstanceError
from .numeric import Num, ONE, ZERO, as_fraction, as_int, as_vector

RANDOM_DENOMINATOR = 64
PROFILES = ("uniform", "sparse-ability", "cost-heavy")


def _positive_ints(integers: Sequence[int]) -> tuple[int, ...]:
    ints = as_vector(integers, lambda x: as_int(x, "set entry"))
    if not ints or any(x <= 0 for x in ints):
        raise InvalidInstanceError("need a nonempty list of positive integers")
    return ints


def _partition(integers: Sequence[int], heads: Sequence[Fraction]) -> Instance:
    """Three-agent reduction from the partition problem: one high-value task
    per entry of `heads` that only agent 1 does well (agents 2 and 3 succeed
    on it with that entry's probability), plus one task per integer that
    only agents 2 and 3 can do."""
    ints = _positive_ints(integers)
    k, big = len(heads), 10 * sum(ints)
    r = (ONE,) * k + tuple(Fraction(x, big) for x in ints)
    p_head = (ONE,) * k + (ZERO,) * len(ints)
    p_rest = tuple(heads) + (ONE,) * len(ints)
    c_head = (Fraction(1, 2),) * k + (ZERO,) * len(ints)
    c_rest = (ZERO,) * (k + len(ints))
    return Instance(r, (p_head, p_rest, p_rest), (c_head, c_rest, c_rest))


def gen_partition_ef(integers: Sequence[int]) -> Instance:
    """Partition reduction for plain envy-freeness: one high-value task."""
    return _partition(integers, (Fraction(1, 10),))


def gen_partition_ef1(integers: Sequence[int]) -> Instance:
    """Partition reduction for EF1: two high-value tasks for agent 1, so a
    single removal cannot neutralize both."""
    return _partition(integers, (Fraction(1, 10), Fraction(1, 10)))


def gen_partition_eps_ef(integers: Sequence[int], eps: Num) -> Instance:
    """Partition reduction for eps-envy-freeness: like the EF1 family but
    the second high-value task is worth only 2*eps to agents 2 and 3."""
    eps = as_fraction(eps)
    if not (0 < eps < Fraction(1, 5)):
        raise InvalidInstanceError("eps must lie in (0, 1/5)")
    return _partition(integers, (Fraction(1, 10), 2 * eps))


def gen_two_agent_hard(integers: Sequence[int]) -> Instance:
    """Two-agent partition reduction: the optimum hits 1/2 + 1/10 exactly
    when an equal split of the integers exists."""
    ints = _positive_ints(integers)
    big = 5 * sum(ints)
    r = (ONE, ONE) + tuple(Fraction(x, big) for x in ints)
    p = (
        (ONE, Fraction(1, 10)) + (ONE,) * len(ints),
        (Fraction(1, 10), ZERO) + (Fraction(1, 2),) * len(ints),
    )
    c = (
        (Fraction(1, 2), ZERO) + (ZERO,) * len(ints),
        (ZERO,) * (len(ints) + 2),
    )
    return Instance(r, p, c)


def gen_independent_set(adjacency: Sequence[Sequence[int]], c_target: Num = 1) -> Instance:
    """Reduction from bounded-degree independent set: an efficient agent
    wants all vertex tasks, but edge agents punish adjacent pairs.

    Agents: the efficient agent first, then one per edge (sorted).  Tasks:
    one per vertex, then one per edge.  delta = 1/(8 c k^2) with k the max
    degree; c is the approximation constant the family targets.
    """
    adjacency = [as_vector(nbrs, lambda v: as_int(v, "vertex")) for nbrs in adjacency]
    n_v = len(adjacency)
    edges = sorted(
        {(min(u, v), max(u, v)) for u, nbrs in enumerate(adjacency) for v in nbrs}
    )
    for u, v in edges:
        if not (0 <= u < n_v and 0 <= v < n_v) or u == v:
            raise InvalidInstanceError(f"bad edge ({u},{v})")
    max_deg = max((len(set(nbrs)) for nbrs in adjacency), default=0)
    if max_deg < 1:
        raise InvalidInstanceError("graph needs max degree >= 1")
    c_target = as_fraction(c_target)
    if c_target < 1:
        raise InvalidInstanceError("approximation constant must be >= 1")
    delta = 1 / (8 * c_target * max_deg**2)

    n_agents = 1 + len(edges)
    r = [ONE] * n_v + [delta / 2] * len(edges)
    p = [[ZERO] * (n_v + len(edges)) for _ in range(n_agents)]
    c = [[ZERO] * (n_v + len(edges)) for _ in range(n_agents)]
    for v in range(n_v):
        p[0][v] = ONE
        c[0][v] = Fraction(1, 2)
        for e_idx, (a, b) in enumerate(edges):
            if v in (a, b):
                p[1 + e_idx][v] = delta
    for e_idx in range(len(edges)):
        p[1 + e_idx][n_v + e_idx] = ONE
    return Instance(tuple(r), tuple(map(tuple, p)), tuple(map(tuple, c)))


def gen_pof_sqrt(n: int) -> Instance:
    """Price-of-fairness family: unconstrained revenue floor(sqrt(n)) but
    every EF1 contract earns at most 2.

    floor(sqrt(n)) specialist agents can each handle one block of tasks at
    high cost; the remaining agents can do anything cheaply but badly, and
    their low incentive wage makes them envy loaded specialists.
    """
    n = as_int(n, "n")
    if n < 9:
        raise InvalidInstanceError("construction needs n >= 9")
    root = math.isqrt(n)
    m = n
    r = (ONE,) * m
    p = [[ZERO] * m for _ in range(n)]
    c = [[ONE] * m for _ in range(n)]
    for i in range(root - 1):  # block specialists
        for k in range(root):
            j = i * root + k
            p[i][j] = ONE
            c[i][j] = Fraction(root - 1, root)
    tail = n - root * (root - 1)
    for j in range(root * (root - 1), n):  # last specialist takes the rest
        p[root - 1][j] = ONE
        c[root - 1][j] = Fraction(tail - 1, tail)
    for i in range(root, n):  # generalists
        for j in range(m):
            p[i][j] = Fraction(2, n)
            c[i][j] = Fraction(1, n)
    return Instance(r, tuple(map(tuple, p)), tuple(map(tuple, c)))


def gen_example(example_id: str, eps: Num) -> Instance:
    """The worked single-task examples: '5.2'/'5.4' (two agents, price of
    envy-freeness 36 eps) and '5.7' (1/eps + 1 agents; subsidies fail)."""
    example_id, eps = str(example_id), as_fraction(eps)
    if eps <= 0:
        raise InvalidInstanceError("eps must be positive")
    if example_id in ("5.2", "5.4"):
        return Instance(
            r=(ONE,),
            p=((10 * eps,), (Fraction(1, 2),)),
            c=((eps,), (Fraction(1, 4),)),
        )
    if example_id == "5.7":
        count = ONE / eps
        if count.denominator != 1:
            raise InvalidInstanceError("1/eps must be an integer for example 5.7")
        n = int(count) + 1
        r = (ONE,)
        p = ((Fraction(1, 2),),) + ((2 * eps,),) * (n - 1)
        c = ((Fraction(1, 4),),) + ((ZERO,),) * (n - 1)
        return Instance(r, p, c)
    raise InvalidInstanceError(f"unknown example id {example_id!r}")


def gen_random(n: int, m: int, seed: int = 0, profile: str = "uniform") -> Instance:
    """Reproducible random instance on a 1/64 rational grid.

    Profiles: 'uniform' draws everything uniformly; 'sparse-ability' zeroes
    half the success probabilities; 'cost-heavy' draws costs from the upper
    half.  Tasks nobody can serve are repaired by re-drawing the cost of a
    random agent below its success value.
    """
    n, m = as_int(n, "n"), as_int(m, "m")
    if n < 1 or m < 1:
        raise InvalidInstanceError("need n, m >= 1")
    if profile not in PROFILES:
        raise InvalidInstanceError(f"unknown profile {profile!r}; pick from {PROFILES}")
    rng = random.Random(as_int(seed, "seed"))
    D = RANDOM_DENOMINATOR

    def draw() -> Fraction:
        return Fraction(rng.randint(0, D), D)

    r = [draw() for _ in range(m)]
    p = [[draw() for _ in range(m)] for _ in range(n)]
    c = [[draw() for _ in range(m)] for _ in range(n)]
    if profile == "sparse-ability":
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.5:
                    p[i][j] = ZERO
    elif profile == "cost-heavy":
        for i in range(n):
            for j in range(m):
                c[i][j] = Fraction(rng.randint(D // 2, D), D)
    for j in range(m):
        if all(p[i][j] * r[j] - c[i][j] < 0 for i in range(n)):
            i = rng.randrange(n)
            limit = int(p[i][j] * r[j] * D)  # floor keeps welfare nonnegative
            c[i][j] = Fraction(rng.randint(0, limit), D)
    return Instance(tuple(r), tuple(map(tuple, p)), tuple(map(tuple, c)))


# Family -> (generator, required parameters in call order, optional keyword
# parameters).  The parameter names are the keys of `make`'s params, of a
# bench-pof config row and of the `faircon generate` manifest.
FAMILIES = {
    "partition-ef": (gen_partition_ef, ("set",), ()),
    "partition-ef1": (gen_partition_ef1, ("set",), ()),
    "partition-eps-ef": (gen_partition_eps_ef, ("set", "eps"), ()),
    "two-agent-hard": (gen_two_agent_hard, ("set",), ()),
    "independent-set": (gen_independent_set, ("adjacency",), ("c_target",)),
    "pof-sqrt": (gen_pof_sqrt, ("n",), ()),
    "example": (gen_example, ("id", "eps"), ()),
    "random": (gen_random, ("n", "m"), ("seed", "profile")),
}


def make(family: str, params: dict) -> Instance:
    """The instance of a FAMILIES entry named by its parameters."""
    if family not in FAMILIES:
        raise InvalidInstanceError(f"unknown family {family!r}")
    gen, required, optional = FAMILIES[family]
    if unknown := [key for key in params if key not in required + optional]:
        raise InvalidInstanceError(f"family {family} takes no parameter {unknown[0]!r}")
    for key in required:
        if key not in params:
            raise InvalidInstanceError(f"family {family} needs parameter {key!r}")
    return gen(*(params[k] for k in required), **{k: params[k] for k in optional if k in params})
