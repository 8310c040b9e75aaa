"""Property tests: the exact solvers' branch-and-bound returns what plain
enumeration returns, the optima keep their order across notions, and
exact-ef1's witness rows for empty-bundle agents match the case-4 wage caps."""

from fractions import Fraction as F
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from faircon import exact  # noqa: E402
from faircon.core import Instance  # noqa: E402
from faircon.instances import (  # noqa: E402
    PROFILES,
    gen_partition_ef,
    gen_partition_ef1,
    gen_random,
    gen_two_agent_hard,
)
from faircon.lp import contract_from_solution  # noqa: E402

from oracles import best_lp_reference, ef1_case4_models  # noqa: E402

EPS = F(1, 10)
SOLVERS = {
    "exact-ef": exact.solve_opt_ef,
    "exact-eps-ef": lambda inst: exact.solve_opt_ef(inst, EPS),
    "exact-ef1": exact.solve_opt_ef1,
    "exact-efs": exact.solve_opt_efs,
}


def with_twin(inst: Instance, agent: int, position: int) -> Instance:
    """`inst` with a copy of `agent`'s p and c rows inserted at `position`."""
    p, c = list(inst.p), list(inst.c)
    p.insert(position, inst.p[agent])
    c.insert(position, inst.c[agent])
    return Instance(inst.r, tuple(p), tuple(c))


@st.composite
def small_instances(draw) -> Instance:
    """Seeded 2-3-agent, 1-4-task instances: random, random with a twin
    agent inserted anywhere, and the partition families (twins 1 and 2)."""
    family = draw(st.sampled_from(("random", "twin", "partition-ef", "partition-ef1", "two-agent-hard")))
    seed = draw(st.integers(0, 10**6))
    profile = draw(st.sampled_from(PROFILES))
    if family == "random":
        return gen_random(draw(st.integers(2, 3)), draw(st.integers(1, 4)), seed, profile)
    if family == "twin":
        base = gen_random(draw(st.integers(1, 2)), draw(st.integers(1, 4)), seed, profile)
        return with_twin(base, draw(st.integers(0, base.n - 1)), draw(st.integers(0, base.n)))
    integers = st.integers(1, 4)
    if family == "partition-ef":
        return gen_partition_ef(draw(st.lists(integers, min_size=1, max_size=2)))
    if family == "partition-ef1":
        return gen_partition_ef1([draw(integers)])
    return gen_two_agent_hard(draw(st.lists(integers, min_size=1, max_size=2)))


@settings(
    max_examples=20,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(small_instances())
@example(gen_partition_ef([1, 2]))
@example(gen_partition_ef([2, 2]))
@example(gen_two_agent_hard([1, 1]))
@example(with_twin(gen_random(2, 3, 5), 0, 2))
def test_search_matches_plain_enumeration(inst):
    got = {name: solve(inst) for name, solve in SOLVERS.items()}
    with mock.patch.object(exact, "_best_lp", best_lp_reference):
        want = {name: solve(inst) for name, solve in SOLVERS.items()}
    for name in SOLVERS:
        g, w = got[name], want[name]
        assert (g.contract.assignment, g.contract.alpha, g.contract.subsidies, g.revenue) == (
            w.contract.assignment, w.contract.alpha, w.contract.subsidies, w.revenue
        ), name
        assert g.meta["allocations_solved"] <= w.meta["allocations_solved"], name
        assert g.meta["lp_solves"] <= w.meta["lp_solves"], name
    opt_ef = got["exact-ef"].revenue
    assert opt_ef <= got["exact-ef1"].revenue
    assert opt_ef <= got["exact-efs"].revenue
    assert opt_ef <= got["exact-eps-ef"].revenue


@st.composite
def wide_instances(draw) -> Instance:
    """Seeded 4-5-agent random instances with 1-3 tasks, so that most
    allocations leave some agent with an empty bundle."""
    n, m = draw(st.integers(4, 5)), draw(st.integers(1, 3))
    return gen_random(n, m, draw(st.integers(0, 10**6)), draw(st.sampled_from(PROFILES)))


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.one_of(small_instances(), wide_instances()))
@example(gen_partition_ef1([1]))
@example(gen_random(2, 2, 81))
@example(gen_random(5, 3, 21))
def test_ef1_witness_rows_match_case4_wage_caps(inst):
    # An empty-bundle agent's witness row is the case-4 wage cap, so
    # exact-ef1 returns what plain enumeration over the cap models returns.
    # In the two seeded random examples the optimum needs an empty agent
    # to drop a task other than the first of the envied bundle.
    got = exact.solve_opt_ef1(inst)
    (value, alloc, sol), _ = best_lp_reference(
        inst, exact.DEFAULT_LP_BUDGET, lambda alloc: ef1_case4_models(inst, alloc)
    )
    want = contract_from_solution(sol, alloc)
    assert (got.revenue, got.contract.assignment, got.contract.alpha) == (
        value, want.assignment, want.alpha
    )
