"""Property tests: the exact solvers' branch-and-bound returns what plain
enumeration returns, the optima keep their order across notions,
exact-ef1's witness rows for empty-bundle agents match the case-4 wage caps,
and the envy-floor screen cuts only allocations with no fair contract."""

import itertools
from fractions import Fraction as F
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from faircon import exact  # noqa: E402
from faircon.core import Allocation, Instance  # noqa: E402
from faircon.instances import (  # noqa: E402
    PROFILES,
    gen_partition_ef,
    gen_partition_ef1,
    gen_partition_eps_ef,
    gen_random,
    gen_two_agent_hard,
)
from faircon.lp import (  # noqa: E402
    build_ef1_lp,
    build_ef_lp,
    build_efs_lp,
    contract_from_solution,
    solve_lp,
)

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


def ef_every_model(eps):
    return lambda inst, alloc: [build_ef_lp(inst, alloc, eps)]


def ef1_every_witness(inst: Instance, alloc):
    """One EF1 model per choice of removable task for each pair (i, j)
    with S_j nonempty."""
    bundles = alloc.bundles()
    pairs = [(i, j) for i in range(inst.n) for j in range(inst.n) if i != j and bundles[j]]
    for choice in itertools.product(*(bundles[j] for _, j in pairs)):
        yield build_ef1_lp(inst, alloc, dict(zip(pairs, choice)))


# Per notion: the screen rule `_best_lp` gets, and every LP model of an
# allocation.  EF is eps-EF at eps 0.
SCREENED_NOTIONS = {
    **{
        f"eps-ef {eps}": ((False, eps), ef_every_model(eps))
        for eps in (F(0), F(1, 100), F(1, 20), F(1, 4))
    },
    "ef1": ((True, F(0)), ef1_every_witness),
    "efs": (None, lambda inst, alloc: [build_efs_lp(inst, alloc)]),
}


def screen_cuts(inst: Instance, rule, assignment) -> list[bool]:
    """Per prefix assignment[:d], d = 1..m, whether the search's screen cuts
    it, with `_forced` called as `_best_lp` calls it: each agent's welfare
    so far includes the prefix's last task."""
    floors, units, screen = exact._screen(exact._viable_pairs(inst), rule)
    own = [0] * inst.n
    out = []
    for d, i in enumerate(assignment):
        own[i] += units[d][i]
        out.append(exact._forced(floors, list(assignment), d, own, screen) > inst.m - d - 1)
    return out


def ir_allocations(inst: Instance):
    """Every allocation whose pairs all admit an IR contract: the leaves the
    search can reach."""
    viable = [[i for i, _, _ in row] for row in exact._viable_pairs(inst)]
    for assignment in itertools.product(*viable):
        yield Allocation(assignment, inst.n)


@st.composite
def screen_instances(draw) -> Instance:
    """Seeded 2-4-agent, 1-4-task random instances in every profile, and
    the partition and two-agent hardness families."""
    families = ("random", "partition-ef", "partition-ef1", "partition-eps-ef", "two-agent-hard")
    family = draw(st.sampled_from(families))
    integers = st.lists(st.integers(1, 3), min_size=1, max_size=2)
    if family == "random":
        n, m = draw(st.integers(2, 4)), draw(st.integers(1, 4))
        return gen_random(n, m, draw(st.integers(0, 10**6)), draw(st.sampled_from(PROFILES)))
    if family == "partition-ef":
        return gen_partition_ef(draw(integers))
    if family == "partition-ef1":
        return gen_partition_ef1(draw(integers)[:1])
    if family == "partition-eps-ef":
        return gen_partition_eps_ef(draw(integers)[:1], F(1, 20))
    return gen_two_agent_hard(draw(integers))


def assert_screen_sound(inst: Instance, at_leaf: bool) -> int:
    """Every allocation the screen cuts (at the leaf, or at a shorter
    prefix) has no feasible LP model; returns the cut allocations."""
    cut = 0
    for name, (rule, models) in SCREENED_NOTIONS.items():
        for alloc in ir_allocations(inst):
            cuts = screen_cuts(inst, rule, alloc.assignment)
            if not (cuts[-1] if at_leaf else any(cuts[:-1])):
                continue
            cut += 1
            for model in models(inst, alloc):
                assert not solve_lp(model).optimal, (name, alloc.assignment)
    return cut


SCREEN_SETTINGS = settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SCREEN_SETTINGS
@given(screen_instances())
@example(gen_partition_ef([1, 2]))
@example(gen_partition_ef1([1]))
@example(gen_random(4, 3, 7, "sparse-ability"))
def test_screen_leaf_rule_cuts_only_allocations_without_a_fair_contract(inst):
    assert_screen_sound(inst, at_leaf=True)


@SCREEN_SETTINGS
@given(screen_instances())
@example(gen_partition_ef([1, 2]))
@example(gen_partition_ef1([1]))
@example(gen_random(4, 3, 7, "sparse-ability"))
def test_screen_prefix_rule_cuts_only_prefixes_without_a_fair_completion(inst):
    assert_screen_sound(inst, at_leaf=False)


def test_screen_rules_fire_on_the_seeded_examples():
    # Both soundness tests above check something: each rule cuts at least
    # one allocation on the hardness families.
    for inst in (gen_partition_ef([1, 2]), gen_partition_ef1([1])):
        assert assert_screen_sound(inst, at_leaf=True) > 0
        assert assert_screen_sound(inst, at_leaf=False) > 0
    # On two-agent-hard [1, 2, 3] the EF rule also cuts allocations where
    # both agents hold a task, so the agent it rules out holds one; the
    # leaf soundness check covers those cuts.
    inst = gen_two_agent_hard([1, 2, 3])
    assert assert_screen_sound(inst, at_leaf=True) > 0
    rule, _ = SCREENED_NOTIONS["eps-ef 0"]
    assert any(
        all(alloc.bundles()) and screen_cuts(inst, rule, alloc.assignment)[-1]
        for alloc in ir_allocations(inst)
    )
