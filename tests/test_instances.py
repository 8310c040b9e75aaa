"""Instance generators: shapes, paper regressions, determinism."""

from fractions import Fraction as F

import pytest

from faircon.core import revenue, unconstrained_opt, verify_ef, verify_ef1, verify_eps_ef, verify_ir
from faircon.errors import InvalidInstanceError
from faircon.exact import solve_opt_ef
from faircon.instances import (
    RANDOM_DENOMINATOR,
    gen_example,
    gen_independent_set,
    gen_partition_ef,
    gen_partition_ef1,
    gen_partition_eps_ef,
    gen_pof_sqrt,
    gen_random,
    gen_two_agent_hard,
    make,
)
from faircon.serialize import instance_to_dict

from conftest import make_contract


class TestPartitionFamilies:
    def test_ef_shape(self):
        inst = gen_partition_ef([1, 2, 3])
        assert inst.n == 3 and inst.m == 4
        assert inst.p[0][0] == 1 and inst.p[1][0] == F(1, 10)
        assert inst.c[0][0] == F(1, 2)
        assert inst.r[1] == F(1, 60)

    def test_ef_canonical_contract(self):
        inst = gen_partition_ef([1, 2, 3])
        k = make_contract(inst, (0, 1, 1, 2), (F(1, 2), 1, 1, 1))
        assert verify_ir(inst, k, tol=0)[0] and verify_ef(inst, k, tol=0)[0]
        assert revenue(inst, k) == F(1, 2)

    def test_ef1_shape_and_canonical(self):
        inst = gen_partition_ef1([1, 2, 3])
        assert inst.n == 3 and inst.m == 5
        k = make_contract(inst, (0, 0, 1, 1, 2), (F(1, 2), F(1, 2), 1, 1, 1))
        ok, _ = verify_ef1(inst, k, tol=0)
        assert ok and revenue(inst, k) == 1

    def test_eps_ef_shape_and_canonical(self):
        eps = F(1, 20)
        inst = gen_partition_eps_ef([1, 2, 3], eps)
        assert inst.n == 3 and inst.m == 5
        assert inst.p[1][1] == 2 * eps
        k = make_contract(inst, (0, 0, 1, 1, 2), (F(1, 2), F(1, 2), 1, 1, 1))
        assert verify_eps_ef(inst, k, eps, tol=0)
        assert revenue(inst, k) == 1

    def test_two_agent_shape_and_canonical(self):
        inst = gen_two_agent_hard([1, 2, 3])
        assert inst.n == 2 and inst.m == 5
        assert inst.p[0][1] == F(1, 10) and inst.p[1][1] == 0
        k = make_contract(inst, (0, 0, 0, 0, 1), (F(1, 2), 1, 0, 0, 1))
        assert verify_ef(inst, k, tol=0)[0]
        assert revenue(inst, k) == F(3, 5)

    def test_rejects_empty_or_nonpositive(self):
        with pytest.raises(InvalidInstanceError):
            gen_partition_ef([])
        with pytest.raises(InvalidInstanceError):
            gen_partition_ef1([0, 2])


class TestIndependentSet:
    def test_single_edge_shape(self):
        inst = gen_independent_set([[1], [0]], 1)
        assert inst.n == 2 and inst.m == 3

    def test_triangle_canonical_contract(self):
        inst = gen_independent_set([[1, 2], [0, 2], [0, 1]], 1)
        assert inst.n == 4 and inst.m == 6
        delta = F(1, 8 * 1 * 2 * 2)
        # Independent set {0}: vertex task 0 to the efficient agent at 1/2;
        # leftovers parked; incident edge tasks paid out in full.
        k = make_contract(
            inst, (0, 1, 1, 1, 2, 0), (F(1, 2), 0, 0, 1, 1, 0)
        )
        assert verify_ef(inst, k, tol=0)[0]
        assert revenue(inst, k) == F(1, 2) + delta
        assert revenue(inst, k) >= F(1, 2)

    def test_exact_optimum_respects_necessity_bound(self):
        # Single edge: max independent set is 1 vertex, so EF revenue stays
        # below |IS|/2 + gamma*delta + beta*delta/2.
        inst = gen_independent_set([[1], [0]], 1)
        delta = F(1, 8)
        res = solve_opt_ef(inst)
        assert res.revenue <= F(1, 2) + 2 * delta + delta / 2

    def test_requires_an_edge(self):
        with pytest.raises(InvalidInstanceError):
            gen_independent_set([[], []], 1)


class TestPofSqrt:
    def test_shape_and_opt(self):
        inst = gen_pof_sqrt(9)
        assert inst.n == inst.m == 9
        assert unconstrained_opt(inst) == 3

    def test_block_structure(self):
        inst = gen_pof_sqrt(9)
        assert inst.c[0][0] == F(2, 3) and inst.p[0][0] == 1
        assert inst.p[0][3] == 0
        assert inst.p[3][0] == F(2, 9) and inst.c[3][0] == F(1, 9)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInstanceError):
            gen_pof_sqrt(8)


class TestExamples:
    def test_example_52_numbers(self):
        inst = gen_example("5.2", F(1, 100))
        assert inst.p[0][0] == F(1, 10) and inst.c[0][0] == F(1, 100)
        assert unconstrained_opt(inst) == F(1, 4)

    def test_example_57_shape(self):
        inst = gen_example("5.7", F(1, 20))
        assert inst.n == 21 and inst.m == 1
        assert unconstrained_opt(inst) == F(1, 4)

    def test_example_57_needs_integral_inverse_eps(self):
        with pytest.raises(InvalidInstanceError):
            gen_example("5.7", F(3, 10))

    def test_unknown_id(self):
        with pytest.raises(InvalidInstanceError):
            gen_example("9.9", F(1, 10))


class TestRandom:
    def test_deterministic_and_exact(self):
        a = gen_random(3, 5, 42, "uniform")
        b = gen_random(3, 5, 42, "uniform")
        assert a == b
        assert instance_to_dict(a) == instance_to_dict(b)
        assert all(x.denominator <= RANDOM_DENOMINATOR for x in a.r)

    def test_profiles_differ(self):
        dense = gen_random(3, 6, 7, "uniform")
        sparse = gen_random(3, 6, 7, "sparse-ability")
        heavy = gen_random(3, 6, 7, "cost-heavy")
        zeros = sum(1 for row in sparse.p for x in row if x == 0)
        assert zeros >= 6
        # Cost-heavy draws from the top half; the Assumption-1 repair may
        # lower a few entries afterwards.
        high = sum(1 for row in heavy.c for x in row if x >= F(1, 2))
        assert high >= heavy.n * heavy.m // 2
        assert dense != sparse

    def test_single_agent_family(self):
        inst = gen_random(1, 4, 9)
        assert inst.n == 1  # construction implies Assumption 1 held

    def test_bad_profile(self):
        with pytest.raises(InvalidInstanceError):
            gen_random(2, 2, 0, "bogus")


def test_make_dispatch():
    inst = make("partition-ef", {"set": [1, 2]})
    assert inst.n == 3
    inst = make("random", {"n": 2, "m": 2, "seed": 4})
    assert inst.m == 2
    with pytest.raises(InvalidInstanceError):
        make("no-such-family", {})
    # Generators coerce the text and float forms a config may hold.
    assert make("pof-sqrt", {"n": "9"}) == gen_pof_sqrt(9)
    assert make("example", {"id": 5.2, "eps": "1/100"}).n == 2


def test_make_rejects_unknown_parameter():
    # A misspelled parameter used to be ignored: "sed" ran seed 0.
    with pytest.raises(InvalidInstanceError, match="family random takes no parameter 'sed'"):
        make("random", {"n": 2, "m": 3, "sed": 5})
    with pytest.raises(InvalidInstanceError, match="family pof-sqrt takes no parameter 'seed'"):
        make("pof-sqrt", {"n": 9, "seed": 1})


def test_make_missing_parameter():
    with pytest.raises(InvalidInstanceError, match="needs parameter 'set'"):
        make("partition-ef", {})
    with pytest.raises(InvalidInstanceError, match="needs parameter 'id'"):
        make("example", {"eps": "1/4"})
