"""Round-robin heuristic and the subsidy reduction helpers."""

from fractions import Fraction as F

import pytest

from faircon.core import (
    Allocation,
    Contract,
    revenue,
    unconstrained_opt,
    verify_ef,
    verify_ef1,
    verify_efs,
    verify_ir,
)
from faircon.errors import FairconError
from faircon.ext import (
    efs_augment,
    embed_subsidized,
    extract_subsidies,
    round_robin_ef1,
)
from faircon.instances import gen_example, gen_partition_ef, gen_pof_sqrt, gen_random
from faircon.numeric import ZERO

from conftest import random_instances
from oracles import ef1_holds_exhaustive


class TestRoundRobin:
    def test_single_agent_extracts_everything(self):
        inst = gen_random(1, 5, 7)
        res = round_robin_ef1(inst)
        assert res.revenue == unconstrained_opt(inst)

    def test_outputs_are_ef1_ir_full(self):
        for inst in random_instances(30, 4, 6, seed0=700):
            res = round_robin_ef1(inst)
            k = res.contract
            assert len(k.assignment) == inst.m
            ok_ir, _ = verify_ir(inst, k, tol=0)
            ok_ef1, _ = verify_ef1(inst, k, tol=0)
            assert ok_ir and ok_ef1
            assert ef1_holds_exhaustive(inst, k)

    def test_revenue_guarantee(self):
        for inst in random_instances(30, 4, 6, seed0=730):
            res = round_robin_ef1(inst)
            assert inst.n**2 * res.revenue >= unconstrained_opt(inst)

    def test_sqrt_family_capped_at_two(self):
        res = round_robin_ef1(gen_pof_sqrt(9))
        assert res.revenue <= 2
        ok, _ = verify_ef1(gen_pof_sqrt(9), res.contract, tol=0)
        assert ok

    def test_leader_choice_invariant_under_joint_scaling(self):
        # Scaling rewards and costs together scales all welfare linearly,
        # so the first picker must not change.
        inst = gen_random(3, 4, 77)
        scale = F(1, 3)
        scaled = type(inst)(
            r=tuple(x * scale for x in inst.r),
            p=inst.p,
            c=tuple(tuple(x * scale for x in row) for row in inst.c),
        )
        a = round_robin_ef1(inst)
        b = round_robin_ef1(scaled)
        assert a.meta["first_agent"] == b.meta["first_agent"]


class TestSubsidyReduction:
    def test_augment_shape(self):
        inst = gen_random(2, 1, 11)
        aug, mapping = efs_augment(inst)
        assert aug.m == 4  # 2m + n
        assert mapping.added == (1, 2, 3)
        for k in mapping.added:
            for i in range(aug.n):
                assert aug.p[i][k] == 1 and aug.c[i][k] == 0 and aug.r[k] == 1

    def test_embed_then_extract_roundtrip(self, ex52):
        # The optimal subsidized contract lifts to an EF contract of the
        # augmented instance worth m + n more, and maps back unchanged.
        from faircon.exact import solve_opt_efs

        instances = [
            gen_random(2, 2, 12),
            ex52,
            gen_example("5.7", F(1, 5)),
            gen_partition_ef([1, 2]),
            *random_instances(3, 3, 2, seed0=1200),
        ]
        subsidized = 0
        for inst in instances:
            res = solve_opt_efs(inst)
            subsidized += any(res.contract.subsidies)
            aug, mapping = efs_augment(inst)
            lifted = embed_subsidized(res.contract, mapping)
            assert verify_ef(aug, lifted, tol=0)[0]
            assert revenue(aug, lifted) == res.revenue + inst.m + inst.n
            back = extract_subsidies(lifted, mapping)
            assert back == res.contract
            assert verify_efs(inst, back, tol=0)
        assert subsidized >= 2

    def test_whole_subsidy_units_roundtrip(self):
        # A subsidy of 3/2 takes one fully paid added task and one paid 1/2;
        # the third added task goes to agent 0 unpaid.
        _, mapping = efs_augment(gen_random(2, 1, 14))
        k = Contract(Allocation((1,), 2), (F(1, 2),), (F(3, 2), ZERO))
        lifted = embed_subsidized(k, mapping)
        assert lifted.assignment == (1, 0, 0, 0)
        assert lifted.alpha == (F(1, 2), 1, F(1, 2), 0)
        assert extract_subsidies(lifted, mapping) == k

    def test_extract_requires_matching_shape(self):
        inst = gen_random(2, 1, 13)
        _, mapping = efs_augment(inst)

        short = Contract(Allocation((0,), 2), (ZERO,))
        with pytest.raises(Exception):
            extract_subsidies(short, mapping)

    def test_embed_rejects_oversized_subsidies(self):
        inst = gen_random(2, 1, 14)
        _, mapping = efs_augment(inst)

        k = Contract(Allocation((0,), 2), (ZERO,), (F(3), F(2)))
        with pytest.raises(FairconError):
            embed_subsidized(k, mapping)

    def test_extract_of_ef_solution_is_efs(self):
        # Any EF solution of the augmented instance maps back to an EFS one.
        from faircon.exact import solve_opt_ef

        inst = gen_random(2, 1, 15)
        aug, mapping = efs_augment(inst)
        aug_res = solve_opt_ef(aug)
        back = extract_subsidies(aug_res.contract, mapping)
        assert verify_efs(inst, back, tol=0)
        assert revenue(inst, back) == aug_res.revenue - (inst.m + inst.n)
