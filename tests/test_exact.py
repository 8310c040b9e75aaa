"""Enumeration solvers: optimal EF / eps-EF / EF1 / EFS."""

import logging
from fractions import Fraction as F

import pytest

from faircon.core import (
    Allocation,
    revenue,
    unconstrained_opt,
    verify_ef,
    verify_ef1,
    verify_efs,
    verify_eps_ef,
    verify_ir,
)
from faircon import exact
from faircon.errors import BudgetExceededError, FairconError
from faircon.exact import (
    enumerate_case4_bounds,
    solve_opt_ef,
    solve_opt_ef1,
    solve_opt_efs,
)
from faircon.ext import efs_augment
from faircon.instances import (
    gen_example,
    gen_partition_ef,
    gen_partition_ef1,
    gen_random,
    gen_two_agent_hard,
)
from faircon.numeric import ONE, ZERO

from conftest import random_instances
from oracles import grid_ef1_opt, grid_efs_opt_two_agents, grid_ef_best


class TestSolveOptEf:
    def test_example_52(self, ex52):
        res = solve_opt_ef(ex52)
        assert res.revenue == F(9, 100)
        assert res.contract.assignment == (0,)
        assert revenue(ex52, res.contract) == res.revenue

    def test_partition_with_partition_hits_half(self):
        res = solve_opt_ef(gen_partition_ef([1, 2, 3]))
        assert res.revenue == F(1, 2)

    def test_partition_without_partition_capped(self):
        inst = gen_partition_ef([1, 1, 1])
        res = solve_opt_ef(inst)
        assert res.revenue <= F(1, 5)
        # Coarse grid search can never beat the exact solver.
        best_grid = max(
            grid_ef_best(inst, a, 0.0, 0.05)
            for a in [(0, 1, 1, 2), (0, 1, 2, 1), (1, 1, 1, 1), (0, 1, 1, 1)]
        )
        assert float(res.revenue) >= best_grid - 1e-9

    def test_two_agent_hard_partitionable(self):
        res = solve_opt_ef(gen_two_agent_hard([1, 2, 3]))
        assert res.revenue == F(3, 5)

    def test_results_pass_verifiers_exactly(self):
        for inst in random_instances(6, 2, 3, seed0=40):
            res = solve_opt_ef(inst)
            assert verify_ir(inst, res.contract, tol=0)[0]
            assert verify_ef(inst, res.contract, tol=0)[0]
            assert revenue(inst, res.contract) == res.revenue

    def test_unverified_optimum_raises(self, ex52, monkeypatch):
        # Without its envy rows the LP returns the envious unconstrained
        # optimum, which the solver's own tol-0 check must refuse.
        build = exact.build_ef_lp

        def without_envy_rows(inst, alloc, eps=0):
            model = build(inst, alloc, eps)
            model.rows = [r for r in model.rows if not r.tag.startswith("ef[")]
            return model

        monkeypatch.setattr(exact, "build_ef_lp", without_envy_rows)
        with pytest.raises(FairconError, match="failed verification"):
            solve_opt_ef(ex52)

    def test_eps_relaxation_monotone(self):
        inst = gen_random(2, 3, 71)
        r0 = solve_opt_ef(inst, 0).revenue
        r1 = solve_opt_ef(inst, F(1, 10)).revenue
        r2 = solve_opt_ef(inst, F(1, 2)).revenue
        assert r0 <= r1 <= r2 <= unconstrained_opt(inst)
        res = solve_opt_ef(inst, F(1, 10))
        assert verify_eps_ef(inst, res.contract, F(1, 10), tol=0)

    def test_objective_chain(self):
        for inst in random_instances(5, 2, 3, seed0=300):
            opt_ef = solve_opt_ef(inst).revenue
            opt_ef1 = solve_opt_ef1(inst).revenue
            opt = unconstrained_opt(inst)
            assert opt_ef <= opt_ef1 <= opt
            from faircon.core import greedy_ef

            assert revenue(inst, greedy_ef(inst)) <= opt_ef

    def test_budget_rejection(self, ex52):
        with pytest.raises(BudgetExceededError):
            solve_opt_ef(ex52, 0, budget_lps=1)


class TestCase4Bounds:
    def test_single_task_count(self):
        # One loaded agent, n-1 empty: the list holds n-1 agents plus two
        # sentinels, so n+1 cut positions, all trivially feasible.
        inst = gen_random(3, 1, 17)
        vectors = enumerate_case4_bounds(inst, [0], [1, 2])
        assert len(vectors) == 4  # n + 1 with n = 3
        assert all(set(v) == {0} for v in vectors)

    def test_no_empty_agents_means_no_bounds(self):
        inst = gen_partition_ef1([1, 2, 3])
        assert enumerate_case4_bounds(inst, [0, 1], []) == []

    def test_crossing_wages_match_definition(self):
        # Agent 1 is cheap on task 0, expensive on task 1; agent 2 crossed.
        inst = gen_random(3, 2, 1)  # only shapes matter; wages overridden below
        from faircon.core import Instance

        inst = Instance(
            r=(ONE, ONE),
            p=((ONE, ONE), (ONE, ONE), (ONE, ONE)),
            c=((ZERO, ZERO), (F(1, 4), F(3, 4)), (F(3, 4), F(1, 4))),
        )
        vectors = enumerate_case4_bounds(inst, [0, 1], [1, 2])
        # Brute-force the definition: per task the cut bounds are the sorted
        # wages with 0 in front and 1 behind; a vector is feasible unless
        # some agent is strictly below the cut in both lists.
        wages = {(1, 0): F(1, 4), (2, 0): F(3, 4), (1, 1): F(3, 4), (2, 1): F(1, 4)}
        lists = {
            0: [(None, ZERO), (1, wages[1, 0]), (2, wages[2, 0]), (None, ONE)],
            1: [(None, ZERO), (2, wages[2, 1]), (1, wages[1, 1]), (None, ONE)],
        }
        expected = []
        for c0 in range(4):
            for c1 in range(4):
                below0 = {a for a, _ in lists[0][1:c0] if a is not None}
                below1 = {a for a, _ in lists[1][1:c1] if a is not None}
                if below0 & below1:
                    continue
                expected.append({0: lists[0][c0][1], 1: lists[1][c1][1]})
        assert vectors == expected


class TestSolveOptEf1:
    def test_single_agent_equals_unconstrained(self):
        inst = gen_random(1, 3, 23)
        res = solve_opt_ef1(inst)
        assert res.revenue == unconstrained_opt(inst)

    def test_hardness_instance_partitionable(self):
        # {1, 1} splits evenly, so the principal keeps half of both big
        # tasks: optimal EF1 revenue is exactly 1.
        inst = gen_partition_ef1([1, 1])
        res = solve_opt_ef1(inst)
        assert res.revenue == 1
        ok, _ = verify_ef1(inst, res.contract, tol=0)
        assert ok

    def test_hardness_canonical_contract_is_feasible(self):
        inst = gen_partition_ef1([1, 2, 3])
        from conftest import make_contract

        k = make_contract(inst, (0, 0, 1, 1, 2), (F(1, 2), F(1, 2), 1, 1, 1))
        ok, _ = verify_ef1(inst, k, tol=0)
        assert ok and revenue(inst, k) == 1

    def test_beats_grid_oracle(self):
        for t in range(4):
            inst = gen_random(2 + t % 2, 2 + (t + 1) % 2, 500 + t)
            res = solve_opt_ef1(inst)
            ok, _ = verify_ef1(inst, res.contract, tol=0)
            assert ok
            assert float(res.revenue) >= grid_ef1_opt(inst, 1e-2) - 1e-6


class TestSolveOptEfs:
    def test_example_54_value(self, ex52):
        res = solve_opt_efs(ex52)
        assert res.revenue == F(3, 20)
        assert res.contract.subsidies == (F(1, 20), F(0))
        assert verify_efs(ex52, res.contract, tol=0)

    def test_example_57_capped_by_two_eps(self):
        res = solve_opt_efs(gen_example("5.7", F(1, 20)))
        assert res.revenue == F(1, 10)

    def test_matches_grid_oracle(self):
        for t in range(4):
            inst = gen_random(2, 1 + t % 2, 600 + t)
            res = solve_opt_efs(inst)
            grid = grid_efs_opt_two_agents(inst, 1e-3)
            assert abs(float(res.revenue) - grid) <= 5e-3

    def test_equals_augmented_ef_optimum_exactly(self):
        for t in range(4):
            inst = gen_random(2, 1 + t % 2, 640 + t)
            res = solve_opt_efs(inst)
            aug, _ = efs_augment(inst)
            aug_res = solve_opt_ef(aug)
            assert res.revenue == aug_res.revenue - (inst.m + inst.n)

    def test_revenue_recomputes(self):
        inst = gen_random(2, 2, 888)
        res = solve_opt_efs(inst)
        assert revenue(inst, res.contract) == res.revenue


def test_exact_solve_logs_summary_at_info(caplog):
    inst = gen_partition_ef([1, 2])
    with caplog.at_level(logging.INFO, logger="faircon"):
        res = solve_opt_ef(inst)
    lps = res.meta["lp_solves"]  # one LP per feasible allocation for EF
    summaries = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert summaries == [
        f"exact: {inst.n ** inst.m} allocations visited, {lps} feasible, "
        f"{lps} LPs, best objective {res.revenue}"
    ]
