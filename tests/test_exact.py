"""Enumeration solvers: optimal EF / eps-EF / EF1 / EFS."""

import json
import logging
from fractions import Fraction as F
from math import inf
from unittest import mock

import pytest

from faircon.cli import main
from faircon.core import (
    Contract,
    Instance,
    greedy_ef,
    revenue,
    unconstrained_opt,
    verify_ef,
    verify_ef1,
    verify_efs,
    verify_eps_ef,
    verify_ir,
)
from faircon import exact, ext, lp, simplex
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
from faircon.lp import LpRow
from faircon.numeric import ONE, ZERO
from faircon.serialize import dump_json, instance_to_dict

from conftest import random_instances
from oracles import best_lp_reference, grid_ef1_opt, grid_efs_opt_two_agents, grid_ef_best


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

    def test_unverified_optimum_raises(self, monkeypatch):
        # Without its envy rows the LP returns the envious unconstrained
        # optimum, which the solver's own tol-0 check must refuse.  Both
        # agents hold a task there, so the envy runs between two nonempty
        # bundles and the envy-floor screen cannot cut the allocation.
        inst = gen_random(2, 2, 11)
        no_envy_rows = lambda inst, alloc, eps: lp._contract_lp(inst, alloc, [])  # noqa: E731
        monkeypatch.setattr(exact, "build_ef_lp", no_envy_rows)
        with pytest.raises(FairconError, match="failed verification"):
            solve_opt_ef(inst)

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
            assert revenue(inst, greedy_ef(inst)) <= opt_ef

    def test_budget_rejection(self, ex52):
        with pytest.raises(BudgetExceededError):
            solve_opt_ef(ex52, 0, budget_lps=1)

    def test_partition_five_integers_under_300_lps(self):
        # 729 allocations; the welfare bound, the greedy seed and the
        # twin-agent rule leave fewer than 300 of them to an LP.
        res = solve_opt_ef(gen_partition_ef([1, 2, 3, 4, 5]))
        assert res.revenue == F(1, 5)
        assert res.meta["lp_solves"] < 300


class TestBranchAndBound:
    # Agent 0 is cheap on task 0 and agent 1 on task 1, so greedy EF pays
    # each its cost, keeps all welfare (8/5) and is the only optimum: every
    # other allocation is worth at most 9/10.
    GREEDY_ONLY = Instance(
        r=(ONE, ONE), p=((ONE, ONE), (ONE, ONE)), c=((F(1, 5), F(9, 10)), (F(9, 10), F(1, 5)))
    )

    def test_greedy_only_optimum_is_found(self):
        inst = self.GREEDY_ONLY
        seed = revenue(inst, greedy_ef(inst))
        assert seed == F(8, 5)
        for solve in (solve_opt_ef, solve_opt_ef1, solve_opt_efs):
            res = solve(inst)
            assert res.contract.assignment == (0, 1)
            assert res.contract.alpha == (F(1, 5), F(1, 5))
            assert res.revenue == seed

    def test_model_loop_stops_only_at_the_allocation_welfare(self):
        # One pair of welfare 3/4.  A model that floors alpha at 1/2 is worth
        # 1/4 less, so the loop must go on past it, and stop after the plain
        # model, which reaches the welfare.
        inst = Instance(r=(ONE,), p=((ONE,),), c=((F(1, 4),),))

        def floored(alloc):
            model = exact.build_ef_lp(inst, alloc)
            model.rows.append(LpRow({0: ONE}, F(1, 2)))
            return model

        plain = lambda alloc: exact.build_ef_lp(inst, alloc)  # noqa: E731
        ef = (inf, 0)
        (value, _, _), counts = exact._best_lp(inst, 10, lambda a: [floored(a), plain(a)], ef)
        assert value == F(3, 4) and counts["lp_solves"] == 2
        (value, _, _), counts = exact._best_lp(inst, 10, lambda a: [plain(a), floored(a)], ef)
        assert value == F(3, 4) and counts["lp_solves"] == 1

    def test_budget_charges_search_nodes_and_lps_each(self):
        # partition-ef [1, 2] takes 12 search nodes and 4 LPs: a budget of
        # 12 covers both counts, 11 stops the search.
        inst = gen_partition_ef([1, 2])
        res = solve_opt_ef(inst)
        assert (res.meta["nodes"], res.meta["lp_solves"]) == (12, 4)
        assert solve_opt_ef(inst, budget_lps=12).revenue == res.revenue
        with pytest.raises(BudgetExceededError, match="search node budget of 11 exceeded"):
            solve_opt_ef(inst, budget_lps=11)
        # One search node whose first model falls short of the welfare, so
        # its second LP runs and passes a budget of 1.
        inst = Instance(r=(ONE,), p=((ONE,),), c=((F(1, 4),),))

        def floored_then_plain(alloc):
            floored = exact.build_ef_lp(inst, alloc)
            floored.rows.append(LpRow({0: ONE}, F(1, 2)))
            return [floored, exact.build_ef_lp(inst, alloc)]

        with pytest.raises(BudgetExceededError, match="lps budget of 1 exceeded"):
            exact._best_lp(inst, 1, floored_then_plain, (inf, 0))

    def test_twin_agents_keep_the_first_optimum(self):
        # Agents 1 and 2 are equal, so the optimum's orbit holds several
        # allocations; the search must return the lexicographically first,
        # as plain enumeration does.
        inst = gen_partition_ef([1, 2])
        for solve in (solve_opt_ef, solve_opt_ef1, solve_opt_efs):
            got = solve(inst)
            with mock.patch.object(exact, "_best_lp", best_lp_reference):
                want = solve(inst)
            assert got.contract == want.contract and got.revenue == want.revenue
            assert got.meta["allocations_solved"] < want.meta["allocations_solved"]


def solver_limits(solve) -> tuple:
    """The screen limits `solve` hands `_best_lp`."""
    with mock.patch.object(exact, "_best_lp", wraps=exact._best_lp) as spy:
        solve(TestBranchAndBound.GREEDY_ONLY)
    return spy.call_args.args[3]


def leaf_forced(limits, *floors) -> int:
    """`_forced` at the leaf of an allocation that gives agent 0 one task
    per entry of `floors` and agent 1 none, agent 1's envy floor on task j
    being floors[j]."""
    m = len(floors)
    return exact._forced([{0: ((1, f),)} for f in floors], [0] * m, m - 1, [m, 0], limits)


class TestScreenLeaf:
    # At a leaf no task remains, so the search cuts when `_forced` is positive.
    def test_ef_cuts_on_one_positive_floor(self):
        assert leaf_forced(solver_limits(solve_opt_ef), F(1, 100)) == 1

    def test_eps_ef_cuts_only_a_floor_sum_above_eps(self):
        limits = solver_limits(lambda inst: solve_opt_ef(inst, F(1, 10)))
        assert leaf_forced(limits, F(1, 20), F(1, 20)) == 0
        assert leaf_forced(limits, F(1, 20), F(3, 40)) == 1

    def test_ef1_cuts_only_two_floors(self):
        limits = solver_limits(solve_opt_ef1)
        assert leaf_forced(limits, ONE) == 0
        assert leaf_forced(limits, F(1, 100), F(1, 100)) == 1

    def test_efs_never_cuts(self):
        limits = solver_limits(solve_opt_efs)
        assert leaf_forced(limits, ONE) == leaf_forced(limits, ONE, ONE, ONE) == 0


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
    def test_empty_agents_fit_the_allocation_budget(self, tmp_path, capsys):
        # partition-ef1 [1] has 3^3 = 27 allocations.  An allocation that
        # leaves agents empty gives them witness rows, with no cap vectors,
        # so the n^m budget covers the search nodes and the LPs.  The
        # envy-floor screen leaves two allocations to an LP.
        path = tmp_path / "pef1.json"
        dump_json(instance_to_dict(gen_partition_ef1([1])), str(path))
        argv = ["solve", str(path), "--method", "exact-ef1", "--budget-lps", "27", "--exact-arith"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["lp_solves"] == 2

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

    def test_solves_without_the_reduction_helpers(self, ex52, monkeypatch):
        # The subsidy LP is the reduction solved directly; the helpers that
        # materialize it on the augmented instance are not part of a solve.
        def refuse(*args, **kwargs):
            raise AssertionError("reduction helper called")

        for name in ("efs_augment", "embed_subsidized", "extract_subsidies"):
            monkeypatch.setattr(ext, name, refuse)
        res = solve_opt_efs(ex52)
        assert res.revenue == F(3, 20) and res.contract.subsidies == (F(1, 20), 0)
        assert "augmented_tasks" not in res.meta


def test_exact_solve_logs_summary_at_info(caplog):
    inst = gen_partition_ef([1, 2])
    with caplog.at_level(logging.INFO, logger="faircon"):
        res = solve_opt_ef(inst)
    meta = res.meta
    counts = ("allocations", "nodes", "screened", "allocations_solved", "lp_solves")
    assert tuple(meta[key] for key in counts) == (27, 12, 3, 4, 4)
    summaries = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert summaries == [
        "exact: 27 allocations, 12 nodes, 3 screened, 4 solved, 4 LPs, "
        f"best objective {res.revenue}"
    ]


def test_meta_counts_every_simplex_pivot(monkeypatch):
    pivots = []
    maximize = simplex.maximize

    def record(*lp):
        res = maximize(*lp)
        pivots.append(res[3])
        return res

    monkeypatch.setattr(simplex, "maximize", record)
    inst = gen_partition_ef1([1])
    for solve in (solve_opt_ef, solve_opt_ef1, solve_opt_efs):
        pivots.clear()
        res = solve(inst)
        assert res.meta["lp_solves"] == len(pivots)
        assert res.meta["pivots"] == sum(pivots) > 0


# Each exact solver with the verifier of its notion, as `exact` names it.
TAIL_CASES = [
    (solve_opt_ef, "verify_eps_ef"),
    (solve_opt_ef1, "verify_ef1"),
    (solve_opt_efs, "verify_efs"),
]


class TestVerifiedTail:
    """Every exact solve re-verifies its contract in rationals: revenue
    equal to the LP value, IR and the notion at tol 0."""

    @pytest.mark.parametrize("solve,notion", TAIL_CASES)
    def test_contract_off_the_vertex_raises(self, ex52, monkeypatch, solve, notion):
        real = exact.contract_from_solution

        def moved(sol, alloc):
            k = real(sol, alloc)
            return Contract(k.allocation, (k.alpha[0] + F(1, 1000),) + k.alpha[1:], k.subsidies)

        monkeypatch.setattr(exact, "contract_from_solution", moved)
        with pytest.raises(FairconError, match="failed verification"):
            solve(ex52)

    @pytest.mark.parametrize("solve,notion", TAIL_CASES)
    def test_each_check_refuses_the_optimum(self, ex52, monkeypatch, solve, notion):
        # One check at a time fails on the true optimum.  A lower revenue
        # only lowers the greedy seed, which cuts nothing the optimum needs.
        real = exact.revenue
        fails = (False, {}) if notion == "verify_ef1" else False
        fakes = {
            "revenue": lambda inst, k: real(inst, k) - 1,
            "verify_ir": lambda *args, **kwargs: (False, {}),
            notion: lambda *args, **kwargs: fails,
        }
        assert solve(ex52).revenue > 0
        for name, fake in fakes.items():
            with monkeypatch.context() as patched:
                patched.setattr(exact, name, fake)
                with pytest.raises(FairconError, match="failed verification"):
                    solve(ex52)
