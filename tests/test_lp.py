"""Fixed-allocation LPs: builders, the exact simplex, and cross-checks."""

import random
from fractions import Fraction as F

import pytest

from faircon import simplex
from faircon.core import Allocation, Contract, Instance, greedy_ef, verify_ef, verify_ir
from faircon.errors import FairconError, InvalidInstanceError
from faircon.instances import gen_partition_ef, gen_partition_ef1, gen_random
from faircon.lp import (
    LpModel,
    LpRow,
    build_ef1_lp,
    build_ef_lp,
    build_efs_lp,
    contract_from_solution,
    solve_lp,
)
from faircon.numeric import ONE, ZERO

from conftest import make_contract
from oracles import grid_ef_best


def test_solve_lp_single_variable():
    # maximize (1 - a) * 0.5 subject to a >= 0.5: optimum a = 1/2, 1/4.
    model = LpModel(
        n_vars=1,
        objective={0: -F(1, 2)},
        objective_const=F(1, 2),
        rows=[LpRow({0: ONE}, F(1, 2)), LpRow({0: -ONE}, -ONE)],
    )
    sol = solve_lp(model)
    assert sol.optimal
    assert sol.x == (F(1, 2),)
    assert sol.objective == F(1, 4)


def test_solve_lp_infeasible():
    model = LpModel(
        n_vars=1,
        objective={0: ONE},
        objective_const=ZERO,
        rows=[LpRow({0: ONE}, F(2)), LpRow({0: -ONE}, -ONE)],
    )
    assert solve_lp(model).status == "infeasible"


def test_solve_lp_unbounded_guard():
    model = LpModel(
        n_vars=1,
        objective={0: ONE},
        objective_const=ZERO,
        rows=[LpRow({0: ONE}, ZERO)],
    )
    assert solve_lp(model).status == "unbounded"


def test_solve_lp_self_check_covers_upper_bounds(monkeypatch):
    # The row a >= 1/2 holds at a = 2; only the bound row a <= 1 is broken.
    model = LpModel(
        n_vars=1,
        objective={0: -ONE},
        objective_const=ONE,
        rows=[LpRow({0: ONE}, F(1, 2)), LpRow({0: -ONE}, -ONE)],
    )
    monkeypatch.setattr(simplex, "maximize", lambda *args: (simplex.OPTIMAL, [F(2)], -F(2), 0))
    with pytest.raises(FairconError, match="row 1"):
        solve_lp(model)


def test_contract_models_end_with_the_alpha_bound_rows():
    inst = gen_random(2, 3, 1)
    alloc = Allocation((0, 1, 0), 2)
    for model in (
        build_ef_lp(inst, alloc, 0),
        build_ef1_lp(inst, alloc, {(0, 1): 1, (1, 0): 0}),
        build_efs_lp(inst, alloc),
    ):
        assert model.rows[-3:] == [LpRow({j: -ONE}, -ONE) for j in range(3)]


class TestBuildEfLp:
    def test_example_52_both_allocations(self, ex52):
        alloc = Allocation((0,), 2)
        sol = solve_lp(build_ef_lp(ex52, alloc, 0))
        assert sol.optimal and sol.objective == F(9, 100)
        assert contract_from_solution(sol, alloc) == Contract(alloc, (F(1, 10),))
        # The strong agent cannot be used envy-freely at all.
        assert not solve_lp(build_ef_lp(ex52, Allocation((1,), 2), 0)).optimal

    def test_partition_canonical_allocation(self):
        inst = gen_partition_ef([1, 2, 3])
        sol = solve_lp(build_ef_lp(inst, Allocation((0, 1, 1, 2), 3), 0))
        assert sol.optimal and sol.objective == F(1, 2)

    def test_single_agent_ir_binding(self):
        inst = gen_random(1, 4, 42)
        sol = solve_lp(build_ef_lp(inst, Allocation((0,) * 4, 1), 0))
        expected = sum(
            (max(inst.welfare(0, j), ZERO) for j in range(4)), ZERO
        )
        assert sol.objective == expected

    @pytest.mark.parametrize("seed,m", [(7, 1), (8, 2)])
    def test_dominates_grid_search(self, seed, m):
        inst = gen_random(2, m, seed)
        step = 1e-3 if m == 1 else 1e-2
        for assignment in [(0,) * m, (1,) * m]:
            sol = solve_lp(build_ef_lp(inst, Allocation(assignment, 2), 0))
            grid = grid_ef_best(inst, assignment, 0.0, step)
            if sol.optimal:
                assert float(sol.objective) >= grid - 1e-9
            else:
                assert grid == float("-inf")

    def test_monotone_in_eps(self):
        inst = gen_random(2, 3, 13)
        alloc = Allocation((0, 1, 0), 2)
        values = []
        for eps in (0, F(1, 20), F(1, 10), F(1, 2)):
            sol = solve_lp(build_ef_lp(inst, alloc, eps))
            values.append(sol.objective if sol.optimal else None)
        present = [v for v in values if v is not None]
        assert present == sorted(present)

    def test_linearization_tight_at_optimum(self, ex52):
        # Replacing t by the clamped utilities keeps feasibility and value:
        # at the optimum every t equals max(alpha p r - c, 0).
        inst = gen_random(2, 3, 107)
        alloc = Allocation((0, 1, 1), 2)
        sol = solve_lp(build_ef_lp(inst, alloc, 0))
        if not sol.optimal:
            pytest.skip("allocation EF-infeasible for this draw")
        alphas = contract_from_solution(sol, alloc).alpha
        bundles = alloc.bundles()
        for i in range(2):
            own = sum(
                (alphas[k] * inst.p[i][k] * inst.r[k] - inst.c[i][k] for k in bundles[i]),
                ZERO,
            )
            for j in range(2):
                if i == j:
                    continue
                clamped = sum(
                    (
                        max(alphas[k] * inst.p[i][k] * inst.r[k] - inst.c[i][k], ZERO)
                        for k in bundles[j]
                    ),
                    ZERO,
                )
                t_sum = sum((sol.x[3 + i * 3 + k] for k in bundles[j]), ZERO)  # t[i,k]
                assert own >= t_sum
                assert t_sum >= clamped  # so the clamped program is satisfied too

    def test_rejects_negative_eps(self, ex52):
        with pytest.raises(InvalidInstanceError):
            build_ef_lp(ex52, Allocation((0,), 2), -1)


class TestBuildEf1Lp:
    def test_hardness_instance_with_paper_witnesses(self):
        # Removing the first big task for both envious agents frees the
        # principal to keep half of each big task: revenue exactly 1.
        inst = gen_partition_ef1([1, 2, 3])
        alloc = Allocation((0, 0, 1, 1, 2), 3)
        witnesses = {
            (1, 0): 0, (2, 0): 0,
            (0, 1): 2, (0, 2): 4, (1, 2): 4, (2, 1): 2,
        }
        sol = solve_lp(build_ef1_lp(inst, alloc, witnesses))
        assert sol.optimal and sol.objective == 1

    def test_one_task_each_makes_ef1_vacuous(self):
        inst = gen_random(3, 3, 55)
        alloc = Allocation((0, 1, 2), 3)
        witnesses = {(i, j): alloc.bundles()[j][0] for i in range(3) for j in range(3) if i != j}
        sol = solve_lp(build_ef1_lp(inst, alloc, witnesses))
        expected = sum(
            (max(inst.welfare(j, j), ZERO) for j in range(3)), ZERO
        )
        if sol.optimal:
            assert sol.objective == expected

    def test_ef_optimum_never_beats_ef1(self):
        inst = gen_random(2, 3, 107)
        alloc = Allocation((0, 1, 0), 2)
        ef = solve_lp(build_ef_lp(inst, alloc, 0))
        if not ef.optimal:
            pytest.skip("EF-infeasible allocation")
        bundles = alloc.bundles()
        best_ef1 = None
        for w01 in bundles[1]:
            for w10 in bundles[0]:
                sol = solve_lp(build_ef1_lp(inst, alloc, {(0, 1): w01, (1, 0): w10}))
                if sol.optimal and (best_ef1 is None or sol.objective > best_ef1):
                    best_ef1 = sol.objective
        assert best_ef1 is not None and best_ef1 >= ef.objective

    def test_witness_outside_bundle_rejected(self, ex52):
        inst = gen_random(2, 2, 5)
        alloc = Allocation((0, 1), 2)
        with pytest.raises(InvalidInstanceError):
            build_ef1_lp(inst, alloc, {(0, 1): 0, (1, 0): 1})
        # Agent 1 holds nothing but still needs a witness inside S_0.
        with pytest.raises(InvalidInstanceError):
            build_ef1_lp(inst, Allocation((0, 0), 2), {})


def test_build_efs_lp_example_54(ex52):
    alloc = Allocation((1,), 2)
    model = build_efs_lp(ex52, alloc)
    assert model.n_vars == 1 + 2 + 2  # alpha, t[0,0], t[1,0], s[0], s[1]
    sol = solve_lp(model)
    assert sol.optimal and sol.objective == F(3, 20)
    k = contract_from_solution(sol, alloc)
    assert k.alpha == (F(3, 5),) and k.subsidies == (F(1, 20), 0)


def test_lp_solutions_reverify_with_core(ex52):
    alloc = Allocation((0,), 2)
    k = contract_from_solution(solve_lp(build_ef_lp(ex52, alloc, 0)), alloc)
    assert verify_ir(ex52, k, tol=0)[0]
    assert verify_ef(ex52, k, tol=0)[0]
