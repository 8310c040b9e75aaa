"""Data model, utility arithmetic, verifiers, greedy constructor."""

import random
from fractions import Fraction as F

import pytest

from faircon.core import (
    Allocation,
    Contract,
    Instance,
    agent_task_utility,
    fairness_report,
    greedy_ef,
    minimum_wage,
    revenue,
    unconstrained_opt,
    utilities,
    verify_ef,
    verify_ef1,
    verify_efs,
    verify_eps_ef,
    verify_ir,
)
from faircon.errors import (
    DimensionMismatchError,
    InvalidInstanceError,
    NoViableAgentError,
)
from faircon.instances import (
    gen_partition_ef,
    gen_partition_eps_ef,
    gen_pof_sqrt,
    gen_random,
)
from faircon import core
from faircon.numeric import INF_WAGE, as_fraction, format_number, format_scalar_text
from faircon.serialize import instance_from_dict

from conftest import make_contract, random_instances
from oracles import ef1_holds_exhaustive, report_reference


class TestInstanceValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            Instance(r=(F(3, 2),), p=((1,),), c=((0,),))
        with pytest.raises(InvalidInstanceError):
            Instance(r=(1,), p=((1,),), c=((-1,),))

    def test_rejects_unserviceable_task(self):
        # Both agents have p*r - c < 0 on the only task.
        with pytest.raises(NoViableAgentError):
            Instance(r=(F(1, 2),), p=((F(1, 2),), (F(1, 4),)), c=((1,), (1,)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInstanceError):
            Instance(r=(1, 1), p=((1,),), c=((0,),))

    def test_loader_accepts_mixed_number_forms(self):
        inst = Instance(r=("1/2",), p=((0.5,),), c=((0,),))
        assert inst.r[0] == F(1, 2) and inst.p[0][0] == F(1, 2)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator: '1/0'"):
            as_fraction("1/0")
        with pytest.raises(InvalidInstanceError):
            instance_from_dict({"r": ["1/0"], "p": [[1]], "c": [[0]]})

    def test_rejects_a_string_vector(self):
        # A str used to read as the list of its characters.
        alloc = Allocation((0,), 2)
        for build in (
            lambda: Instance(r="1", p=((1,),), c=((0,),)),
            lambda: Instance(r=(1,), p=("1",), c=((0,),)),
            lambda: Allocation("0", 2),
            lambda: Contract(alloc, "0"),
            lambda: Contract(alloc, (0,), "00"),
        ):
            with pytest.raises(InvalidInstanceError, match="got the string"):
                build()


class TestAgentTaskUtility:
    def test_example_52_wage_point(self, ex52):
        # At the weak agent's incentive wage the utility nets to zero.
        assert agent_task_utility(ex52, 0, 0, F(1, 10)) == 0

    def test_zero_contract_zero_cost(self):
        inst = Instance(r=(1,), p=((F(1, 2),),), c=((0,),))
        assert agent_task_utility(inst, 0, 0, 0) == 0

    def test_matches_direct_formula_on_random_data(self):
        rng = random.Random(3)
        for inst in random_instances(10, 3, 4):
            i = rng.randrange(inst.n)
            j = rng.randrange(inst.m)
            alpha = F(rng.randint(0, 16), 16)
            assert agent_task_utility(inst, i, j, alpha) == (
                alpha * inst.p[i][j] * inst.r[j] - inst.c[i][j]
            )

    def test_index_errors(self, ex52):
        with pytest.raises(IndexError):
            agent_task_utility(ex52, 2, 0, 0)


class TestRevenue:
    def test_example_52(self, ex52):
        k = make_contract(ex52, (0,), (F(1, 10),))
        assert revenue(ex52, k) == F(9, 100)

    def test_full_share_pays_everything_out(self):
        for inst in random_instances(5, 3, 4):
            k = make_contract(inst, (0,) * inst.m, (1,) * inst.m)
            assert revenue(inst, k) == 0

    def test_example_54_with_subsidies(self, ex52):
        k = make_contract(ex52, (1,), (F(3, 5),), subsidies=(F(1, 20), F(0)))
        assert revenue(ex52, k) == F(3, 20)

    def test_dimension_mismatch(self, ex52):
        other = make_contract(gen_random(2, 3, 1), (0, 1, 0), (0, 0, 0))
        with pytest.raises(DimensionMismatchError):
            revenue(ex52, other)

    def test_invariant_under_task_permutation(self):
        rng = random.Random(11)
        for inst in random_instances(8, 3, 5):
            k = greedy_ef(inst)
            perm = list(range(inst.m))
            rng.shuffle(perm)
            inst2 = Instance(
                r=tuple(inst.r[j] for j in perm),
                p=tuple(tuple(row[j] for j in perm) for row in inst.p),
                c=tuple(tuple(row[j] for j in perm) for row in inst.c),
            )
            k2 = Contract(
                Allocation(tuple(k.assignment[j] for j in perm), inst.n),
                tuple(k.alpha[j] for j in perm),
            )
            assert revenue(inst, k) == revenue(inst2, k2)


class TestVerifyIR:
    def test_greedy_is_exactly_ir(self):
        for inst in random_instances(10, 4, 5):
            ok, slacks = verify_ir(inst, greedy_ef(inst), tol=0)
            assert ok
            assert all(s == 0 for s in slacks.values())  # wages bind exactly

    def test_example_52_underpaid(self, ex52):
        ok, slacks = verify_ir(ex52, make_contract(ex52, (0,), (F(1, 20),)), tol=0)
        assert not ok
        assert slacks[(0, 0)] == F(-1, 200)

    def test_partition_canonical_contract(self):
        inst = gen_partition_ef([1, 2, 3])
        k = make_contract(inst, (0, 1, 1, 2), (F(1, 2), 1, 1, 1))
        ok, _ = verify_ir(inst, k, tol=0)
        assert ok


class TestVerifyEF:
    def test_greedy_is_exactly_ef(self):
        for inst in random_instances(15, 4, 6):
            ok, slacks = verify_ef(inst, greedy_ef(inst), tol=0)
            assert ok
            assert all(s == 0 for row in slacks for s in row)

    def test_example_52_wrong_agent_causes_envy(self, ex52):
        ok, slacks = verify_ef(ex52, make_contract(ex52, (1,), (F(1, 2),)), tol=0)
        assert not ok
        assert slacks[0][1] == -F(1, 25)  # weak agent would net 0.04 switching

    def test_single_agent_vacuous(self):
        inst = gen_random(1, 4, 9)
        k = greedy_ef(inst)
        ok, _ = verify_ef(inst, k, tol=0)
        assert ok

    def test_exactness_catches_tiny_violation(self, ex52):
        # alpha just above the envy-free ceiling for the strong agent.
        k = make_contract(ex52, (1,), (F(1, 2) + F(1, 10**12),))
        ok, _ = verify_ef(ex52, k, tol=0)
        assert not ok

    def test_clamped_form_used_without_ir(self, ex52):
        k = make_contract(ex52, (0,), (0,))  # not IR for the weak agent
        rep = fairness_report(ex52, k)
        assert not rep.ir_ok
        assert rep.lhs_form == "clamped"


class TestVerifyEpsEF:
    def test_ef_implies_eps_ef(self):
        for inst in random_instances(10, 3, 5):
            k = greedy_ef(inst)
            assert verify_eps_ef(inst, k, F(1, 10), tol=0)

    def test_eps_hardness_canonical_contract(self):
        eps = F(1, 20)
        inst = gen_partition_eps_ef([1, 2, 3], eps)
        k = make_contract(inst, (0, 0, 1, 1, 2), (F(1, 2), F(1, 2), 1, 1, 1))
        assert verify_eps_ef(inst, k, eps, tol=0)
        ok, _ = verify_ef(inst, k, tol=0)
        assert not ok  # the relaxation is load-bearing here

    def test_example_52_gap_is_four_percent(self, ex52):
        # Envy gap of the misassigned contract: 1/2 * 1/10 - 1/100 = 1/25.
        k = make_contract(ex52, (1,), (F(1, 2),))
        assert verify_eps_ef(ex52, k, F(1, 25), tol=0)
        assert verify_eps_ef(ex52, k, F(1, 20), tol=0)
        assert not verify_eps_ef(ex52, k, F(3, 100), tol=0)

    def test_negative_eps_rejected(self, ex52):
        with pytest.raises(InvalidInstanceError):
            verify_eps_ef(ex52, greedy_ef(ex52), -1)


class TestVerifyEF1:
    def test_ef_implies_ef1(self):
        for inst in random_instances(10, 3, 5):
            ok, _ = verify_ef1(inst, greedy_ef(inst), tol=0)
            assert ok

    def test_witnesses_are_bundle_members(self):
        for inst in random_instances(10, 4, 6):
            k = greedy_ef(inst)
            _, witnesses = verify_ef1(inst, k, tol=0)
            bundles = k.allocation.bundles()
            for (i, j), w in witnesses.items():
                if w is None:
                    assert not bundles[j]
                else:
                    assert w in bundles[j]

    def test_matches_exhaustive_removal_on_random_contracts(self):
        rng = random.Random(21)
        agree_false = 0
        for inst in random_instances(40, 3, 5):
            assignment = tuple(rng.randrange(inst.n) for _ in range(inst.m))
            alphas = tuple(F(rng.randint(0, 8), 8) for _ in range(inst.m))
            k = Contract(Allocation(assignment, inst.n), alphas)
            ok, _ = verify_ef1(inst, k, tol=0)
            assert ok == ef1_holds_exhaustive(inst, k)
            agree_false += not ok
        assert agree_false > 0  # the sample must exercise both outcomes


class TestVerifyEFS:
    def test_example_54(self, ex52):
        k = make_contract(ex52, (1,), (F(3, 5),), subsidies=(F(1, 20), F(0)))
        assert verify_efs(ex52, k, tol=0)

    def test_underfunded_subsidy_fails(self, ex52):
        k = make_contract(ex52, (1,), (F(3, 5),), subsidies=(F(1, 25), F(0)))
        assert not verify_efs(ex52, k, tol=0)

    def test_equal_shift_preserves_efs_and_costs_n_const(self):
        for inst in random_instances(8, 3, 4):
            base = greedy_ef(inst)
            shift = F(1, 7)
            k0 = Contract(base.allocation, base.alpha, (F(0),) * inst.n)
            k1 = Contract(base.allocation, base.alpha, (shift,) * inst.n)
            assert verify_efs(inst, k0, tol=0) and verify_efs(inst, k1, tol=0)
            assert revenue(inst, k0) - revenue(inst, k1) == inst.n * shift

    def test_missing_subsidies_rejected(self, ex52):
        with pytest.raises(InvalidInstanceError):
            verify_efs(ex52, greedy_ef(ex52))


class TestGreedy:
    def test_example_52(self, ex52):
        k = greedy_ef(ex52)
        assert k.assignment == (0,)
        assert k.alpha == (F(1, 10),)
        assert revenue(ex52, k) == F(9, 100)

    def test_single_perfect_agent(self):
        inst = Instance(r=(1,), p=((1,),), c=((0,),))
        k = greedy_ef(inst)
        assert k.alpha == (F(0),)
        assert revenue(inst, k) == 1

    def test_zero_value_task_gets_zero_contract(self):
        # p*r = 0 but c = 0 keeps the pair viable; alpha must be 0 there.
        inst = Instance(r=(0, 1), p=((1, 1),), c=((0, 0),))
        k = greedy_ef(inst)
        assert k.alpha[0] == 0


class TestUnconstrainedOpt:
    def test_example_52(self, ex52):
        assert unconstrained_opt(ex52) == F(1, 4)

    def test_sqrt_family_at_nine(self):
        assert unconstrained_opt(gen_pof_sqrt(9)) == 3

    def test_zero_costs(self):
        inst = Instance(
            r=(F(1, 2), 1),
            p=((F(1, 4), F(1, 3)), (F(3, 4), F(1, 8))),
            c=((0, 0), (0, 0)),
        )
        expected = max(F(1, 8), F(3, 8)) + max(F(1, 3), F(1, 8))
        assert unconstrained_opt(inst) == expected


class TestMinimumWage:
    def test_example_52_weak_agent(self, ex52):
        assert minimum_wage(ex52, 0, 0) == F(1, 10)

    def test_zero_cost(self):
        inst = Instance(r=(1,), p=((F(1, 2),),), c=((0,),))
        assert minimum_wage(inst, 0, 0) == 0

    def test_unreachable_pair(self):
        inst = Instance(r=(1, 1), p=((0, 1), (1, 0)), c=((F(1, 2), 0), (0, 0)))
        assert minimum_wage(inst, 0, 0) is INF_WAGE


def test_fairness_report_fields(ex52):
    k = greedy_ef(ex52)
    rep = fairness_report(ex52, k, eps=F(1, 10), tol=0)
    assert rep.ir_ok and rep.ef_ok and rep.ef1_ok and rep.eps_ef_ok
    assert rep.efs_ok is None
    assert rep.ef_slacks[0][0] == 0 and rep.ef_slacks[1][1] == 0
    assert rep.epsilon == F(1, 10)


class TestUtilityMatrix:
    def test_entries_and_derived_products(self):
        for inst in random_instances(10, 3, 5):
            alpha = tuple(F(j + 1, inst.m + 2) for j in range(inst.m))
            u = utilities(inst, alpha)
            for i in range(inst.n):
                for j in range(inst.m):
                    assert inst.pr[i][j] == inst.p[i][j] * inst.r[j]
                    assert u[i][j] == agent_task_utility(inst, i, j, alpha[j])

    def test_pr_is_not_part_of_identity(self):
        a = Instance(r=(1, F(1, 2)), p=((F(1, 3), 1),), c=((0, 0),))
        b = Instance(r=(1, "1/2"), p=(("1/3", 1),), c=((0, 0),))
        assert a == b and hash(a) == hash(b)
        assert "pr" not in repr(a)

    def test_report_builds_the_matrix_once(self, monkeypatch, ex52):
        calls = []
        real = core.utilities
        monkeypatch.setattr(core, "utilities", lambda *a: calls.append(a) or real(*a))
        k = make_contract(ex52, [1], [F(3, 5)], [F(1, 20), 0])
        rep = fairness_report(ex52, k, eps=F(1, 10), tol=0)
        assert rep.efs_ok is not None and len(calls) == 1


def _random_contract(rng, inst, t):
    """Random contracts, and every fourth one a greedy contract (all envy
    slacks exactly 0) with some wages cut by 1e-10, so that tol 1e-9 flips
    IR, the left-hand-side form and envy verdicts."""
    if t % 4 == 3:
        base = greedy_ef(inst)
        assignment = base.assignment
        alphas = tuple(max(a - rng.randint(0, 1) * F(1, 10**10), F(0)) for a in base.alpha)
    else:
        assignment = tuple(rng.randrange(inst.n) for _ in range(inst.m))
        alphas = tuple(F(rng.randint(0, 7), 7) for _ in range(inst.m))
    subs = tuple(F(rng.randint(0, 3), 12) for _ in range(inst.n)) if t % 2 else None
    return Contract(Allocation(assignment, inst.n), alphas, subs)


def test_report_agrees_with_every_standalone_verifier():
    """The report and the five verifiers must give what the definitions
    give pair by pair (`report_reference`), on IR and non-IR (clamped)
    contracts, with and without subsidies, at tol 0 and at the CLI's 1e-9."""
    rng = random.Random(5)
    seen = set()
    tol_flips = 0
    for t in range(160):
        inst = gen_random(2 + t % 3, 1 + t % 4, 7000 + t)
        k = _random_contract(rng, inst, t)
        eps = (F(0), F(1, 10), F(1, 3))[t % 3]
        reports = []
        for tol in (F(0), F(1, 10**9)):
            rep = fairness_report(inst, k, eps, tol)
            ref = report_reference(inst, k, eps, tol)
            assert vars(rep) == ref
            assert verify_ir(inst, k, tol) == (ref["ir_ok"], ref["ir_slacks"])
            assert verify_ef(inst, k, tol) == (ref["ef_ok"], ref["ef_slacks"])
            assert verify_eps_ef(inst, k, eps, tol) == ref["eps_ef_ok"]
            assert verify_ef1(inst, k, tol) == (ref["ef1_ok"], ref["ef1_witnesses"])
            if k.subsidies:
                assert verify_efs(inst, k, tol) == ref["efs_ok"]
            reports.append(rep)
            seen.add((rep.lhs_form, rep.ef1_ok, rep.efs_ok, eps > 0 and rep.eps_ef_ok != rep.ef_ok))
        assert reports[0].ef1_ok == ef1_holds_exhaustive(inst, k)
        verdicts = [(r.ir_ok, r.ef_ok, r.eps_ef_ok, r.ef1_ok, r.efs_ok) for r in reports]
        tol_flips += verdicts[0] != verdicts[1]
    assert {s[0] for s in seen} == {"simplified", "clamped"}
    assert {s[1] for s in seen} == {True, False}
    assert {s[2] for s in seen} == {None, True, False}
    assert any(s[3] for s in seen)  # eps > 0 changed a verdict somewhere
    assert tol_flips > 0


def test_report_rejects_negative_eps(ex52):
    with pytest.raises(InvalidInstanceError):
        fairness_report(ex52, greedy_ef(ex52), eps=-1)


def test_report_rejects_negative_tol(ex52):
    # A negative tolerance would demand a positive margin: the exactly-EF
    # greedy contract would fail IR and EF.  Every verifier shares the guard.
    k = greedy_ef(ex52)
    efs = Contract(k.allocation, k.alpha, (F(0), F(0)))
    for check in (
        lambda: fairness_report(ex52, k, tol=-1),
        lambda: verify_ir(ex52, k, tol=-1),
        lambda: verify_ef(ex52, k, tol=F(-1, 10**9)),
        lambda: verify_eps_ef(ex52, k, F(1, 10), tol=-1),
        lambda: verify_ef1(ex52, k, tol=-1),
        lambda: verify_efs(ex52, efs, tol=-1),
    ):
        with pytest.raises(InvalidInstanceError, match="tol must be nonnegative"):
            check()


@pytest.mark.parametrize(
    "x, exact, number, text",
    [
        (F(3), True, 3, "3"),
        (F(3), False, 3, "3"),
        (F(-2, 1), True, -2, "-2"),
        (F(1, 3), True, "1/3", "1/3"),
        (F(-5, 7), True, "-5/7", "-5/7"),
        (F(1, 3), False, 0.333333333333, "0.333333333333"),
        (F(2, 3), False, 0.666666666667, "0.666666666667"),
        (F(123456789, 1000), False, 123456.789, "123456.789"),
        (F(10**13 + 1, 10), False, 1.00000000000e12, "1e+12"),
        (0.5, False, 0.5, "0.5"),
        ("7/1", True, 7, "7"),
    ],
)
def test_number_formats(x, exact, number, text):
    # JSON numbers are ints when integral, "num/den" in exact mode and
    # otherwise floats rounded to 12 significant digits; the text form
    # follows the same rules.
    got = format_number(x, exact)
    assert got == number and type(got) is type(number)
    assert format_scalar_text(x, exact) == text
