"""Discretization, the profile DP, and the two FPTAS solvers."""

import itertools
import json
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest

from faircon import dp as dp_module
from faircon.cli import main
from faircon.core import (
    Allocation,
    Contract,
    Instance,
    agent_task_utility,
    greedy_ef,
    revenue,
    unconstrained_opt,
    verify_ef1,
    verify_eps_ef,
    verify_ir,
)
from faircon.dp import (
    Discretization,
    _Packer,
    _band_error,
    _band_margin,
    _dedupe_block,
    _ef1_screen,
    _screen_slack,
    _task_options,
    adaptive_grid,
    dp_enumerate,
    instance_bit_length,
    solve_ef1_fptas,
    solve_eps_ef_fptas,
    uniform_grid,
    utility_guesses,
)
from faircon.errors import BudgetExceededError, FairconError, InvalidInstanceError
from faircon.exact import solve_opt_ef
from faircon.instances import (
    PROFILES,
    gen_example,
    gen_partition_ef,
    gen_partition_ef1,
    gen_partition_eps_ef,
    gen_random,
    gen_two_agent_hard,
)
from faircon.numeric import ONE, ZERO, ceil_div
from faircon.serialize import dump_json, instance_to_dict

from conftest import make_contract, random_instances
from oracles import (
    adaptive_task_grids_reference,
    best_h_per_profile,
    best_over_guesses_reference,
    dedupe_reference,
    dp_enumerate_reference,
    dp_profiles,
    ef1_holds_exhaustive,
    exhaustive_profiles,
    task_options_reference,
)


class TestRounding:
    def test_unit_rounding_overshoot_bounded(self):
        # Every option's units, decoded from its key, round the true
        # utilities up by less than one step.
        inst = gen_random(2, 3, 123)
        disc = uniform_grid(inst, 10)
        n = inst.n
        packer = _Packer(10**6, n * n)
        for j in range(inst.m):
            for agent, alpha, key, dh in _task_options(inst, disc, j, packer):
                comps = packer.unpack_rows(np.array([key], dtype=np.int64))[0]
                tru = (1 - alpha) * inst.p[agent][j] * inst.r[j]
                assert tru <= dh * F(1, 10) <= tru + F(1, 10)
                for i in range(n):
                    true = max(agent_task_utility(inst, i, j, alpha), ZERO)
                    rounded = comps[i * n + agent] * F(1, 10)
                    assert true <= rounded <= true + F(1, 10)


class TestDpEnumerate:
    def test_trivial_single_task(self):
        inst = Instance(r=(1,), p=((1,),), c=((0,),))
        dp = dp_enumerate(inst, uniform_grid(inst, 1))
        # alpha = 0 gives the principal everything; alpha = 1 the agent.
        assert dp_profiles(dp) == {(0,): 1, (1,): 0}

    def test_profiles_match_exhaustive_enumeration(self):
        # In the last instance neither agent earns anything at alpha = 0, so
        # both assignments land on the all-zero profile: the weak agent comes
        # first in the option order, the strong one leaves the principal more.
        weak_first = Instance(r=(1,), p=((F(1, 2),), (1,)), c=((0,), (0,)))
        for inst in (gen_random(2, 2, 9), gen_random(2, 3, 10), weak_first):
            disc = uniform_grid(inst, 4)  # five-point grids
            dp = dp_enumerate(inst, disc)
            expected = exhaustive_profiles(
                inst,
                grids=disc.task_grids,
                agent_steps=disc.agent_steps,
                principal_step=disc.principal_step,
            )
            assert dp_profiles(dp) == best_h_per_profile(expected)

    def test_every_representative_is_ir(self):
        inst = gen_random(2, 3, 77)
        dp = dp_enumerate(inst, uniform_grid(inst, 5))
        for pos in range(len(dp.h)):
            assignment, alphas = dp.reconstruct(pos)
            k = Contract(Allocation(assignment, inst.n), alphas)
            ok, _ = verify_ir(inst, k, tol=0)
            assert ok

    def test_example_52_rounded_optimum_profile_present(self, ex52):
        # eps = 1/4 -> internal grid 1/12; the EF optimum alpha* = 1/10
        # rounds to 2/12 and lands on profile v = (1, 0, 0, 0) with h = 1,
        # the most principal units that profile reaches.
        dp = dp_enumerate(ex52, uniform_grid(ex52, 12))
        assert dp_profiles(dp)[(1, 0, 0, 0)] == 1

    def test_dedupe_keeps_the_smallest_gidx_of_a_tie(self):
        # Key 5 ties on h = 2 in both blocks; the second block's gidx 4 is
        # the smaller and must win the merge, as a sort-merge must keep it.
        # Key 3 keeps its larger h whatever its gidx.
        first = _dedupe_block([np.array([5, 3, 5])], np.array([2, 1, 1]), np.array([10, 11, 3]))
        second = _dedupe_block([np.array([5, 3])], np.array([2, 0]), np.array([4, 2]))
        cols, h, gidx = _dedupe_block(
            [np.concatenate(first[0] + second[0])],
            np.concatenate((first[1], second[1])),
            np.concatenate((first[2], second[2])),
        )
        rows = np.stack(cols, axis=1)
        assert rows.tolist() == [[3], [5]]
        assert h.tolist() == [1, 2]
        assert gidx.tolist() == [11, 4]

    def test_backtracking_rebuilds_every_final_state(self):
        # dp-eps-ef's grid at eps 1/15 (K = 180) packs partition-ef
        # [1, 2, 3]'s profiles into two words.  At every final position the
        # path's option deltas and principal units sum to the state's key
        # and h, and choices() and reconstruct() name the same path.
        inst = gen_partition_ef([1, 2, 3])
        dp = dp_enumerate(inst, uniform_grid(inst, 180))
        assert dp.packer.n_words == 2
        positions = np.arange(len(dp.h))
        keys, h = np.zeros_like(dp.keys), np.zeros_like(dp.h)
        for t, o in dp._walk(positions):
            keys += dp.tables[t][2][o]
            h += dp.tables[t][3][o]
        assert np.array_equal(keys, dp.keys) and np.array_equal(h, dp.h)
        agents, alphas = dp.choices(positions)
        paths = [dp.reconstruct(pos) for pos in range(len(positions))]
        assert agents.tolist() == [list(a) for a, _ in paths]
        assert alphas.tolist() == [[float(x) for x in al] for _, al in paths]

    def test_state_budget(self):
        inst = gen_random(2, 4, 3)
        with pytest.raises(BudgetExceededError):
            dp_enumerate(inst, uniform_grid(inst, 30), budget_states=10)


def _drawn_block(rng, words: int):
    """A dedupe block as the DP makes them, or harder: key words drawn from
    a small pool (dense key ties), narrow or near 2^62 wide, h in {0, 1, 2}
    (dense h ties), gidx distinct but shuffled, so ties arrive out of gidx
    order; half the blocks are sorted runs, like one option's states plus
    its delta, laid end to end."""
    n = int(rng.choice([0, 1, 2, int(rng.integers(3, 80))]))
    top = 2**62 if rng.random() < 0.3 else 4
    pool = rng.integers(0, top, size=(int(rng.integers(1, 6)), words), dtype=np.int64)
    rows = pool[rng.integers(0, len(pool), size=n)]
    if rng.random() < 0.5:
        cut = np.sort(rng.integers(0, n + 1, size=2))
        runs = np.split(rows, cut)
        rows = np.concatenate([r[np.lexsort(r.T[::-1])] for r in runs]).reshape(n, words)
    h = rng.integers(0, 3, size=n).astype(np.int64)
    gidx = rng.permutation(3 * n)[:n].astype(np.int64)
    return rows, h, gidx


# partition-ef [1, 2, 3] on dp-eps-ef's eps 1/15 grid (K = 180): two key
# words, tasks of 309, 18, 33 and 48 options, 10 the floor's h and
# future_h[0] = 108.  Caps (100, 30, 30) bind agents 1 and 2 only (each
# component reaches 90 or 36), (98, 44, 44) are dp-eps-ef's own caps, which
# no state reaches, and 109 prunes task 0's layer, and so every later one,
# to zero states.
PEF_123_RUNS = [
    (None, None),
    (None, 10),
    ((100, 30, 30), None),
    ((30, 12, 12), 10),
    ((98, 44, 44), 10),
    (None, 109),
]


class TestSortOnceDedupe:
    """The key-only sort and its tie pass keep what a sort over (key, -h,
    gidx) keeps, and the DP built on them equals the reference DP."""

    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_matches_reference_on_drawn_blocks(self, words):
        rng = np.random.default_rng(words)
        for _ in range(300):
            rows, h, gidx = _drawn_block(rng, words)
            want = dedupe_reference(rows, h, gidx)
            cols, got_h, got_gidx = _dedupe_block(list(rows.T.copy()), h, gidx)
            got = (np.stack(cols, axis=1), got_h, got_gidx)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype == np.int64
                assert np.array_equal(g, w)

    @pytest.mark.parametrize("caps, min_final_h", PEF_123_RUNS)
    def test_dp_matches_reference_at_every_chunk(self, monkeypatch, caps, min_final_h):
        inst = gen_partition_ef([1, 2, 3])
        disc = uniform_grid(inst, 180)
        layers, keys, h, total = dp_enumerate_reference(inst, disc, caps, min_final_h)
        # 5,000 candidates a block forces the rolling merge on tasks 1-3.
        for chunk in (dp_module._CHUNK, 5_000):
            monkeypatch.setattr(dp_module, "_CHUNK", chunk)
            dp = dp_enumerate(inst, disc, prune_caps=caps, min_final_h=min_final_h)
            assert dp.packer.n_words == 2
            assert [g.tolist() for g in dp.gidx] == [g.tolist() for g in layers]
            assert all(g.dtype == np.int64 for g in dp.gidx)
            assert dp.keys.dtype == keys.dtype and dp.keys.shape == keys.shape
            assert np.array_equal(dp.keys, keys)
            assert dp.h.dtype == h.dtype and np.array_equal(dp.h, h)
            assert dp.states_total == total
        if min_final_h == 109:
            assert total == 0


def test_eps_ef_grid_needs_no_caps():
    # dp-eps-ef used to pass agent i the cap ceil(B_i / step) + 2m, with
    # B_i its best possible bundle utility.  Its grid ends at alpha = 1, so
    # agent i's units on any bundle are at most sum_t ceil(w+_it / step) <=
    # ceil(B_i / step) + m: no state reaches the cap, and dropping it
    # changes no state.  116 runs: random 2-4 agents x 2-4 tasks, two seeds
    # in every profile, and four partition and two-agent instances, each at
    # eps 1/4 and 1/10.
    insts = [
        gen_random(n, m, seed, profile)
        for n in (2, 3, 4) for m in (2, 3, 4) for profile in PROFILES for seed in (1, 2)
    ]
    insts += [
        gen_partition_ef([1, 2]), gen_partition_ef1([1]),
        gen_partition_eps_ef([1], F(1, 10)), gen_two_agent_hard([1, 1]),
    ]
    for inst, eps in itertools.product(insts, (F(1, 4), F(1, 10))):
        K = ceil_div(ONE, eps / 3 / inst.m)  # as solve_eps_ef_fptas builds it
        disc = uniform_grid(inst, K)
        best = [sum((max(inst.welfare(i, j), ZERO) for j in range(inst.m)), ZERO) for i in range(inst.n)]
        caps = [ceil_div(b * K, ONE) + 2 * inst.m for b in best]
        setup = dp_module._dp_setup(inst, disc)
        reach = sum(setup.packer.unpack_rows(t[2]).max(axis=0) for t in setup.tables)
        assert np.all(reach < np.repeat(caps, inst.n))
        floor = revenue(inst, greedy_ef(inst)) - 2 * eps / 3
        h_floor = int(floor * K) if floor > 0 else None
        plain = dp_enumerate(inst, disc, min_final_h=h_floor)
        capped = dp_enumerate(inst, disc, prune_caps=caps, min_final_h=h_floor)
        # The reference tests every state against the caps, with no reach
        # pre-check to skip the test.
        layers, keys, h, _ = dp_enumerate_reference(inst, disc, caps, h_floor)
        for dp in (capped, SimpleNamespace(gidx=layers, keys=keys, h=h)):
            assert [g.tolist() for g in plain.gidx] == [g.tolist() for g in dp.gidx]
            assert np.array_equal(plain.keys, dp.keys) and np.array_equal(plain.h, dp.h)


class TestAdaptiveGrid:
    def test_zero_probability_contributes_no_points(self):
        # Agent 0 can never earn on the task (p r = 0, c > 0): its subgrid
        # is empty and the task grid comes from agent 1 alone.
        inst = Instance(r=(1,), p=((0,), (F(1, 2),)), c=((F(1, 2),), (F(1, 8),)))
        disc = adaptive_grid(inst, guess=(F(1, 4), F(1, 4)), delta=F(1, 4))
        grid = disc.task_grids[0]
        wage1 = F(1, 8) / F(1, 2)
        assert min(grid) == wage1  # nothing below agent 1's wage
        # cap is min over agents of the guess-respecting ceiling, here from
        # agent 1: (1/4 + 1/8) / (1/2) = 3/4 (agent 0's cap saturates at 1).
        assert max(grid) == F(3, 4)

    def test_example_52_zero_guess_collapses_grid(self, ex52):
        disc = adaptive_grid(ex52, guess=(ZERO, ZERO), delta=F(1, 12))
        assert disc.task_grids[0] == (F(1, 10),)

    def test_loose_guess_spans_to_one(self, ex52):
        disc = adaptive_grid(ex52, guess=(F(1), F(1)), delta=F(1, 12))
        assert max(disc.task_grids[0]) == 1
        assert min(disc.task_grids[0]) == F(1, 10)

    def test_guess_validation(self, ex52):
        with pytest.raises(InvalidInstanceError):
            adaptive_grid(ex52, guess=(-1, 0), delta=F(1, 4))
        with pytest.raises(InvalidInstanceError):
            adaptive_grid(ex52, guess=(0, 0), delta=2)


def test_guess_ladder_covers_every_utility():
    inst = gen_random(2, 4, 15)
    f = 12
    ladder = utility_guesses(inst, f)
    rng = random.Random(2)
    samples = [F(0)] + [
        F(rng.randint(1, 4 * 2**f), 2**f) for _ in range(50)
    ]  # spans [2^-f, m]
    for u in samples:
        assert any(g / 2 <= u <= g for g in ladder) or u == 0
        if u == 0:
            assert F(0) in ladder
    with pytest.raises(InvalidInstanceError):
        utility_guesses(inst, -1)


def test_instance_bit_length_counts_all_entries():
    inst = Instance(r=(F(1, 2),), p=((F(3, 4),),), c=((0,),))
    # 1/2 -> 1+2, 3/4 -> 2+3, 0/1 -> 0+1 bits.
    assert instance_bit_length(inst) == 9


class TestEpsEfFptas:
    def test_example_52(self, ex52):
        res = solve_eps_ef_fptas(ex52, F(1, 20))
        assert verify_eps_ef(ex52, res.contract, F(1, 20), tol=0)
        assert res.revenue >= F(9, 100) - F(1, 20)
        assert res.revenue >= F(1, 25)
        assert revenue(ex52, res.contract) == res.revenue

    def test_single_agent(self):
        inst = gen_random(1, 4, 33)
        res = solve_eps_ef_fptas(inst, F(1, 4))
        assert res.revenue >= unconstrained_opt(inst) - F(1, 4)

    def test_guarantee_on_small_random(self):
        for seed in (201, 202, 203):
            inst = gen_random(2, 3, seed)
            opt = solve_opt_ef(inst).revenue
            res = solve_eps_ef_fptas(inst, F(1, 4))
            assert verify_eps_ef(inst, res.contract, F(1, 4), tol=0)
            assert res.revenue >= opt - F(1, 4)

    def test_deterministic(self):
        inst = gen_random(2, 3, 204)
        a = solve_eps_ef_fptas(inst, F(1, 4))
        b = solve_eps_ef_fptas(inst, F(1, 4))
        assert a.contract == b.contract and a.revenue == b.revenue

    def test_rejects_nonpositive_eps(self, ex52):
        with pytest.raises(InvalidInstanceError):
            solve_eps_ef_fptas(ex52, 0)


class TestEf1Fptas:
    def test_single_agent(self):
        inst = gen_random(1, 3, 44)
        res = solve_ef1_fptas(inst, F(1, 4), f_bits=8)
        assert res.revenue >= unconstrained_opt(inst) - F(1, 4)
        ok, _ = verify_ef1(inst, res.contract, tol=0)
        assert ok

    def test_guarantee_on_small_random(self):
        for seed in (301, 302):
            inst = gen_random(2, 3, seed)
            opt = solve_opt_ef(inst).revenue
            res = solve_ef1_fptas(inst, F(1, 4), f_bits=8)
            ok, _ = verify_ef1(inst, res.contract, tol=0)
            assert ok
            assert res.revenue >= opt - F(1, 4)
            assert revenue(inst, res.contract) == res.revenue

    def test_hardness_family_three_agents(self):
        # n = 3 exercises the multi-word profile packing.
        inst = gen_partition_ef1([1])
        opt_ef = solve_opt_ef(inst).revenue
        res = solve_ef1_fptas(inst, F(1, 10), f_bits=4)
        ok, _ = verify_ef1(inst, res.contract, tol=0)
        assert ok
        assert res.revenue >= opt_ef - F(1, 10)

    def test_meta_records_grid_parameters(self):
        inst = gen_random(2, 2, 55)
        res = solve_ef1_fptas(inst, F(1, 4), f_bits=6)
        assert {"nu", "delta", "guess", "states", "guesses"} <= res.meta.keys()
        assert res.meta["nu"] == min(F(1, 8), F(1, 12))


def _min_ef1_slack(inst, k):
    """Smallest exact EF1 slack over ordered pairs, from the definition."""
    bundles = k.allocation.bundles()
    u = [
        [k.alpha[t] * inst.p[i][t] * inst.r[t] - inst.c[i][t] for t in range(inst.m)]
        for i in range(inst.n)
    ]
    slacks = []
    for i in range(inst.n):
        own = sum((u[i][t] for t in bundles[i]), ZERO)
        for j in range(inst.n):
            if i != j and bundles[j]:
                gains = [max(u[i][t], ZERO) for t in bundles[j]]
                slacks.append(own - (sum(gains, ZERO) - max(gains)))
    return min(slacks)


def _ef1_float_plausible(inst, k):
    """The float EF1 screen of one contract, as a one-row block."""
    agents = np.array([k.assignment], dtype=np.int64)
    alphas = np.array([[float(a) for a in k.alpha]], dtype=np.float64)
    return bool(_ef1_screen(inst, agents, alphas, _screen_slack(inst.m))[0])


class TestEf1FloatScreen:
    """The float screen may only drop contracts that fail EF1 exactly; a
    dropped true passer would silently cost the dp-ef1 solver revenue."""

    def test_greedy_contracts_tie_at_zero_and_pass(self):
        # Greedy pays each task the lowest incentive wage, so every utility
        # is at most 0 and every own bundle is worth exactly 0.
        for inst in random_instances(45, 3, 5):
            if inst.n > 1:
                k = greedy_ef(inst)
                assert _min_ef1_slack(inst, k) == 0
                assert _ef1_float_plausible(inst, k)

    @pytest.mark.parametrize(
        "assignment, p, c, alpha",
        [
            # Agent 0: own utility 1/7 = (1/3 + 1/7) for S_1 minus the dropped 1/3.
            (
                [0, 1, 1],
                ((F(6, 7), 1, F(6, 7)), (1, 1, 1)),
                ((F(1, 7), F(1, 3), F(1, 7)), (0, 0, 0)),
                (F(1, 3), F(2, 3), F(1, 3)),
            ),
            # Agent 0: own utility 1/3 = (10/21 + 1/3) for S_1 minus 10/21.
            (
                [0, 1, 1],
                ((F(7, 9), F(6, 7), 1), (1, 1, 1)),
                ((F(1, 3), F(2, 21), 0), (0, 0, 0)),
                (F(6, 7), F(2, 3), F(1, 3)),
            ),
            # Agent 1: own utility 1/7 = (1/7 + 5/21) for S_0 minus 5/21.
            (
                [0, 0, 1],
                ((1, 1, 1), (F(2, 3), F(6, 7), F(3, 7))),
                ((0, 0, 0), (F(1, 7), F(1, 21), F(1, 7))),
                (F(3, 7), F(1, 3), F(2, 3)),
            ),
        ],
    )
    def test_hand_built_exact_ties_pass(self, assignment, p, c, alpha):
        inst = Instance(r=(1, 1, 1), p=p, c=c)
        k = make_contract(inst, assignment, alpha)
        assert verify_ir(inst, k)[0]
        assert _min_ef1_slack(inst, k) == 0
        assert verify_ef1(inst, k, tol=0)[0] and ef1_holds_exhaustive(inst, k)
        assert _ef1_float_plausible(inst, k)

    def test_never_drops_an_exact_passer(self):
        rng = random.Random(8)
        passers = 0
        for inst in random_instances(60, 3, 4):
            assignment = [rng.randrange(inst.n) for _ in range(inst.m)]
            k = make_contract(inst, assignment, [F(rng.randint(0, 9), 9) for _ in range(inst.m)])
            if verify_ef1(inst, k, tol=0)[0]:
                passers += 1
                assert _ef1_float_plausible(inst, k)
        assert passers > 10

    def test_clear_failure_is_screened_out(self):
        inst = Instance(r=(1, 1, 1), p=((1, 1, 1), (1, 1, 1)), c=((0, 0, 0), (0, 0, 0)))
        k = make_contract(inst, [0, 1, 1], [F(1, 10), F(1, 2), F(1, 2)])
        assert not verify_ef1(inst, k, tol=0)[0]
        assert not _ef1_float_plausible(inst, k)


def _fptas_runs(monkeypatch, inst, eps, f_bits, budget_states=None):
    """solve_ef1_fptas's result and the DpResult of every guess it ran."""
    runs = []
    real = dp_module.dp_enumerate

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(dp_module, "dp_enumerate", recording)
    kwargs = {} if budget_states is None else {"budget_states": budget_states}
    res = solve_ef1_fptas(inst, eps, f_bits=f_bits, **kwargs)
    monkeypatch.undo()
    return res, runs


def _options_match(inst, disc):
    """The kernel's options equal the Fraction reference's, with int units."""
    packer = _Packer(10**6, inst.n * inst.n)
    for j in range(inst.m):
        kernel = _task_options(inst, disc, j, packer)
        assert kernel == task_options_reference(inst, disc, j, packer)
        assert all(type(x) is int for o in kernel for x in (o[0], o[3], *o[2]))


# Agent 0 can never be paid on task 0 (p r = 0, c > 0); agent 1 does task 1
# for free (p r = 0, c = 0).
ZERO_PR = Instance(
    r=(1, F(3, 4)), p=((0, F(1, 2)), (F(1, 3), 0)), c=((F(1, 4), F(1, 9)), (F(1, 7), 0))
)


class TestOptionKernel:
    """The integer option kernel and the integer adaptive grid equal the
    Fraction definitions they replace, option for option."""

    def test_uniform_grids(self):
        for inst in random_instances(12, 3, 4, seed0=4100) + [ZERO_PR]:
            for steps in (1, 7, 12):
                _options_match(inst, uniform_grid(inst, steps))

    def test_adaptive_grids(self):
        checked = 0
        for inst in random_instances(12, 3, 4, seed0=4200) + [ZERO_PR]:
            ladder = utility_guesses(inst, 2)
            guesses = list(itertools.product(ladder, repeat=inst.n))
            for guess in random.Random(inst.m).sample(guesses, min(4, len(guesses))):
                for K in (5, 24):
                    disc = adaptive_grid(inst, guess, F(1, K))
                    assert disc.task_grids == adaptive_task_grids_reference(inst, guess, K)
                    _options_match(inst, disc)
                    checked += 1
        assert checked > 60

    def test_zero_guess(self, ex52):
        for inst in (ex52, ZERO_PR, gen_partition_ef1([1])):
            guess = (ZERO,) * inst.n
            disc = adaptive_grid(inst, guess, F(1, 12))
            assert disc.task_grids == adaptive_task_grids_reference(inst, guess, 12)
            _options_match(inst, disc)

    def test_positive_utility_on_degenerate_grid_raises(self):
        inst = Instance(r=(1,), p=((F(1, 2),), (1,)), c=((F(1, 8),), (F(1, 4),)))
        disc = Discretization(
            task_grids=((F(1, 4), F(1, 2)),),
            agent_steps=(ZERO, F(1, 8)),
            principal_step=F(1, 8),
        )
        packer = _Packer(100, 4)
        # At alpha 1/2 agent 0 earns 1/8 but has no utility grid.
        with pytest.raises(FairconError) as ref:
            task_options_reference(inst, disc, 0, packer)
        with pytest.raises(FairconError) as kernel:
            _task_options(inst, disc, 0, packer)
        assert str(kernel.value) == str(ref.value) == (
            "agent 0 has positive utility 1/8 but a degenerate grid"
        )


# (instance, eps, f_bits) whose every guess's DP band the screen tests read:
# partition-ef1 [1], the scan-bound benchmark solve, and seeded 2x4 and 3x3
# instances.
SCREEN_CASES = [
    (gen_partition_ef1([1]), F(1, 6), 1),
    (gen_random(2, 4, 21), F(1, 4), 3),
    (gen_random(2, 4, 22, "sparse-ability"), F(1, 4), 3),
    (gen_random(3, 3, 23), F(1, 4), 2),
    (gen_random(3, 3, 24, "cost-heavy"), F(1, 4), 2),
]


class TestBandScreen:
    """The numpy EF1 screen over a DP band may only drop positions whose
    contracts fail EF1 exactly."""

    @pytest.mark.parametrize("case", range(len(SCREEN_CASES)))
    def test_never_drops_an_exact_passer(self, monkeypatch, case):
        inst, eps, f_bits = SCREEN_CASES[case]
        _, runs = _fptas_runs(monkeypatch, inst, eps, f_bits)
        passers = dropped = 0
        for dp in runs:
            positions, _ = dp.band(None)
            screened = _ef1_screen(inst, *dp.choices(positions), _screen_slack(inst.m))
            for pos, ok in zip(positions.tolist(), screened.tolist()):
                assignment, alphas = dp.reconstruct(pos)
                k = Contract(Allocation(assignment, inst.n), alphas)
                if verify_ef1(inst, k, tol=0)[0]:
                    passers += 1
                    assert ok, (assignment, alphas)
                else:
                    dropped += not ok
                assert ok == _ef1_float_plausible(inst, k)
        assert passers > 0
        if case == 0:
            # The partition bands are mostly clear failures; on the random
            # instances every band contract here is EF1.
            assert dropped > 1000

    def test_band_revenue_error_bound(self, monkeypatch):
        # The scan-bound instance: thousands of band positions per solve.
        inst, eps, f_bits = SCREEN_CASES[0]
        _, runs = _fptas_runs(monkeypatch, inst, eps, f_bits)
        bound = _band_error(inst.m)
        checked = 0
        worst = 0.0
        for dp in runs:
            positions, frev = dp.band(None)
            for pos, fr in zip(positions.tolist(), frev.tolist()):
                assignment, alphas = dp.reconstruct(pos)
                rev = revenue(inst, Contract(Allocation(assignment, inst.n), alphas))
                worst = max(worst, abs(F(fr) - rev))
                checked += 1
        assert checked > 1000
        assert worst <= bound
        assert _band_margin(inst.m) == 1e-9 and _screen_slack(inst.m) == 1e-7

    def test_scan_reconstructs_only_screen_passers(self, monkeypatch):
        # 6,289 band positions count as verifier calls, but the screen
        # rejects all but a few before any contract is rebuilt.
        rebuilt = []
        real = dp_module.DpResult.reconstruct
        monkeypatch.setattr(
            dp_module.DpResult, "reconstruct", lambda dp, i: rebuilt.append(i) or real(dp, i)
        )
        res = solve_ef1_fptas(gen_partition_ef1([1]), F(1, 6), f_bits=1)
        assert (res.meta["exact_checks"], res.meta["states"]) == (6289, 8659)
        assert res.revenue == F(7, 10)
        assert 0 < len(rebuilt) < 100


# (instance, eps, f_bits) the guess driver is checked on: the 20
# criterion-5 solves, the four dp-ef1 golden solves, and seeded 2x2 and 2x3
# draws over every profile.  The 2x2 draw at seed 48 holds an incumbent
# within one step below unconstrained_opt until a later guess reaches it.
DRIVER_CASES = (
    [(gen_random(2, 4, 20_000 + t), F(1, 4), 8) for t in range(20)]
    + [
        (gen_example("5.2", F(1, 100)), F(1, 4), 6),
        (gen_random(2, 3, 1), F(1, 4), 6),
        (gen_partition_ef1([1]), F(1, 6), 1),
        (gen_random(2, 4, 7, "sparse-ability"), F(1, 4), 3),
    ]
    + [(gen_random(2, 2 + s % 2, s, PROFILES[s % 3]), F(1, 4), 4) for s in range(40, 52)]
)


def _traced_guesses(monkeypatch, inst, eps, f_bits):
    """solve_ef1_fptas's result and, for every guess it reached, in order:
    (principal-unit bound, incumbent revenue before the guess, DP run made)."""
    events, incumbent = [], [None]
    real_setup, real_enum, real_scan = (
        dp_module._dp_setup, dp_module.dp_enumerate, dp_module._scan_candidates
    )

    def setup(inst, disc):
        prepared = real_setup(inst, disc)
        events.append([prepared.future_h[0] * disc.principal_step, incumbent[0], False])
        return prepared

    def enumerate_(*args, **kwargs):
        events[-1][2] = True
        return real_enum(*args, **kwargs)

    def scan(*args):
        out = real_scan(*args)
        incumbent[0] = out[0]
        return out

    monkeypatch.setattr(dp_module, "_dp_setup", setup)
    monkeypatch.setattr(dp_module, "dp_enumerate", enumerate_)
    monkeypatch.setattr(dp_module, "_scan_candidates", scan)
    res = solve_ef1_fptas(inst, eps, f_bits=f_bits)
    monkeypatch.undo()
    return res, events


class TestGuessDriver:
    """The guess driver stops at unconstrained_opt and skips guesses whose
    principal units cannot beat the incumbent, and so returns what running
    every guess returns."""

    @pytest.mark.parametrize("case", range(len(DRIVER_CASES)))
    def test_matches_every_guess_reference(self, monkeypatch, case):
        inst, eps, f_bits = DRIVER_CASES[case]
        monkeypatch.setattr(dp_module, "_best_over_guesses", best_over_guesses_reference)
        ref = solve_ef1_fptas(inst, eps, f_bits=f_bits)
        monkeypatch.undo()
        res, events = _traced_guesses(monkeypatch, inst, eps, f_bits)
        assert res.contract == ref.contract
        assert res.revenue == ref.revenue
        assert res.meta["guess"] == ref.meta["guess"]
        assert res.meta["guesses"] <= ref.meta["guesses"]
        assert res.meta["states"] <= ref.meta["states"]

        # A guess is run exactly when there is no incumbent yet or its bound
        # beats the incumbent; the rest count as pruned.
        made = [ran for _, _, ran in events]
        assert made == [inc is None or bound > inc for bound, inc, _ in events]
        assert res.meta["guesses"] == sum(made)
        assert res.meta["guesses_pruned"] == len(events) - sum(made)
        # The loop ends right after the incumbent first earns
        # unconstrained_opt, and never before: below it, every guess is reached.
        ceiling = unconstrained_opt(inst)
        assert all(inc is None or inc < ceiling for _, inc, _ in events)
        if res.revenue < ceiling:
            assert len(events) == ref.meta["guesses"]

    def test_rules_at_their_edges(self):
        # One agent and one task worth 1 at cost 0: contract alpha earns
        # 1 - alpha, exactly its principal units on a 1/4 step, and
        # unconstrained_opt is 1.  Each run offers the listed contracts.
        inst = Instance(r=(1,), p=((1,),), c=((0,),))
        step = F(1, 4)

        def run(name, *points):
            return name, Discretization((tuple(map(F, points)),), (step,), step), None

        def drive(*runs, rev_floor=ZERO):
            _, rev, guess, _, _, made, pruned = dp_module._best_over_guesses(
                inst, runs, rev_floor, 10**6, lambda k: True, screen=False
            )
            return rev, guess, made, pruned

        # 3/4 is one step short of the ceiling, so "b" runs; its 1 ends the loop.
        assert drive(run("a", F(1, 4), 1), run("b", 0, 1), run("c", 0)) == (1, "b", 2, 0)
        # "b"'s bound ties the incumbent at 1/2 and is skipped; "c"'s bound,
        # one step above it, runs.
        a, b, c = run("a", F(1, 2), 1), run("b", F(1, 2), 1), run("c", F(1, 4), 1)
        assert drive(a, b) == (F(1, 2), "a", 1, 1)
        assert drive(a, b, c) == (F(3, 4), "c", 2, 1)
        # With no incumbent a run is made even when its bound only ties the
        # floor: its best contract earns exactly the floor.
        assert drive(run("a", F(1, 4), 1), rev_floor=F(3, 4)) == (F(3, 4), "a", 1, 0)


def test_state_budget_spans_all_guesses(monkeypatch, tmp_path):
    # partition-ef1 [1] ends below unconstrained_opt (7/10 vs 11/10), so
    # several guesses run: each one's DP fits in a budget one state short of
    # the solve's total, so only a budget shared by all guesses stops it.
    inst = gen_partition_ef1([1])
    res, runs = _fptas_runs(monkeypatch, inst, F(1, 6), 1)
    total = res.meta["states"]
    assert total == sum(dp.states_total for dp in runs)
    budget = total - 1
    assert max(dp.states_total for dp in runs) < budget
    with pytest.raises(BudgetExceededError) as exc:
        solve_ef1_fptas(inst, F(1, 6), budget_states=budget, f_bits=1)
    assert exc.value.limit == budget and exc.value.needed > budget
    path = tmp_path / "pef1.json"
    dump_json(instance_to_dict(inst, exact=True), str(path))
    argv = ["solve", str(path), "--method", "dp-ef1", "--eps", "1/6", "--f-bits", "1"]
    assert main(argv + ["--budget-states", str(budget)]) == 2
    out = tmp_path / "sol.json"
    assert main(argv + ["--budget-states", str(2 * total), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["states"] == total
