"""Discretization, the profile DP, and the two FPTAS solvers."""

import itertools
import json
import logging
import math
import random
from dataclasses import replace
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
    _best_task_h,
    _dedupe_block,
    _dp_setup,
    _ef1_screen,
    _screen_error,
    _screen_slack,
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
    ef1_screen_reference,
    exhaustive_profiles,
    grid_fractions,
    scan_candidates_reference,
    task_options_reference,
)


class TestRounding:
    def test_unit_rounding_overshoot_bounded(self):
        # Every option's units round the true utilities up by less than one
        # step.
        inst = gen_random(2, 3, 123)
        disc = uniform_grid(inst, 10)
        for j, options in enumerate(_setup_options(inst, disc)):
            for agent, k, units, dh in options:
                alpha = disc.alpha(j, k)
                tru = (1 - alpha) * inst.p[agent][j] * inst.r[j]
                assert tru <= dh * F(1, 10) <= tru + F(1, 10)
                for i in range(inst.n):
                    true = max(agent_task_utility(inst, i, j, alpha), ZERO)
                    rounded = units[i] * F(1, 10)
                    assert true <= rounded <= true + F(1, 10)


# Four agents with p r near 1 on every task: at K = 12 each of the 16
# profile components reaches 33 or 34 units, 6 bits each, so the profiles
# take two key words (ten fields in the first, six in the second).  Its
# future_h is [35, 24, 12, 0], and a cap of 20 binds every agent.
FOUR_AGENTS = Instance(
    r=(1, 1, 1),
    p=(
        (1, F(9, 10), F(19, 20)),
        (F(19, 20), 1, F(9, 10)),
        (F(9, 10), F(19, 20), 1),
        (1, 1, F(9, 10)),
    ),
    c=(
        (F(1, 20), F(1, 10), 0),
        (F(1, 10), F(1, 30), F(1, 20)),
        (0, F(1, 20), F(1, 10)),
        (F(1, 5), 0, F(1, 30)),
    ),
)

# (instance, K, key words) of the packing checks: partition-ef [1, 2, 3] on
# dp-eps-ef's eps 1/15 grid, and FOUR_AGENTS.
PACKING_CASES = {
    "pef-123": (gen_partition_ef([1, 2, 3]), 180, 1),
    "four-agents": (FOUR_AGENTS, 12, 2),
}


def _check_backtracking(inst, K, n_words):
    """At every final position of the DP on a K-step uniform grid, packed
    into n_words words, the path's option deltas and principal units sum to
    the state's key and h, and choices() and reconstruct() name the same
    path.  The final keys, unpacked, ascend strictly and stay in reach."""
    dp = dp_enumerate(_dp_setup(inst, uniform_grid(inst, K)))
    assert dp.packer.n_words == n_words
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
    rows = [tuple(row) for row in dp.packer.unpack_rows(dp.keys).tolist()]
    assert len(rows) > 1000 and np.all(np.array(rows) <= dp.packer.reach)
    assert all(a < b for a, b in zip(rows, rows[1:]))


class TestDpEnumerate:
    def test_trivial_single_task(self):
        inst = Instance(r=(1,), p=((1,),), c=((0,),))
        dp = dp_enumerate(_dp_setup(inst, uniform_grid(inst, 1)))
        # alpha = 0 gives the principal everything; alpha = 1 the agent.
        assert dp_profiles(dp) == {(0,): 1, (1,): 0}

    def test_profiles_match_exhaustive_enumeration(self):
        # In the last instance neither agent earns anything at alpha = 0, so
        # both assignments land on the all-zero profile: the weak agent comes
        # first in the option order, the strong one leaves the principal more.
        weak_first = Instance(r=(1,), p=((F(1, 2),), (1,)), c=((0,), (0,)))
        for inst in (gen_random(2, 2, 9), gen_random(2, 3, 10), weak_first):
            disc = uniform_grid(inst, 4)  # five-point grids
            dp = dp_enumerate(_dp_setup(inst, disc))
            expected = exhaustive_profiles(
                inst,
                grids=grid_fractions(disc),
                agent_steps=disc.agent_steps,
                principal_step=F(1, disc.K),
            )
            assert dp_profiles(dp) == best_h_per_profile(expected)

    def test_every_representative_is_ir(self):
        inst = gen_random(2, 3, 77)
        dp = dp_enumerate(_dp_setup(inst, uniform_grid(inst, 5)))
        for pos in range(len(dp.h)):
            assignment, alphas = dp.reconstruct(pos)
            k = Contract(Allocation(assignment, inst.n), alphas)
            ok, _ = verify_ir(inst, k, tol=0)
            assert ok

    def test_prepared_setup_is_left_as_it_was(self):
        # Two runs on one setup equal two fresh runs: the second run, whose
        # h floor leaves no final state, must not read the first one's layers.
        inst = gen_random(2, 3, 5)
        disc = uniform_grid(inst, 6)
        setup = _dp_setup(inst, disc)
        for min_final_h in (0, 5):
            got = dp_enumerate(setup, min_final_h=min_final_h)
            want = dp_enumerate(_dp_setup(inst, disc), min_final_h=min_final_h)
            assert got is not setup and setup.gidx == [] and setup.h is None
            assert [g.tolist() for g in got.gidx] == [g.tolist() for g in want.gidx]
            assert np.array_equal(got.keys, want.keys) and np.array_equal(got.h, want.h)
            assert got.states_total == want.states_total
        assert len(got.h) == 0
        with pytest.raises(IndexError):
            got.reconstruct(-1)

    def test_example_52_rounded_optimum_profile_present(self, ex52):
        # eps = 1/4 -> internal grid 1/12; the EF optimum alpha* = 1/10
        # rounds to 2/12 and lands on profile v = (1, 0, 0, 0) with h = 1,
        # the most principal units that profile reaches.
        dp = dp_enumerate(_dp_setup(ex52, uniform_grid(ex52, 12)))
        assert dp_profiles(dp)[(1, 0, 0, 0)] == 1

    def test_dedupe_keeps_the_smallest_gidx_of_a_tie(self):
        # Key 5 ties on h = 2 in both blocks; the second block's gidx 4 is
        # the smaller and must win the merge, as a sort-merge must keep it.
        # Key 3 keeps its larger h whatever its gidx.
        span, hmax = 12, 2
        first = _dedupe_block(
            [np.array([5, 3, 5])], _score(np.array([2, 1, 1]), np.array([10, 11, 3]), span, hmax)
        )
        second = _dedupe_block(
            [np.array([5, 3])], _score(np.array([2, 0]), np.array([4, 2]), span, hmax)
        )
        cols, score = _dedupe_block(
            [np.concatenate(first[0] + second[0])], np.concatenate((first[1], second[1]))
        )
        h, gidx = _unscore(score, span, hmax)
        rows = np.stack(cols, axis=1)
        assert rows.tolist() == [[3], [5]]
        assert h.tolist() == [1, 2]
        assert gidx.tolist() == [11, 4]

    def test_backtracking_rebuilds_every_final_state(self):
        # dp-eps-ef's grid at eps 1/15 (K = 180) packs partition-ef
        # [1, 2, 3]'s profiles into one word.
        _check_backtracking(*PACKING_CASES["pef-123"])

    def test_backtracking_rebuilds_every_final_state_on_two_words(self):
        _check_backtracking(*PACKING_CASES["four-agents"])

    def test_pack_rows_inverts_unpack_rows(self):
        # Widths 0, 2, 3, 41, 10, 62, 0 and 31: word 0 takes 56 bits, the
        # 62-bit field opens word 1 and the zero-width one joins it, and the
        # 31-bit field opens word 2.  The narrow leading fields tie often,
        # so the rows order on later fields too.
        reach = [0, 3, 5, 2**40, 1000, 2**62 - 1, 0, 2**31 - 1]
        packer = _Packer(reach)
        assert packer.widths == [0, 2, 3, 41, 10, 62, 0, 31]
        assert packer.word_of == [0, 0, 0, 0, 0, 1, 1, 2] and packer.n_words == 3
        rng = np.random.default_rng(0)
        comps = np.stack([rng.integers(0, r, size=200, endpoint=True) for r in reach], axis=1)
        comps[:4] = [0] * 8, reach, comps[4], comps[4]  # both extremes and a repeat
        packed = packer.pack_rows(comps)
        assert np.array_equal(packer.unpack_rows(packed), comps)
        # The packed words, compared in order, order the rows as the
        # components do.
        assert np.array_equal(np.lexsort(packed.T[::-1]), np.lexsort(comps.T[::-1]))

    def test_component_wider_than_62_bits_raises(self):
        assert _Packer([2**62 - 1]).n_words == 1
        with pytest.raises(InvalidInstanceError, match="grid too fine"):
            _Packer([3, 2**62])

    def test_task_without_ir_contract_raises(self):
        # No agent is IR at the task's one grid point, alpha = 0.
        inst = Instance(r=(1,), p=((F(1, 2),),), c=((F(1, 4),),))
        disc = Discretization(task_grids=(((0,), 1),), agent_steps=(F(1, 4),), K=4)
        with pytest.raises(FairconError, match="task 0 has no IR grid contract"):
            dp_enumerate(_dp_setup(inst, disc))

    def test_state_budget(self):
        inst = gen_random(2, 4, 3)
        with pytest.raises(BudgetExceededError):
            dp_enumerate(_dp_setup(inst, uniform_grid(inst, 30)), budget_states=10)

    def test_score_guard_raises_before_reading_the_layer(self):
        # Task 0's 291 options times a 2^62 bound on h pass 2^63: the guard
        # must refuse before the layer's option arrays are read at all.
        inst, K, _ = PACKING_CASES["pef-123"]
        setup = _dp_setup(inst, uniform_grid(inst, K))
        tables = [
            (a, al, _LengthOnly(len(dh)), _LengthOnly(len(dh)), k) for a, al, _, dh, k in setup.tables
        ]
        bad = replace(setup, tables=tables, future_h=[2**62] + setup.future_h[1:])
        with pytest.raises(InvalidInstanceError, match="grid too fine"):
            dp_enumerate(bad)

    def test_score_guard_is_exact(self):
        # One task, so the layer's span is its option count: the largest
        # bound on h with (bound + 1) * span < 2^63 runs and returns what
        # the true bound does, scores reaching within two spans of 2^63; one
        # more is refused.
        inst = gen_random(3, 1, 4)
        setup = _dp_setup(inst, uniform_grid(inst, 40))
        span = len(setup.tables[0][3])
        assert span > 1
        want = dp_enumerate(setup)
        top = (2**63 - 1) // span - 1
        got = dp_enumerate(replace(setup, future_h=[top, 0]))
        assert [g.tolist() for g in got.gidx] == [g.tolist() for g in want.gidx]
        assert np.array_equal(got.keys, want.keys)
        assert got.h.dtype == np.int64 and np.array_equal(got.h, want.h)
        with pytest.raises(InvalidInstanceError, match="grid too fine"):
            dp_enumerate(replace(setup, future_h=[top + 1, 0]))


class _LengthOnly:
    """An option array that only tells its length."""

    def __init__(self, n: int):
        self.n = n

    def __len__(self):
        return self.n


def _score(h, gidx, span: int, hmax: int) -> np.ndarray:
    """`dp_enumerate`'s candidate score of (h, gidx): (hmax - h) * span + gidx."""
    return (hmax - h) * span + gidx


def _unscore(score: np.ndarray, span: int, hmax: int):
    """(h, gidx) back from scores."""
    hneg, gidx = np.divmod(score, span)
    return hmax - hneg, gidx


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


# partition-ef [1, 2, 3] on dp-eps-ef's eps 1/15 grid (K = 180): one key
# word of 57 bits, tasks of 291, 12, 21 and 30 options, 10 the floor's h and
# future_h[0] = 108.  Agent 0's components reach 90 units and those of
# agents 1 and 2 reach 36, so a unit cap of 40 binds agent 0 only and 12
# binds every agent; 90, the largest reach, is a cap no state passes; and
# 109 prunes task 0's layer, and so every later one, to zero states.
PEF_123_RUNS = [
    (None, 0),
    (None, 10),
    (40, 0),
    (12, 10),
    (90, 10),
    (None, 109),
]
FOUR_AGENTS_RUNS = [(None, 0), (20, 0), (12, 15)]


class TestSortOnceDedupe:
    """The key-only sort and its score min-reduce keep what a sort over
    (key, -h, gidx) keeps, and the DP built on them equals the reference DP."""

    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_matches_reference_on_drawn_blocks(self, words):
        _check_drawn_blocks(np.random.default_rng(words), words, wide=False)

    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_matches_reference_on_scores_near_2_to_62(self, words):
        _check_drawn_blocks(np.random.default_rng(10 + words), words, wide=True)

    @pytest.mark.parametrize("cap, min_final_h", PEF_123_RUNS)
    def test_dp_matches_reference_at_every_chunk(self, monkeypatch, cap, min_final_h):
        total = _check_dp_at_every_chunk(monkeypatch, *PACKING_CASES["pef-123"], cap, min_final_h)
        if min_final_h == 109:
            assert total == 0

    @pytest.mark.parametrize("cap, min_final_h", FOUR_AGENTS_RUNS)
    def test_two_word_dp_matches_reference_at_every_chunk(self, monkeypatch, cap, min_final_h):
        _check_dp_at_every_chunk(monkeypatch, *PACKING_CASES["four-agents"], cap, min_final_h)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_floor_at_and_one_above_the_best_h(self, monkeypatch, m):
        # With one agent, a task's first option is its first IR grid point,
        # the one with the most principal units, so under a floor one above
        # future_h[0] candidate 0 of the first layer falls one unit short.
        inst = gen_random(1, m, 3)
        best = _dp_setup(inst, uniform_grid(inst, 12)).future_h[0]
        assert _check_dp_at_every_chunk(monkeypatch, inst, 12, 1, None, best) >= m
        assert _check_dp_at_every_chunk(monkeypatch, inst, 12, 1, None, best + 1) == 0


def _check_drawn_blocks(rng, words: int, wide: bool):
    """`_dedupe_block` on 300 drawn blocks, scored with a span just above
    their gidx and an h bound of 2, or, when `wide`, one so large that the
    scores reach near 2^62, keeps what `dedupe_reference` keeps."""
    for _ in range(300):
        rows, h, gidx = _drawn_block(rng, words)
        span = 3 * len(h) + 1
        hmax = 2**62 // span if wide else 2
        want = dedupe_reference(rows, h, gidx)
        score = _score(h, gidx, span, hmax)
        if wide and len(h):
            assert score.max() >= 2**61
        cols, score = _dedupe_block(list(rows.T.copy()), score)
        got = (np.stack(cols, axis=1), *_unscore(score, span, hmax))
        for g, w in zip(got, want):
            assert g.dtype == w.dtype == np.int64
            assert np.array_equal(g, w)


def _check_dp_at_every_chunk(monkeypatch, inst, K, n_words, cap, min_final_h):
    """The DP on a K-step uniform grid, packed into n_words words, equals the
    reference DP at the default block size and at one that forces the
    rolling merge on every task after the first; returns the state count."""
    disc = uniform_grid(inst, K)
    caps = None if cap is None else [cap] * inst.n
    layers, rows, h, total = dp_enumerate_reference(inst, disc, caps, min_final_h)
    for chunk in (dp_module._CHUNK, 5_000):
        monkeypatch.setattr(dp_module, "_CHUNK", chunk)
        dp = dp_enumerate(_dp_setup(inst, disc), unit_cap=cap, min_final_h=min_final_h)
        assert dp.packer.n_words == n_words
        assert [g.tolist() for g in dp.gidx] == [g.tolist() for g in layers]
        assert all(g.dtype == np.int64 for g in dp.gidx)
        assert dp.keys.dtype == np.int64 and dp.keys.shape == (len(rows), n_words)
        assert np.array_equal(dp.packer.unpack_rows(dp.keys), rows)
        assert dp.h.dtype == h.dtype and np.array_equal(dp.h, h)
        assert dp.states_total == total
    return total


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
        setup = _dp_setup(inst, disc)
        assert np.all(setup.packer.reach < np.repeat(caps, inst.n))
        h_floor = int((revenue(inst, greedy_ef(inst)) - 2 * eps / 3) * K)
        plain = dp_enumerate(setup, min_final_h=h_floor)
        # The reference tests every state against the per-agent caps, with
        # no reach pre-check to skip the test.
        layers, rows, h, _ = dp_enumerate_reference(inst, disc, caps, h_floor)
        assert [g.tolist() for g in plain.gidx] == [g.tolist() for g in layers]
        assert np.array_equal(plain.packer.unpack_rows(plain.keys), rows)
        assert np.array_equal(plain.h, h)


class TestAdaptiveGrid:
    def test_zero_probability_contributes_no_points(self):
        # Agent 0 can never earn on the task (p r = 0, c > 0): its subgrid
        # is empty and the task grid comes from agent 1 alone.
        inst = Instance(r=(1,), p=((0,), (F(1, 2),)), c=((F(1, 2),), (F(1, 8),)))
        disc = adaptive_grid(inst, guess=(F(1, 4), F(1, 4)), K=4)
        grid = grid_fractions(disc)[0]
        wage1 = F(1, 8) / F(1, 2)
        assert min(grid) == wage1  # nothing below agent 1's wage
        # cap is min over agents of the guess-respecting ceiling, here from
        # agent 1: (1/4 + 1/8) / (1/2) = 3/4 (agent 0's cap saturates at 1).
        assert max(grid) == F(3, 4)

    def test_example_52_zero_guess_collapses_grid(self, ex52):
        disc = adaptive_grid(ex52, guess=(ZERO, ZERO), K=12)
        assert grid_fractions(disc)[0] == (F(1, 10),)

    def test_loose_guess_spans_to_one(self, ex52):
        disc = adaptive_grid(ex52, guess=(F(1), F(1)), K=12)
        assert max(grid_fractions(disc)[0]) == 1
        assert min(grid_fractions(disc)[0]) == F(1, 10)

    def test_guess_validation(self, ex52):
        with pytest.raises(InvalidInstanceError):
            adaptive_grid(ex52, guess=(-1, 0), K=4)


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


def test_ladder_top_is_f_plus_ceil_log2_m():
    # The ladder's exponent reads only m from the instance.
    for m in range(1, 4097):
        t = 0
        while 2**t < m:
            t += 1
        for f in (0, 5):
            assert dp_module._ladder_top(SimpleNamespace(m=m), f) == f + t


def test_utility_guesses_ascend_from_zero_to_m():
    for inst in random_instances(12, 3, 6, seed0=4300) + [gen_partition_ef1([1])]:
        for f in (0, 1, 4):
            ladder = utility_guesses(inst, f)
            assert ladder[0] == 0 and ladder[-1] == inst.m
            assert all(a < b for a, b in zip(ladder, ladder[1:]))
            assert len(ladder) == dp_module._ladder_top(inst, f) + 2


def test_both_fptas_derive_k_and_floor_from_x(monkeypatch):
    # x is eps/3 for dp-eps-ef and min(eps/2, 1/(6m)) for dp-ef1; both take
    # K = ceil(m / x) and floor the DP at greedy-EF revenue - 2x.
    floors = []
    real = dp_module._best_over_guesses

    def driver(inst, runs, unit_cap, rev_floor, *rest, **kwargs):
        floors.append(rev_floor)
        return real(inst, runs, unit_cap, rev_floor, *rest, **kwargs)

    monkeypatch.setattr(dp_module, "_best_over_guesses", driver)
    for inst in (gen_random(2, 3, 7), gen_partition_ef1([1]), gen_two_agent_hard([1, 2])):
        greedy = revenue(inst, greedy_ef(inst))
        for eps in (F(1, 4), F(1, 6)):
            ef = solve_eps_ef_fptas(inst, eps)
            ef1 = solve_ef1_fptas(inst, eps, f_bits=1)
            nu = min(eps / 2, F(1, 6 * inst.m))
            for x, key, meta in ((eps / 3, "eps_internal", ef.meta), (nu, "nu", ef1.meta)):
                assert meta[key] == x and meta["delta"] == F(1, math.ceil(inst.m / x))
            assert floors[-2:] == [greedy - 2 * eps / 3, greedy - 2 * nu]


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

    def test_matches_the_tensor_form(self):
        # Seeded blocks of every 1-4 agents x 1-6 tasks, N from 1 to a full
        # scan block, contracts on a 1/12 grid (exact ties) or drawn at random,
        # with every row of one block given to agent 0 (the others' bundles
        # empty).  The rows-last screen and the (N, n, n, m) tensor form may
        # disagree only where the reference slack lies within 2 screen
        # errors of the threshold, where float summation order can decide.
        rng = np.random.default_rng(29)
        B = dp_module._SCAN_BLOCK
        compared = failed = 0
        for case, (n, m) in enumerate(itertools.product(range(1, 5), range(1, 7))):
            inst = gen_random(n, m, 2900 + case, PROFILES[case % 3])
            N = int(rng.choice([1, 2, 7, 100, B])) if case % 4 else B
            agents = rng.integers(0, inst.n, size=(N, inst.m))
            if case % 5 == 0:
                agents[:] = 0
            if case % 2:
                alphas = rng.integers(0, 13, size=(N, inst.m)) / 12
            else:
                alphas = rng.random((N, inst.m))
            slack = _screen_slack(inst.m)
            got = _ef1_screen(inst, agents, alphas, slack)
            want, ef1_slack = ef1_screen_reference(inst, agents, alphas, slack)
            clear = np.abs(ef1_slack + slack) > 2 * _screen_error(inst.m)
            assert got.shape == (N,) and np.array_equal(got[clear], want[clear])
            compared += int(clear.sum())
            failed += int((~want[clear]).sum())
        assert compared > 10_000 and failed > 1000


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


def _undominated(options):
    """The options whose agent and units no earlier option has."""
    seen, out = set(), []
    for option in options:
        if (option[0], option[2]) not in seen:
            seen.add((option[0], option[2]))
            out.append(option)
    return out


def _setup_options(inst, disc):
    """Per task, the options of `_dp_setup`'s table as (agent, grid index,
    every agent's units, principal units), units decoded from the packed
    deltas: agent i's units sit in component (i, the option's agent)."""
    setup = _dp_setup(inst, disc)
    out = []
    for agents, _, packed, dh, index in setup.tables:
        comps = setup.packer.unpack_rows(packed).reshape(len(dh), inst.n, inst.n)
        rows = zip(agents.tolist(), index.tolist(), comps.tolist(), dh.tolist())
        out.append([(a, k, tuple(units[a] for units in comp), h) for a, k, comp, h in rows])
    return out


def _full_table_setup(inst, disc):
    """`_dp_setup(inst, disc)` with every task's table rebuilt from the
    reference's full option list, dominated options included.  A dominated
    option repeats a kept option's agent and units with fewer principal
    units, so the packer and `future_h` stay those of the kept tables."""
    setup = _dp_setup(inst, disc)
    tables = []
    for j in range(inst.m):
        agents, index, units, dh = zip(*task_options_reference(inst, disc, j))
        agents, index, dh = (np.array(col, dtype=np.int64) for col in (agents, index, dh))
        deltas = np.zeros((len(dh), inst.n, inst.n), dtype=np.int64)
        deltas[np.arange(len(dh)), :, agents] = units
        alphas = np.array([float(disc.alpha(j, k)) for k in index.tolist()])
        packed = setup.packer.pack_rows(deltas.reshape(len(dh), -1))
        tables.append((agents, alphas, packed, dh, index))
    return replace(setup, tables=tables)


def _options_match(inst, disc):
    """The kernel's options equal the Fraction reference's, with int units,
    once each option whose agent and units an earlier one has is dropped."""
    for j, kernel in enumerate(_setup_options(inst, disc)):
        assert kernel == _undominated(task_options_reference(inst, disc, j))
        assert all(type(x) is int for o in kernel for x in (o[0], o[1], o[3], *o[2]))


# Agent 0 can never be paid on task 0 (p r = 0, c > 0); agent 1 does task 1
# for free (p r = 0, c = 0).
ZERO_PR = Instance(
    r=(1, F(3, 4)), p=((0, F(1, 2)), (F(1, 3), 0)), c=((F(1, 4), F(1, 9)), (F(1, 7), 0))
)


def _seeded_adaptive_grids():
    """(instance, guess, K, adaptive grid) for seeded 1-3 x 1-4 instances
    and ZERO_PR: four sampled ladder guesses each, at K = 5 and 24."""
    for inst in random_instances(12, 3, 4, seed0=4200) + [ZERO_PR]:
        ladder = utility_guesses(inst, 2)
        guesses = list(itertools.product(ladder, repeat=inst.n))
        for guess in random.Random(inst.m).sample(guesses, min(4, len(guesses))):
            for K in (5, 24):
                yield inst, guess, K, adaptive_grid(inst, guess, K)


def _kernel_cases():
    """(instance, discretization) pairs the kernel tests read: the seeded
    adaptive grids, then seeded uniform grids at K = 1, 7 and 12."""
    cases = [(inst, disc) for inst, _, _, disc in _seeded_adaptive_grids()]
    return cases + [
        (inst, uniform_grid(inst, steps))
        for inst in random_instances(12, 3, 4, seed0=4100) + [ZERO_PR]
        for steps in (1, 7, 12)
    ]


class TestOptionKernel:
    """The integer option kernel and the integer adaptive grid equal the
    Fraction definitions they replace, option for option, but for the
    dominated options the kernel drops."""

    def test_uniform_grids(self):
        for inst in random_instances(12, 3, 4, seed0=4100) + [ZERO_PR]:
            for steps in (1, 7, 12):
                _options_match(inst, uniform_grid(inst, steps))

    def test_adaptive_grids(self):
        checked = 0
        for inst, guess, K, disc in _seeded_adaptive_grids():
            assert grid_fractions(disc) == adaptive_task_grids_reference(inst, guess, K)
            _options_match(inst, disc)
            checked += 1
        assert checked > 60

    def test_zero_guess_agents_hold_no_units(self):
        # dp-ef1 caps every agent at one unit count, though an agent guessed
        # at 0 must hold no unit: its adaptive grid ends at or below the
        # agent's minimum wage on every task, so no option gives it a unit
        # on any bundle and a cap of 0 would never bind.
        zero_agents = 0
        for inst, guess, _, disc in _seeded_adaptive_grids():
            zeros = [i for i in range(inst.n) if guess[i] == 0]
            zero_agents += len(zeros)
            options = _setup_options(inst, disc)
            for j in range(inst.m):
                for i in zeros:
                    assert all(agent_task_utility(inst, i, j, a) <= 0 for a in grid_fractions(disc)[j])
                for _, _, units, _ in options[j]:
                    # An agent's units are the same on every receiver's bundle.
                    assert not any(units[i] for i in zeros)
        assert zero_agents >= 50

    def test_dropped_options_are_dominated(self):
        # Each option of the reference that the kernel drops has the agent
        # and units of an earlier, kept option and fewer principal units (the
        # reference already drops a repeat of all three): from any state it
        # reaches the same profile with less h.
        dropped = 0
        for inst, disc in _kernel_cases():
            for j in range(inst.m):
                first = {}
                for agent, k, units, dh in task_options_reference(inst, disc, j):
                    if (agent, units) in first:
                        dropped += 1
                        assert dh < first[agent, units]
                    else:
                        first[agent, units] = dh
        assert dropped > 200

    def test_non_reduced_grids_give_the_same_options(self):
        # Every grid scaled by 3, numerators and denominator alike, names
        # the same contracts: the kernel emits the same options, and a DP
        # run on a 3 x 4 adaptive case (K = 24, 75 final states) and on
        # ZERO_PR's uniform K = 12 case (27) rebuilds the same contracts at
        # every final position.
        def tripled(disc):
            grids = tuple((tuple(3 * x for x in points), 3 * den) for points, den in disc.task_grids)
            return replace(disc, task_grids=grids)

        cases = _kernel_cases()
        for inst, disc in cases:
            assert _setup_options(inst, tripled(disc)) == _setup_options(inst, disc)
        for inst, disc in (cases[17], cases[-1]):
            dp, dp3 = (dp_enumerate(_dp_setup(inst, d)) for d in (disc, tripled(disc)))
            assert len(dp.h) > 20 and np.array_equal(dp3.keys, dp.keys)
            assert all(dp3.reconstruct(p) == dp.reconstruct(p) for p in range(len(dp.h)))

    def test_widths_are_the_bit_lengths_of_the_reach(self):
        # Component (i, r), agent i's units on agent r's bundle, reaches at
        # most the sum over tasks of i's largest units among the options
        # that give the task to r.  The packer gives it that many bits, and
        # no final state's component passes it.
        for inst, disc in _kernel_cases():
            n = inst.n
            reach = [0] * (n * n)
            for j in range(inst.m):
                for i, r in itertools.product(range(n), repeat=2):
                    units = [u[i] for a, _, u, _ in task_options_reference(inst, disc, j) if a == r]
                    reach[i * n + r] += max(units, default=0)
            dp = dp_enumerate(_dp_setup(inst, disc))
            assert dp.packer.reach.tolist() == reach
            assert dp.packer.widths == [x.bit_length() for x in reach]
            assert np.all(dp.packer.unpack_rows(dp.keys) <= dp.packer.reach)

    def test_dp_without_dominated_options_is_unchanged(self, monkeypatch):
        # The DP on the reference's full option table, dominated options
        # included, keeps the same final profiles, h and state count, and
        # rebuilds the same contract at every final position (only the
        # option numbers in gidx differ).  Uniform and adaptive grids, and
        # the runs of one dp-ef1 solve at its own cap and at a cap that binds.
        runs = [(inst, disc, None, 0) for inst, disc in _kernel_cases()[::3]]
        real = dp_module.dp_enumerate
        calls = []

        def recording(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(dp_module, "dp_enumerate", recording)
        solve_ef1_fptas(gen_random(2, 3, 1), F(1, 4), f_bits=6)
        monkeypatch.undo()
        for setup, _, cap, h_floor in calls:
            half = int(setup.packer.reach.max()) // 2
            runs += [(setup.inst, setup.disc, cap, h_floor), (setup.inst, setup.disc, half, h_floor)]
        for inst, disc, cap, h_floor in runs:
            kept = dp_enumerate(_dp_setup(inst, disc), unit_cap=cap, min_final_h=h_floor)
            full = dp_enumerate(_full_table_setup(inst, disc), unit_cap=cap, min_final_h=h_floor)
            assert np.array_equal(kept.keys, full.keys) and np.array_equal(kept.h, full.h)
            assert kept.states_total == full.states_total
            assert all(kept.reconstruct(p) == full.reconstruct(p) for p in range(len(kept.h)))

    def test_zero_guess(self, ex52):
        for inst in (ex52, ZERO_PR, gen_partition_ef1([1])):
            guess = (ZERO,) * inst.n
            disc = adaptive_grid(inst, guess, 12)
            assert grid_fractions(disc) == adaptive_task_grids_reference(inst, guess, 12)
            _options_match(inst, disc)

    def test_positive_utility_on_degenerate_grid_raises(self):
        # The error names the first (grid point, agent) pair with a positive
        # utility and no utility grid, as the reference's loop does.  At
        # alpha 1/2 agent 0 earns 1/8 but has no utility grid.  Then neither
        # agent has one: agent 1 earns 1/8 at alpha 1/4, before agent 0
        # earns anything, and from alpha 3/4 both earn, agent 0 first.
        one = Instance(r=(1,), p=((F(1, 2),), (1,)), c=((F(1, 8),), (F(1, 4),)))
        two = Instance(r=(1,), p=((F(1, 2),), (1,)), c=((F(1, 4),), (F(1, 8),)))
        cases = (
            (one, Discretization((((2, 4), 8),), (ZERO, F(1, 8)), 8), 0),
            (two, Discretization((((1, 2, 3, 4), 4),), (ZERO, ZERO), 4), 1),
            (two, Discretization((((3, 4), 4),), (ZERO, ZERO), 4), 0),
        )
        for inst, disc, agent in cases:
            with pytest.raises(FairconError) as ref:
                task_options_reference(inst, disc, 0)
            with pytest.raises(FairconError) as kernel:
                _dp_setup(inst, disc)
            assert str(kernel.value) == str(ref.value) == (
                f"agent {agent} has positive utility 1/8 but a degenerate grid"
            )

    def test_the_first_failing_task_names_the_error(self):
        # Task 1 alone holds no IR point, then task 0 alone; a task with a
        # positive utility on a degenerate grid raises in task order too.
        inst = Instance(r=(1, 1), p=((F(1, 2),) * 2, (1, 1)), c=((F(1, 4),) * 2, (F(1, 8),) * 2))
        fine, none_ir, degenerate = (range(5), 4), ((0,), 4), ((3, 4), 4)
        bad_grid = "but a degenerate grid"
        cases = (
            ((fine, none_ir), (F(1, 4),) * 2, "task 1 has no IR grid contract"),
            ((none_ir, fine), (F(1, 4),) * 2, "task 0 has no IR grid contract"),
            ((none_ir, degenerate), (ZERO, ZERO), "task 0 has no IR grid contract"),
            ((degenerate, none_ir), (ZERO, ZERO), f"agent 0 has positive utility 1/8 {bad_grid}"),
        )
        for grids, steps, message in cases:
            disc = Discretization(task_grids=grids, agent_steps=steps, K=4)
            with pytest.raises(FairconError) as ref:
                for j in range(inst.m):  # the reference, task by task
                    if not task_options_reference(inst, disc, j):
                        raise FairconError(f"task {j} has no IR grid contract")
            with pytest.raises(FairconError) as kernel:
                _dp_setup(inst, disc)
            assert str(kernel.value) == str(ref.value) == message

    def test_equal_units_across_a_task_boundary(self):
        # Agent 0 is IR with 0 units at task 0's last point (p r = c) and at
        # task 1's first (c = 0): the rows match across the boundary, and
        # task 1's first option is still its own.
        inst = Instance(r=(1, 1), p=((F(1, 2), 1),), c=((F(1, 2), 0),))
        for K in (1, 4):
            _options_match(inst, uniform_grid(inst, K))

    def test_an_agent_first_ir_in_mid_grid_keeps_that_option(self):
        # Agent 0 (p r = c = 0) holds 0 units at every point; agent 1 turns
        # IR at alpha 1/2 with 0 units, the units of the row before, so
        # only its being IR there marks its first option.
        inst = Instance(r=(1,), p=((0,), (1,)), c=((0,), (F(1, 2),)))
        for K in (2, 3, 4, 10):
            _options_match(inst, uniform_grid(inst, K))

    def test_large_numerators_match_the_reference(self):
        # Data over denominators near 2^41 put the pass's products past
        # int64, so it runs on Python ints: its options, and each option's
        # float contract, still equal the reference's.
        rng = random.Random(33)

        def frac(low, high):
            den = rng.randrange(2**40, 2**41)
            return F(rng.randrange(int(low * den), int(high * den)), den)

        checked = 0
        for n, m in ((1, 2), (2, 2), (2, 3), (3, 2)):
            inst = Instance(
                r=tuple(frac(0.5, 1) for _ in range(m)),
                p=tuple(tuple(frac(0.5, 1) for _ in range(m)) for _ in range(n)),
                c=tuple(tuple(frac(0, 0.25) for _ in range(m)) for _ in range(n)),
            )
            assert min(x.numerator for row in inst.pr for x in row) >= 2**40
            guess = tuple(rng.choice(utility_guesses(inst, 1)[1:]) for _ in range(n))
            for disc in (uniform_grid(inst, 1), uniform_grid(inst, 7), adaptive_grid(inst, guess, 5)):
                _options_match(inst, disc)
                for j, (_, alphas, _, _, index) in enumerate(_dp_setup(inst, disc).tables):
                    assert alphas.tolist() == [float(disc.alpha(j, k)) for k in index.tolist()]
                checked += 1
        assert checked == 12


def _drawn_revenues():
    """(name, float revenues, cut) cases for the scan order."""
    rng = np.random.default_rng(5)
    B = dp_module._SCAN_BLOCK
    # 3 * B values of which the 10 around the end of the first block tie
    # exactly, so the tie straddles the block boundary.
    straddle = rng.random(3 * B)
    head = np.argsort(-straddle, kind="stable")
    straddle[head[B - 5 : B + 5]] = straddle[head[B - 5]]
    # Few distinct values, so every partition round ends inside a tie.
    coarse = rng.integers(0, 7, size=5 * B + 17) / 7
    return [
        ("straddle", straddle, -math.inf),
        ("empty", np.zeros(0), -math.inf),
        ("under-one-block", rng.random(B - 1), -math.inf),
        ("coarse", coarse, -math.inf),
        ("coarse-cut", coarse, 3 / 7),
        ("cut-above-all", straddle, 2.0),
        ("random-cut", rng.random(20 * B), 0.1),
    ]


DESCENDING_CASES = _drawn_revenues()


@pytest.mark.parametrize(
    "frev, low", [case[1:] for case in DESCENDING_CASES], ids=[case[0] for case in DESCENDING_CASES]
)
def test_descending_blocks_slice_the_stable_argsort(frev, low):
    # The scan's blocks are the stable descending argsort, cut below at the
    # revenue cut and sliced into _SCAN_BLOCK positions.
    B = dp_module._SCAN_BLOCK
    order = np.argsort(-frev, kind="stable")
    order = order[: int(np.count_nonzero(frev >= low))]
    want = [order[start : start + B].tolist() for start in range(0, len(order), B)]
    got = [block.tolist() for block in dp_module._descending(frev, low)]
    assert got == want


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

    def test_scan_rebuilds_only_screen_passers(self, monkeypatch):
        # A screen-failer fails EF1 exactly, so the scan never rebuilds one:
        # of the 6,308 band rows it reaches over the solve's runs, the screen
        # rejects 6,301, and the 7 it passes are rebuilt, of which 2 beat the
        # incumbent and are verified.
        rebuilt = []
        real = dp_module.DpResult.reconstruct

        def reconstruct(dp, index):
            rebuilt.append(real(dp, index))
            return rebuilt[-1]

        monkeypatch.setattr(dp_module.DpResult, "reconstruct", reconstruct)
        inst = gen_partition_ef1([1])
        res = solve_ef1_fptas(inst, F(1, 6), f_bits=1)
        meta = res.meta
        assert (meta["exact_checks"], meta["screened"], meta["states"]) == (2, 6301, 8659)
        assert res.revenue == F(7, 10)
        agents = np.array([assignment for assignment, _ in rebuilt])
        alphas = np.array([[float(a) for a in contract] for _, contract in rebuilt])
        passed = _ef1_screen(inst, agents, alphas, _screen_slack(inst.m))
        assert len(rebuilt) == 7 and passed.all()


def test_fptas_solve_logs_summary_at_info(caplog):
    # One summary per solve, read from the guess loop's counts; dp-eps-ef
    # reports only its runs, states and verifier calls in meta.  Each
    # dp-ef1 guess here runs once; dp-eps-ef answers on its first,
    # floored run.
    inst = gen_partition_ef1([1])
    with caplog.at_level(logging.INFO, logger="faircon"):
        ef1 = solve_ef1_fptas(inst, F(1, 6), f_bits=1)
        eps_ef = solve_eps_ef_fptas(inst, F(1, 6))
    counts = ("guesses", "guesses_pruned", "runs", "states", "screened", "exact_checks")
    assert tuple(ef1.meta[key] for key in counts) == (7, 9, 7, 8659, 6301, 2)
    keys = {"eps", "eps_internal", "delta", "grid_points", "runs", "states", "exact_checks"}
    assert set(eps_ef.meta) == keys
    assert tuple(eps_ef.meta[key] for key in ("runs", "states", "exact_checks")) == (1, 32, 1)
    summaries = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert summaries == [
        "fptas: 7 guesses, 9 pruned, 7 runs, 8659 states, 6301 screened, 2 exact checks, "
        "best revenue 7/10",
        "fptas: 1 guesses, 0 pruned, 1 runs, 32 states, 0 screened, 1 exact checks, "
        f"best revenue {eps_ef.revenue}",
    ]


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
    (principal-unit bound, incumbent revenue before the guess, DP run made).

    The bound is recorded on the guess's grid first seen: by the driver's
    prune test (`_best_task_h`) when there is an incumbent, else by the
    `_dp_setup` of the run it makes, as its `future_h[0]`."""
    events, incumbent, last_disc = [], [None], [None]
    real_bound, real_setup, real_enum, real_scan = (
        dp_module._best_task_h, dp_module._dp_setup, dp_module.dp_enumerate,
        dp_module._scan_candidates,
    )

    def record(disc, units):
        if disc is not last_disc[0]:
            last_disc[0] = disc
            events.append([F(units, disc.K), incumbent[0], False])

    def bound(inst, disc):
        per_task = real_bound(inst, disc)
        record(disc, sum(per_task))
        return per_task

    def setup(inst, disc):
        out = real_setup(inst, disc)
        record(disc, out.future_h[0])
        return out

    def enumerate_(*args, **kwargs):
        events[-1][2] = True
        return real_enum(*args, **kwargs)

    def scan(*args):
        out = real_scan(*args)
        incumbent[0] = out[0]
        return out

    monkeypatch.setattr(dp_module, "_best_task_h", bound)
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
            return name, Discretization(((tuple(int(4 * F(p)) for p in points), 4),), (step,), 4)

        def drive(*runs, rev_floor=ZERO):
            _, rev, guess, counts = dp_module._best_over_guesses(
                inst, runs, None, rev_floor, 10**6, lambda k: True, screen=False
            )
            return rev, guess, counts["guesses"], counts["guesses_pruned"]

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


# The dp-eps-ef golden solves: (instance, eps).
EPS_EF_GOLDEN = [
    (gen_example("5.2", F(1, 100)), F(1, 4)),
    (gen_random(2, 3, 1), F(1, 4)),
    (gen_example("5.7", F(1, 4)), F(1, 4)),
]


def _table_best_h(inst, disc):
    """Per task, the largest principal units in `_dp_setup`'s option table."""
    return [int(table[3].max()) for table in _dp_setup(inst, disc).tables]


class TestPrincipalBound:
    """`_best_task_h`, the guess driver's prune bound, finds by bisection
    what the option tables hold, and so what `_dp_setup` sums into
    `future_h`."""

    def test_uniform_grids(self):
        grids = [(inst, K) for inst, K, _ in PACKING_CASES.values()]
        grids += [(inst, ceil_div(ONE, eps / 3 / inst.m)) for inst, eps in EPS_EF_GOLDEN]
        for inst, K in grids:
            disc = uniform_grid(inst, K)
            assert _best_task_h(inst, disc) == _table_best_h(inst, disc)

    @pytest.mark.parametrize("case", range(len(DRIVER_CASES)))
    def test_adaptive_grid_of_every_reached_guess(self, monkeypatch, case):
        inst, eps, f_bits = DRIVER_CASES[case]
        discs = []
        real = dp_module.adaptive_grid

        def recording(*args):
            discs.append(real(*args))
            return discs[-1]

        monkeypatch.setattr(dp_module, "adaptive_grid", recording)
        res = solve_ef1_fptas(inst, eps, f_bits=f_bits)
        monkeypatch.undo()
        assert len(discs) == res.meta["guesses"] + res.meta["guesses_pruned"]
        for disc in discs:
            best_h = _best_task_h(inst, disc)
            assert best_h == _table_best_h(inst, disc)
            assert _dp_setup(inst, disc).future_h[0] == sum(best_h)


def _recorded_scans(monkeypatch, solve, inst, *args, **kwargs):
    """The arguments and result of every `_scan_candidates` call a solve makes."""
    calls = []
    real = dp_module._scan_candidates

    def recording(*scan_args):
        calls.append((scan_args, real(*scan_args)))
        return calls[-1][1]

    monkeypatch.setattr(dp_module, "_scan_candidates", recording)
    solve(inst, *args, **kwargs)
    monkeypatch.undo()
    return calls


class TestScanMatchesPerRowLoop:
    """The block-wise scan returns what visiting every row in turn returns:
    the same revenue, contract, verifier-call count and screened count."""

    @pytest.mark.parametrize("case", range(len(DRIVER_CASES)))
    def test_every_dp_ef1_run(self, monkeypatch, case):
        inst, eps, f_bits = DRIVER_CASES[case]
        calls = _recorded_scans(monkeypatch, solve_ef1_fptas, inst, eps, f_bits=f_bits)
        assert calls
        for scan_args, got in calls:
            assert got == scan_candidates_reference(*scan_args)

    @pytest.mark.parametrize("case", range(len(EPS_EF_GOLDEN)), ids=["ex52", "rand2x3s1", "ex57"])
    def test_every_dp_eps_ef_run(self, monkeypatch, case):
        inst, eps = EPS_EF_GOLDEN[case]
        (scan_args, got), = _recorded_scans(monkeypatch, solve_eps_ef_fptas, inst, eps)
        assert scan_args[-1] is False and got == scan_candidates_reference(*scan_args)

    # Two identical agents: a contract's revenue does not depend on who
    # holds a task, so every contract vector's allocations tie exactly in
    # revenue, float revenue included, and differ in EF1.  In scan order,
    # with 16-row blocks, the screen-passers are rows 1, 4, 9, 10, 14, ...;
    # rows 0-2 earn 3, rows 3-6 35/12, rows 7-11 11/4 and row 12 31/12.
    # `want` is (revenue, verifier calls, screened).
    TWINS = Instance(
        r=(1, 1, 1, 1),
        p=((1, 1, F(1, 2), 1), (1, 1, F(1, 2), 1)),
        c=((0, F(1, 10), 0, F(1, 5)), (0, F(1, 10), 0, F(1, 5))),
    )

    @pytest.mark.parametrize(
        "accept_call, best_rev, want",
        [
            # The first passer, row 1, wins at 3; rows 0 and 2 are screened,
            # the tie included, and row 3 ends the scan.
            (1, None, (3, 1, 2)),
            # Row 9 wins at 11/4 mid-block on the third verifier call; row
            # 10 ties it and is rebuilt, not verified; the 8 failers among
            # rows 0-11 are screened, and row 12 ends the scan.
            (3, None, (F(11, 4), 3, 8)),
            # An incumbent at 5/2 from an earlier run; row 4 wins at 35/12
            # on the second call, and the failers among rows 0-6 are screened.
            (2, F(5, 2), (F(35, 12), 2, 5)),
        ],
        ids=["exact-tie", "mid-block", "incumbent-given"],
    )
    def test_hand_built_runs(self, monkeypatch, accept_call, best_rev, want):
        monkeypatch.setattr(dp_module, "_SCAN_BLOCK", 16)
        inst = self.TWINS
        dp = dp_enumerate(_dp_setup(inst, uniform_grid(inst, 6)))
        prior = None if best_rev is None else make_contract(inst, [0] * 4, [1, 0, 0, 0])
        assert prior is None or revenue(inst, prior) == best_rev
        results = []
        for scan in (dp_module._scan_candidates, scan_candidates_reference):
            calls = []

            def verify(contract):
                calls.append(contract)
                return len(calls) == accept_call

            rev, contract, checks, screened = scan(dp, best_rev, prior, verify, True)
            results.append((rev, contract, checks, screened, len(calls)))
        assert results[0] == results[1]
        rev, _, checks, screened, n_calls = results[0]
        assert (rev, checks, screened) == want and n_calls == checks


class TestFloorSchedule:
    """A run with no incumbent floors the DP at top - m first and lowers the
    floor only while no verified answer clears it, so it returns what one
    run at the proof floor returns (`best_over_guesses_reference`)."""

    @pytest.mark.parametrize(
        "inst, K, cap, runs",
        [
            # Floor 5 (top 7 - m) verifies nothing under the cap; floor 3
            # verifies 1/2, which 3 - 1 = 2 units do not clear; floor 2
            # holds an exact tie at 1/2 that comes first in scan order.
            (
                Instance(r=(1, 1), p=((F(1, 4), 1), (F(2, 3), F(1, 2)), (F(1, 3), F(1, 2))),
                         c=((0, 0),) * 3),
                4, F(1, 2), 3,
            ),
            # Floor 8 verifies 7/4 at exactly 8 - 1 units; floor 7 holds a
            # tie at 7/4 that comes first.
            (
                Instance(r=(1, 1, 1), p=((1, F(2, 3), F(3, 4)), (F(1, 3), F(2, 3), 1)),
                         c=((0, 0, 0),) * 2),
                4, F(7, 4), 2,
            ),
        ],
        ids=["no-answer-then-tie", "tie-one-unit-below"],
    )
    def test_verifier_capping_revenue_forces_deeper_runs(self, inst, K, cap, runs):
        # The verifier rejects every candidate earning above cap, so the
        # answer sits below the first floors, and the ties below it decide
        # the contract.
        grids, results = [(None, uniform_grid(inst, K))], []
        for driver in (dp_module._best_over_guesses, best_over_guesses_reference):
            calls = []

            def verify(contract):
                calls.append(contract)
                return revenue(inst, contract) <= cap

            results.append((driver(inst, grids, None, ZERO, 10**7, verify, False), calls))
        (got, calls), (want, _) = results
        assert got[:2] == want[:2] and got[1] == cap
        counts = got[3]
        assert counts["runs"] == runs and counts["guesses"] == 1
        # The memo verifies each contract once, however many runs meet it.
        assert counts["exact_checks"] == len(calls) == len(set(calls))

    def test_seeded_solve_needs_five_runs(self, monkeypatch):
        # gen_random(3, 3, 21) at eps 1/20 finds no verified answer that
        # clears its first floors; the solve still returns the proof-floor
        # run's contract and verifies no contract twice, though its five
        # runs build more states together than that one run.
        inst, eps = gen_random(3, 3, 21), F(1, 20)
        monkeypatch.setattr(dp_module, "_best_over_guesses", best_over_guesses_reference)
        want = solve_eps_ef_fptas(inst, eps)
        monkeypatch.undo()
        calls = []

        def recording(inst, contract, *args, **kwargs):
            calls.append(contract)
            return verify_eps_ef(inst, contract, *args, **kwargs)

        monkeypatch.setattr(dp_module, "verify_eps_ef", recording)
        got = solve_eps_ef_fptas(inst, eps)
        assert (got.contract, got.revenue) == (want.contract, want.revenue)
        assert (got.meta["runs"], got.meta["states"], want.meta["states"]) == (5, 1539, 817)
        assert got.meta["exact_checks"] == len(calls) == len(set(calls))

    @pytest.mark.parametrize(
        "case", range(len(EPS_EF_GOLDEN) + 1), ids=["ex52", "rand2x3s1", "ex57", "pef-1-3"]
    )
    def test_floored_run_keeps_the_full_runs_states_above_it(self, case):
        # Every floor the schedule can take above the proof floor keeps
        # exactly the unfloored run's final states with h >= f, in the same
        # order and with the same backtrack.  Every backtrack is compared
        # (`_walk`, which `reconstruct` reads); every `reconstruct` where
        # there are at most 20,000 (pef-1-3's deepest floor keeps 48,460).
        inst, eps = (EPS_EF_GOLDEN + [(gen_partition_ef([1, 2, 3]), F(1, 15))])[case]
        _, _, K, rev_floor = dp_module._fptas_front(inst, eps, lambda eps: eps / 3)
        setup = _dp_setup(inst, uniform_grid(inst, K))
        full = dp_enumerate(setup, 10**7)
        low, top, drop, floors = int(rev_floor * K), setup.future_h[0], inst.m, []
        while top - drop > low:
            floors.append(top - drop)
            drop *= 2
        assert floors
        for f in floors:
            got = dp_enumerate(setup, 10**7, None, f)
            keep = np.flatnonzero(full.h >= f)
            assert np.array_equal(got.keys, full.keys[keep]) and np.array_equal(got.h, full.h[keep])
            for (t, o), (t_full, o_full) in zip(got._walk(np.arange(len(keep))), full._walk(keep)):
                assert t == t_full and np.array_equal(o, o_full)
            if len(keep) <= 20_000:
                assert all(got.reconstruct(i) == full.reconstruct(int(q)) for i, q in enumerate(keep))


@pytest.mark.parametrize("case", range(20, 24), ids=["ex52", "rand2x3s1", "pef1-1", "readme"])
def test_unit_cap_prunes_as_per_agent_caps(monkeypatch, case):
    # dp-ef1 used to cap agent i at K + ceil(nu / step) + m units when its
    # guess was positive and at 0 when it was 0; it now passes the one
    # number.  On every DP run of the four golden dp-ef1 solves, the DP
    # keeps exactly the states the reference keeps under the old vector.
    # Guess i is 0 exactly when agent i's utility step guess_i / K is 0.
    inst, eps, f_bits = DRIVER_CASES[case]
    calls = []
    real = dp_module.dp_enumerate

    def recording(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(dp_module, "dp_enumerate", recording)
    res = solve_ef1_fptas(inst, eps, f_bits=f_bits)
    monkeypatch.undo()
    step = res.meta["delta"]
    cap = 1 / step + ceil_div(res.meta["nu"], step) + inst.m
    zero_runs = 0
    for (setup, _, unit_cap, h_floor), dp in calls:
        assert unit_cap == cap and type(unit_cap) is int
        caps = [cap if s > 0 else 0 for s in setup.disc.agent_steps]
        zero_runs += 0 in caps
        layers, rows, h, total = dp_enumerate_reference(inst, setup.disc, caps, h_floor)
        assert [g.tolist() for g in dp.gidx] == [g.tolist() for g in layers]
        assert np.array_equal(dp.packer.unpack_rows(dp.keys), rows) and np.array_equal(dp.h, h)
        assert dp.states_total == total
    assert zero_runs > 0


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
    dump_json(instance_to_dict(inst), str(path))
    argv = ["solve", str(path), "--method", "dp-ef1", "--eps", "1/6", "--f-bits", "1"]
    assert main(argv + ["--budget-states", str(budget)]) == 2
    out = tmp_path / "sol.json"
    assert main(argv + ["--budget-states", str(2 * total), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["states"] == total
