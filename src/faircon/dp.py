"""Dynamic programming over discretized utility profiles, and the FPTAS
solvers built on it.

The DP walks the tasks in order and tracks every reachable cross-utility
profile (for each ordered agent pair (i, j), agent i's rounded utility on
agent j's bundle), keeping one representative (allocation, contract) per
profile: the one with the most principal units.  The fairness argument for
a representative depends only on its cross-utility profile, and the most
principal units can only improve the revenue guarantee.  Profiles are
packed into one or more int64 words, each component a bit field just wide
enough for the most it can reach (the sum over tasks of its largest option
delta) and never straddling a word, so a transition is a vectorized
integer addition; all grids are uniform, so rounded utilities are exact
integer unit counts.

A task layer's transition keeps each packed word as one contiguous int64
column and gives each candidate (state plus option delta) one int64 score,
(hmax - h) * span + gidx: hmax = future_h[0] bounds the principal units h,
and span, the layer's options times its previous states, exceeds every
backtrack index gidx, so the lowest score is the highest h and, among
equal h, the smallest gidx.  A candidate below the run's floor fails one
score comparison before any sort; one stable sort on the key alone
(`_sort_keys`) and one min-reduce keep each profile's lowest score
(`_dedupe_block`), block by block and then into a running set.  A layer
whose scores could pass 2^63 is refused.  dp-ef1's unit cap, one number
for every component, is tested only when some component can reach it.

Two instantiations: a uniform grid for eps-envy-free contracts, and
per-guess adaptive grids for EF1 contracts, where the contract grid for
each task spans exactly the range that keeps every agent at or below its
guessed utility.

Option generation is one exact integer pass over every (task, grid point)
row of a setup (`_dp_setup`).  A task's grid points are integers A over
one denominator D and each agent's p*r and c integers P and C over one
denominator L, so per row and agent u = A P - D C is D L times the
utility: u >= 0 is IR, the agent's units are ceil(u T / (D L S)) for its
step S/T, and the principal's are ceil((D - A) P K / (D L)).  Only the
first option of each agent and units is kept: a later one moves the
profile alike with no more principal units.  No agent's units fall along
a task's ascending grid, so rows of equal units are contiguous, and an IR
(row, agent) is kept where the row starts its task, its units differ from
the row before, or the agent was not IR there.  The kept options come out
task by task, grid point by grid point, agents in order, and are packed at
once into one table per task that the transitions, the scan and the
backtrack all read.  The pass runs in int64 when an exact bound on every
product, grid point and denominator stays below 2^53, so a float contract
A / D rounds as the exact quotient, and on Python ints otherwise.  Grid
points stay integers from the grid builders on, numerators over their
task's denominator (K for a uniform grid, L*K for an adaptive one); only a
contract `reconstruct` returns holds Fractions.

Both FPTAS solvers run through one guess loop (`_best_over_guesses`):
per (guess, grid) it floors the DP at the revenue the answer must beat,
hands on the state budget the earlier runs left, scans the final layer
and keeps the best verified candidate.  With no incumbent yet, it floors
the DP first at the layer's top less m principal units, where the answer
mostly sits, and lowers the floor only while no verified answer clears
it.  It stops once the incumbent earns the unconstrained optimum, and
skips a guess whose principal units cannot beat the incumbent before
building its option tables (`_best_task_h`, one bisection per agent and
task).  dp-eps-ef passes one uniform grid, dp-ef1 one per vector of
utility guesses.  One dict counts guesses, DP runs, states, verifier
calls and screen rejections.

The candidate scan walks the final layer in descending float revenue,
sorting only the head it reads (`_descending`).  For dp-ef1 it backtracks
fixed-size blocks of the band into agent and contract arrays and screens
EF1 in numpy on (agent, agent, task, row) arrays, rows last and
contiguous, so every pass and reduction runs along the block's rows.  A
screen-failer fails EF1 exactly, so it is never rebuilt: the scan visits
only the screen-passers (every row, without the screen), rebuilds each
for its exact revenue and verifies those that beat the incumbent.  The
float margins of the band and of the screen are derived from m below
(`_band_margin`, `_screen_slack`).
"""

from __future__ import annotations

import bisect
import functools
import itertools
import logging
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (
    Allocation,
    Contract,
    Instance,
    SolveResult,
    agent_task_utility,  # unused here; perfbench/tracing.py wraps dp.agent_task_utility
    greedy_ef,
    minimum_wage,  # unused here; perfbench/tracing.py wraps dp.minimum_wage
    revenue,
    unconstrained_opt,
    verify_ef1,
    verify_eps_ef,
)
from .errors import DEFAULT_STATE_BUDGET, BudgetExceededError, FairconError, InvalidInstanceError
from .numeric import Num, ONE, ZERO, as_fraction, ceil_div

log = logging.getLogger("faircon")

_CHUNK = 2_000_000  # transition candidates per numpy block


@dataclass(frozen=True)
class Discretization:
    """The DP's grids: per-task contract sets, per-agent utility steps
    (step 0 means the degenerate grid {0}), and K, whose inverse is the
    principal's step.  Task j's grid is (points, den): ascending integer
    numerators over one denominator, point k being the contract
    points[k] / den (`alpha`).

    Rounded utilities are ceil(value / step) steps, matching "smallest grid
    element >= value"; clamping at zero is implicit since grids start at 0.
    """

    task_grids: tuple[tuple[Sequence[int], int], ...]
    agent_steps: tuple[Fraction, ...]
    K: int

    def alpha(self, j: int, k: int) -> Fraction:
        """Point k of task j's grid."""
        points, den = self.task_grids[j]
        return Fraction(points[k], den)


def uniform_grid(inst: Instance, steps: int) -> Discretization:
    """The eps-EF discretization: contracts and utilities on {0, 1/K, .., 1}."""
    if steps < 1:
        raise InvalidInstanceError("need at least one grid step")
    grid = (range(steps + 1), steps)
    return Discretization((grid,) * inst.m, (Fraction(1, steps),) * inst.n, steps)


def adaptive_grid(inst: Instance, guess: Sequence[Num], K: int) -> Discretization:
    """EF1 discretization for one vector of guessed agent utilities.

    For each task, each agent's candidate contracts run from its minimum
    wage up to the largest contract keeping *every* agent at or below its
    guessed utility, in K uniform steps; the task's grid is the union over
    agents.  Agent utility grids have step guess / K; the principal keeps a
    plain 1/K grid.
    """
    guess = [as_fraction(g) for g in guess]
    if len(guess) != inst.n or any(g < 0 for g in guess):
        raise InvalidInstanceError("guess must give a nonnegative utility per agent")
    if K < 1:
        raise InvalidInstanceError("need at least one grid step")

    grids: list[tuple[tuple[int, ...], int]] = []
    for j in range(inst.m):
        caps = ((g + c[j]) / pr[j] for g, pr, c in zip(guess, inst.pr, inst.c) if pr[j])
        low_alpha = min([ONE, *caps])  # an agent with p*r = 0 caps nothing
        wages = [w for w in inst.viable_wages[j] if w <= low_alpha]
        if not wages:
            raise FairconError(f"no contract grid for task {j}; Assumption 1 broken?")
        # Point k of agent i's subgrid is w + k/K (low - w): over the common
        # denominator L*K its numerator is K*W + k*(LOW - W).
        L = math.lcm(low_alpha.denominator, *(w.denominator for w in wages))
        top = low_alpha.numerator * (L // low_alpha.denominator)
        points: set[int] = set()
        for w in wages:
            W = w.numerator * (L // w.denominator)
            points.update(range(K * W, K * top + 1, top - W) if top > W else (K * W,))
        grids.append((tuple(sorted(points)), L * K))

    return Discretization(tuple(grids), tuple(g / K for g in guess), K)


def instance_bit_length(inst: Instance) -> int:
    """Total bit length of all numerators and denominators in the data;
    a safe stand-in for the LP bit-complexity bound on vertex utilities."""
    total = 0
    for vec in (inst.r, *inst.p, *inst.c):
        for x in vec:
            total += x.numerator.bit_length() + x.denominator.bit_length()
    return total


def _ladder_top(inst: Instance, f_bits: int) -> int:
    """The exponent of the guess ladder's smallest nonzero rung m 2^-top."""
    if f_bits < 0:
        raise InvalidInstanceError("f_bits must be nonnegative")
    return f_bits + (inst.m - 1).bit_length()  # (m - 1).bit_length() = ceil(log2 m)


def utility_guesses(inst: Instance, f_bits: int) -> list[Fraction]:
    """The guess set {0} union {m 2^-i}, ascending: some element brackets
    each possible optimal utility within a factor of two (down to 2^-f_bits)."""
    top = _ladder_top(inst, f_bits)
    return [ZERO] + [Fraction(inst.m, 2**i) for i in range(top, -1, -1)]


class _Packer:
    """Packs profile components into int64 words as bit fields.

    Component c gets reach[c].bit_length() bits, where reach[c] bounds it
    on every state, so additions of option deltas never carry across
    fields.  Components go in order, the first in the most significant
    bits, and start a new word when the next field would pass 62 bits: the
    words, compared in order, order the keys as the component rows."""

    def __init__(self, reach: Sequence[int]):
        self.widths = [int(r).bit_length() for r in reach]
        if max(self.widths) > 62:
            raise InvalidInstanceError("grid too fine to pack profile components")
        self.reach = np.array(reach, dtype=np.int64)
        self.word_of = []
        word = used = 0
        for width in self.widths:
            if used + width > 62:
                word, used = word + 1, 0
            self.word_of.append(word)
            used += width
        self.n_words = word + 1

    def pack_rows(self, comps: np.ndarray) -> np.ndarray:
        """(N, n_comp) int64 component matrix -> (N, n_words) int64."""
        out = np.zeros((len(comps), self.n_words), dtype=np.int64)
        for pos, (w, width) in enumerate(zip(self.word_of, self.widths)):
            word = out[:, w]
            word <<= width
            word += comps[:, pos]
        return out

    def unpack_rows(self, rows: np.ndarray) -> np.ndarray:
        """(N, n_words) int64 -> (N, n_comp) int64 component matrix."""
        out = np.empty((len(rows), len(self.widths)), dtype=np.int64)
        rem = np.array(rows, dtype=np.int64)
        for pos in range(len(self.widths) - 1, -1, -1):
            word, width = rem[:, self.word_of[pos]], self.widths[pos]
            np.bitwise_and(word, (1 << width) - 1, out=out[:, pos])
            word >>= width
        return out


@dataclass
class DpResult:
    """Reachable cross-utility profiles, each with the representative path
    of most principal units.

    Layer t's state g came from option gidx[t][g] // n_prev of task t
    applied to state gidx[t][g] % n_prev of the layer before, which has
    n_prev states (one before task 0).  `keys` and `h` are the final
    layer's packed profiles and principal units.
    """

    inst: Instance
    disc: Discretization
    packer: _Packer
    # Per task: the agent, float contract, packed deltas, principal units
    # and contract grid index of each option, as arrays in (grid point,
    # agent) order: slices of one array each, built in one pass.
    tables: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    future_h: list[int]  # most principal units obtainable from task j on
    pr: np.ndarray  # float p*r and c, n x m, for the band and the screen
    c: np.ndarray
    gidx: list = field(default_factory=list)
    keys: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    states_total: int = 0

    def reconstruct(self, index: int) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        path = sorted(self._walk(index))  # (task, option index), task 0 first
        assignment = tuple(int(self.tables[t][0][o]) for t, o in path)
        return assignment, tuple(self.disc.alpha(t, self.tables[t][4][o]) for t, o in path)

    def _walk(self, positions):
        """(task, option index) for final-layer positions, an int or an
        array, last task first."""
        for t in range(self.inst.m - 1, -1, -1):
            n_prev = len(self.gidx[t - 1]) if t else 1
            g = self.gidx[t][positions]
            yield t, g // n_prev
            positions = g % n_prev

    def band(self, min_rev: Optional[Fraction]):
        """Final-layer positions whose principal units could still beat
        min_rev (h / K > min_rev), plus their float true revenues.

        Principal units overestimate true revenue, so anything outside the
        band is safely skipped.
        """
        h_min = 0 if min_rev is None else int(min_rev * self.disc.K) + 1
        positions = np.nonzero(self.h >= h_min)[0].astype(np.int64)
        frev = np.zeros(len(positions), dtype=np.float64)
        for t, o in self._walk(positions):
            agents, alphas = self.tables[t][:2]
            frev += ((1.0 - alphas) * self.pr[agents, t])[o]
        return positions, frev

    def choices(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, m) agent and float contract arrays of final-layer positions."""
        agents = np.empty((len(positions), self.inst.m), dtype=np.int64)
        alphas = np.empty((len(positions), self.inst.m), dtype=np.float64)
        for t, o in self._walk(positions):
            agent_of, alpha_of = self.tables[t][:2]
            agents[:, t] = agent_of[o]
            alphas[:, t] = alpha_of[o]
        return agents, alphas


def _task_terms(inst: Instance, j: int, D: int) -> tuple[list[int], list[int], list[int]]:
    """Per agent i, task j's p*r and D*c as integers P_i and DC_i over one
    denominator L_i: (L, P, DC)."""
    L, P, DC = [], [], []
    for i in range(inst.n):
        pr, c = inst.pr[i][j], inst.c[i][j]
        L.append(math.lcm(pr.denominator, c.denominator))
        P.append(pr.numerator * (L[i] // pr.denominator))
        DC.append(D * c.numerator * (L[i] // c.denominator))
    return L, P, DC


def _best_task_h(inst: Instance, disc: Discretization) -> list[int]:
    """Per task, the most principal units of any IR option: the largest
    principal units in the task's `_dp_setup` table.

    Along the ascending grid an agent's principal units never rise, so its
    most are at its first IR point, the first A with A P_i >= DC_i in
    `_task_terms`' terms, found by bisection.  An agent with p*r = 0 is IR
    at every point or none and earns the principal 0 units.
    """
    out = []
    for j, (points, D) in enumerate(disc.task_grids):
        best = []
        for L, P, DC in zip(*_task_terms(inst, j, D)):
            if P:
                k = bisect.bisect_left(points, -(-DC // P))
            else:
                k = 0 if DC <= 0 else len(points)
            if k < len(points):
                best.append(-((-(D - points[k]) * P * disc.K) // (D * L)))
        if not best:
            raise FairconError(f"task {j} has no IR grid contract")
        out.append(max(best))
    return out


def _sort_keys(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of the rows by key (`cols` holds the key's int64
    words as columns, the most significant first), and the sorted key as
    one int64 per row that orders and separates the rows as the key does.

    The first word is argsorted as it is.  Each later word joins the key as
    rank * top + word, where rank is the dense rank of the key so far and
    top exceeds the word; a word too wide for that product joins by its own
    dense rank.  Every argsort is stable, so a block made of sorted runs
    (one option's `states + delta`, or the two halves of a rolling merge)
    is merged rather than sorted from scratch.  Each row-sized temporary is
    freed as soon as it is read: on the largest layers they set peak memory.
    """
    order = np.argsort(cols[0], kind="stable")
    key = cols[0][order]
    for word in cols[1:]:
        word = word[order]
        if (int(word.max(initial=0)) + 1) * len(word) >= 2**63:
            word = np.unique(word, return_inverse=True)[1]
        top = int(word.max(initial=0)) + 1
        rank = np.zeros(len(key), dtype=np.int64)
        np.cumsum(key[1:] != key[:-1], out=rank[1:])
        del key
        rank *= top
        rank += word
        del word
        sub = np.argsort(rank, kind="stable")
        order, key = order[sub], rank[sub]
        del rank, sub
    return order, key


def _dedupe_block(cols: list[np.ndarray], score: np.ndarray):
    """The lowest-score row per distinct key, keys in lexicographic order.

    `cols` holds the key's int64 words as columns, the most significant
    first; `score` is (hmax - h) * span + gidx (`dp_enumerate`), so the
    lowest is the max h and, among equal h, the smallest gidx, matching the
    task/contract/agent loop order in whatever order a tie arrives.  One
    stable sort reads the key alone (`_sort_keys`); one gather and one
    min-reduce per key pick the score.
    """
    order, key = _sort_keys(cols)
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    del key
    if first.all():  # every key distinct
        return [c[order] for c in cols], score[order]
    starts = np.flatnonzero(first)
    del first
    order, score = order[starts], np.minimum.reduceat(score[order], starts)
    return [c[order] for c in cols], score


def _dp_setup(inst: Instance, disc: Discretization) -> DpResult:
    """A DpResult before any transition: the profile packer, every task's
    options as one table, `future_h` (summed from each table's most
    principal units) and the float p*r and c matrices.

    One pass over every (task, grid point) row builds the options (module
    docstring, "Option generation") from per (task, agent) terms: P, DC,
    T and the unit denominator D L S of the agent's step S/T (1 on a
    degenerate grid, where no unit may be positive), P K, D L and D."""
    n, K = inst.n, disc.K
    steps = [(step.numerator, step.denominator) for step in disc.agent_steps]
    terms, bound = [], 0
    for j, (points, D) in enumerate(disc.task_grids):
        top = max(D, points[-1] if len(points) else 0)  # bounds every A and D - A
        terms.append([])
        for L, P, DC, (S, T) in zip(*_task_terms(inst, j, D), steps):
            terms[j].append((P, DC, T, D * L * S or 1, P * K, D * L, D))
            # DC <= D L and |u| <= max(top P, D L), since p*r, c <= 1.
            bound = max(bound, top * max(P, 1) * max(T, K), D * L * max(S, 1))
    dtype = np.int64 if bound < 2**53 else object  # there A / D rounds as the exact quotient
    sizes = [len(points) for points, _ in disc.task_grids]
    starts = list(itertools.accumulate(sizes, initial=0))  # each task's first row, then the count
    A = np.array(list(itertools.chain.from_iterable(p for p, _ in disc.task_grids)), dtype=dtype)
    P, DC, T, den, PK, DL, D = np.repeat(np.array(terms, dtype), sizes, 0).transpose(2, 0, 1)
    u = A[:, None] * P - DC  # D L times each agent's utility, per row and agent
    keep = u >= 0  # IR, then only each agent's first option with its units
    units = -(-(np.maximum(u, 0) * T) // den)
    fresh = np.ones(starts[-1] + 1, dtype=bool)  # rows that start a task or a run of units
    np.any(units[1:] != units[:-1], axis=1, out=fresh[1 : starts[-1]])
    fresh[starts] = True
    keep[1:] &= fresh[1:-1, None] | ~keep[:-1]
    rows, agents = np.nonzero(keep)  # task, then grid point, then agent
    bounds = np.searchsorted(rows, starts).tolist()  # each task's first option, then the count
    # The first task with a positive utility on a degenerate grid or with
    # no option raises, as a loop over the tasks would.
    empty = next((j for j in range(inst.m) if bounds[j] == bounds[j + 1]), inst.m)
    degenerate = [i for i, (S, _) in enumerate(steps) if not S]
    if degenerate and (bad := u[:, degenerate] > 0).any():
        row, col = np.argwhere(bad)[0].tolist()
        if bisect.bisect_right(starts, row) - 1 < empty:
            i = degenerate[col]
            utility = Fraction(int(u[row, i]), int(DL[row, i]))
            raise FairconError(f"agent {i} has positive utility {utility} but a degenerate grid")
    if empty < inst.m:
        raise FairconError(f"task {empty} has no IR grid contract")
    deltas = np.zeros((len(rows), n, n), dtype=np.int64)
    deltas[np.arange(len(rows)), :, agents] = units[rows]  # agent i's on the receiver's bundle
    deltas = deltas.reshape(len(rows), -1)
    dh = (-((A[:, None] - D) * PK // DL))[rows, agents].astype(np.int64, copy=False)
    alphas = (A[rows] / D[rows, 0]).astype(np.float64, copy=False)  # rounded as float(Fraction)
    index = rows - np.repeat(starts[:-1], np.diff(bounds))
    # No state's component exceeds the sum over tasks of its largest delta.
    maxima = np.maximum.reduceat(deltas, bounds[:-1]).tolist()  # per task and component
    packer = _Packer([sum(col) for col in zip(*maxima)])
    packed = packer.pack_rows(deltas)
    tables = [
        (agents[s:e], alphas[s:e], packed[s:e], dh[s:e], index[s:e])
        for s, e in itertools.pairwise(bounds)
    ]
    tops = np.maximum.reduceat(dh, bounds[:-1]).tolist()
    future_h = itertools.accumulate(reversed(tops), initial=0)
    pr, c = (np.array(mat, dtype=np.float64) for mat in (inst.pr, inst.c))  # rounded as float(x)
    return DpResult(inst, disc, packer, tables, list(future_h)[::-1], pr, c)


def dp_enumerate(
    setup: DpResult,
    budget_states: int = DEFAULT_STATE_BUDGET,
    unit_cap: Optional[int] = None,
    min_final_h: int = 0,
) -> DpResult:
    """The max-principal-units IR (allocation, contract) per reachable
    cross-utility profile.

    Every emitted contract is IR by construction (non-IR pairs are never
    offered), and every IR contract on the grids shares its cross-utility
    profile with some representative of at least its principal units.
    unit_cap optionally drops states with a rounded cross-utility above it;
    soundness of the cap is the caller's concern (dp-ef1 derives it from
    its proof).  min_final_h drops any state that cannot reach that many
    principal units even with the best remaining tasks, and so keeps the
    unfloored run's final states of h >= min_final_h, backtracks included
    (0 or less drops nothing).  `setup` is `_dp_setup(inst, disc)`; it is
    left as it was, so it can seed further runs.
    """
    packer, future_h = setup.packer, setup.future_h
    hmax = future_h[0]  # no state's h exceeds it
    # No state passes the packer's reach, so the cap test runs only when
    # some component's reach passes the cap.
    if unit_cap is not None and np.all(packer.reach <= unit_cap):
        unit_cap = None

    def kept(cols: list[np.ndarray], score: np.ndarray):
        """A deduplicated block, as word columns, without the states over
        the cap.  The cap test reads only the key, so pruning each block
        before the merge keeps exactly the states that pruning the merged
        layer would."""
        if unit_cap is None:
            return cols, score
        mask = np.all(packer.unpack_rows(np.array(cols).T) <= unit_cap, axis=1)
        return [c[mask] for c in cols], score[mask]

    # One contiguous int64 column per packed word; principal units as hmax - h.
    cols = [np.zeros(1, dtype=np.int64) for _ in range(packer.n_words)]
    hneg = np.full(1, hmax, dtype=np.int64)
    total = 0
    layers = []
    for j, (_, _, deltas, dh, _) in enumerate(setup.tables):
        need = min_final_h - future_h[j + 1]
        n_prev = len(hneg)
        span = len(dh) * n_prev  # every gidx of the layer is below it
        if (hmax + 1) * span >= 2**63:
            raise InvalidInstanceError("grid too fine to pack principal units and backtrack")
        # A candidate's h is h[s] + dh[o]: when the smallest clears `need`,
        # so does every one and the filter is skipped.
        filter_h = n_prev > 0 and hmax - hneg.max() + dh.min() < need
        delta_cols = [np.ascontiguousarray(deltas[:, w]) for w in range(packer.n_words)]
        running = None  # rolling merge keeps memory at O(distinct states)
        block = max(1, _CHUNK // max(1, n_prev))
        for start in range(0, len(dh), block):
            sub = slice(start, start + block)
            score = (hneg[None, :] - dh[sub][:, None]).ravel()
            score *= span
            score += np.arange(start * n_prev, start * n_prev + len(score), dtype=np.int64)
            cand = ((c[None, :] + d[sub][:, None]).ravel() for c, d in zip(cols, delta_cols))
            if filter_h:
                # Drop h < need before the sort, one key word at a time: a
                # key's group keeps exactly its rows of max h, which all
                # clear need or none do.
                mask = score < (hmax - need + 1) * span
                cand, score = (c[mask] for c in cand), score[mask]
            piece = kept(*_dedupe_block(list(cand), score))
            running = piece if running is None else _dedupe_block(
                [np.concatenate(pair) for pair in zip(running[0], piece[0])],
                np.concatenate((running[1], piece[1])),
            )
            # The running set only grows and ends as this layer's states.
            if total + len(running[1]) > budget_states:
                raise BudgetExceededError("states", budget_states, total + len(running[1]))
        cols, score = running
        hneg, gidx = np.divmod(score, span)
        total += len(hneg)
        layers.append(gidx)
        log.debug("dp task %d: %d states", j, len(hneg))
    return DpResult(
        setup.inst, setup.disc, packer, setup.tables, future_h, setup.pr, setup.c,
        layers, np.stack(cols, 1), hmax - hneg, total,
    )


# Float margins.  Entries a, p*r, c lie in [0, 1] and round to the nearest
# float64 with relative error at most u = 2^-53.
#
# Band revenue: the term (1 - a) p r comes out within 4.001u of its exact
# value (|a - float(a)| <= u before the subtraction, then three relative
# roundings of a value <= 1), and adding m such terms in a row adds at most
# (m - 1) m u (1 + 4.001u) / (1 - (m - 1) u).  So for m <= 10^6
#     |band revenue - exact revenue| <= 1.002 m (m + 4) u = _band_error(m),
# and the incumbent's float(revenue) is off by at most m u more.  The scan
# stops at a candidate below the incumbent's float by more than the margin,
# which is sound while the margin exceeds _band_error(m) + m u.  1e-9 is at
# least twice that up to m = 2,100; beyond, the margin grows with the bound.
_BAND_MARGIN = 1e-9
#
# EF1 screen: an entry a p r - c, and its clamp max(., 0), comes out within
# 6u of its exact value.  The own and switch sums run over disjoint
# bundles, at most m tasks together, so they are off by at most
# 6 m u + 1.001 m^2 u together (any summation order: adding an exact zero
# never rounds); the best drop adds 6u and the two subtractions, of values
# <= m + 1, add u (2m + 1).  So the float EF1 slack own - (switch - drop)
# is within _screen_error(m) = 1.01 m (m + 15) u of the exact one, and a
# screen tolerance above it never drops an exact passer.  1e-7 is at least
# twice that up to m = 21,000; beyond, the tolerance grows with the bound.
_SCREEN_SLACK = 1e-7
_UNIT_ROUNDOFF = 2.0**-53
_SCAN_BLOCK = 4096  # band positions per screened block; bounds scan memory


def _band_error(m: int) -> float:
    return 1.002 * m * (m + 4) * _UNIT_ROUNDOFF


def _band_margin(m: int) -> float:
    return max(_BAND_MARGIN, 2 * (_band_error(m) + m * _UNIT_ROUNDOFF))


def _screen_error(m: int) -> float:
    return 1.01 * m * (m + 15) * _UNIT_ROUNDOFF


def _screen_slack(m: int) -> float:
    return max(_SCREEN_SLACK, 2 * _screen_error(m))


def _ef1_screen(terms, agents: np.ndarray, alphas: np.ndarray, slack: float) -> np.ndarray:
    """Float EF1 screen of N contracts, given as (N, m) agent and contract
    arrays: False only where EF1 fails by more than `slack`.  `terms` holds
    p*r and c as n x m matrices `pr` and `c`: a DpResult's float arrays, or
    an Instance's Fractions, rounded here as float(x).

    It reads the terms of `core.fairness_report`: own sums, clamped switch
    sums and best drops.  Every array is laid out (agent, agent, task, row),
    rows last and contiguous, so each pass and reduction runs along the N
    rows.  The own sum is always the clamped one: at tolerance 0 the exact
    verifier's own sum is the clamped sum whether or not IR holds (under IR
    the clamp changes no own task), so no IR branch is needed.  Own sums are
    the diagonal of the switch sums; an empty bundle has switch and drop 0
    and so always passes.
    """
    pr, c = (np.asarray(mat, dtype=np.float64) for mat in (terms.pr, terms.c))
    n = len(pr)
    gains = np.ascontiguousarray(alphas.T) * pr[:, :, None]  # (n, m, N): agent i, task t
    gains -= c[:, :, None]
    np.maximum(gains, 0.0, out=gains)
    member = np.ascontiguousarray(agents.T) == np.arange(n)[:, None, None]  # (n, m, N): t in S_j
    held = gains[:, None] * member  # (n, n, m, N): i's gain on t when t is in S_j, else 0
    switch = held.sum(axis=2)  # (n, n, N)
    own = switch[np.arange(n), np.arange(n)]  # (n, N), a copy
    # In place: each fresh block-sized temporary costs more than its pass.
    switch -= held.max(axis=2)
    switch -= slack
    return np.all(own[:, None] >= switch, axis=(0, 1))


def _descending(frev: np.ndarray, low: float):
    """The positions of frev at or above `low`, in the order
    np.argsort(-frev, kind="stable") gives, as blocks of _SCAN_BLOCK.

    Only the head that is read gets sorted.  Each round partitions off the
    `size` largest values, ties included, so the stable sort of that head
    starts with the first `size` positions of the full order; the round
    yields the blocks among them not yet yielded and doubles `size`, so a
    scan that reads everything sorts at most about twice as much as one
    full sort.
    """
    live = np.flatnonzero(frev >= low)
    neg = -frev[live]
    done, size = 0, _SCAN_BLOCK
    while done < len(live):
        if size < len(live):
            head = np.flatnonzero(neg <= np.partition(neg, size - 1)[size - 1])
        else:
            head = np.arange(len(live))
        order = live[head[np.argsort(neg[head], kind="stable")]]
        for start in range(done, min(size, len(live)), _SCAN_BLOCK):
            yield order[start : start + _SCAN_BLOCK]
        done, size = size, 2 * size


def _scan_candidates(dp: DpResult, best_rev, best, verify, screen: bool):
    """Best-true-revenue verifier-passing candidate, scanned by descending
    float revenue; returns (revenue, contract, verifier calls, screened).

    With `screen`, the float EF1 screen runs first over each fixed-size
    block of the scan, and only its passers are visited; without it, every
    row is.  The scan stops at the first visited row more than the band
    margin below the incumbent's float revenue; a visited row is rebuilt
    for its exact revenue, skipped unless that beats the incumbent, and
    otherwise verified.  `screened` counts the rows the screen rejected
    above that stop (`tests/oracles.scan_candidates_reference`).
    """
    inst = dp.inst
    positions, frev = dp.band(best_rev)
    margin = _band_margin(inst.m)
    slack = _screen_slack(inst.m)
    checks = screened = 0
    fbest = float(best_rev) if best_rev is not None else -math.inf
    # Float revenue falls along the scan and fbest only rises, so the scan
    # never reaches a revenue below this cut.
    for block in _descending(frev, fbest - margin):
        fr, pos = frev[block], positions[block]
        if screen:
            ok = _ef1_screen(dp, *dp.choices(pos), slack)
        else:
            ok = np.ones(len(block), dtype=bool)
        for q in np.flatnonzero(ok).tolist():
            if fr[q] < fbest - margin:
                break
            assignment, alphas = dp.reconstruct(int(pos[q]))
            contract = Contract(Allocation(assignment, inst.n), alphas)
            rev = revenue(inst, contract)
            if best_rev is not None and rev <= best_rev:
                continue
            checks += 1
            if verify(contract):
                best_rev, best, fbest = rev, contract, float(rev)
        # The scan passed exactly the rows at or above its final cut, a
        # prefix: the row that set the final incumbent is within the margin
        # of it, so every row below the cut comes after that row.
        reached = int(np.count_nonzero(fr >= fbest - margin))
        screened += reached - int(np.count_nonzero(ok[:reached]))
        if reached < len(block):
            break
    return best_rev, best, checks, screened


def _best_over_guesses(inst, runs, unit_cap, rev_floor, budget_states, verify, screen):
    """The best verifier-passing candidate over the DP runs of
    (guess, discretization) pairs, in order, each capped at `unit_cap`
    units per cross-utility (None for no cap).

    A guess's run drops the states that cannot reach `rev_floor` (a revenue
    the guaranteed candidate provably clears) or beat the incumbent, and
    gets what the earlier runs left of the state budget.  With no incumbent,
    the first run's floor f is top - m, top = `future_h[0]`, or the proof
    floor if higher.  Until f - 1 < R K for a verified revenue R (no dropped
    state can then earn R) or f is the proof floor, the guess runs again
    from its one setup, scanning from scratch, at f = ceil(R K) once some R
    is verified, else at top - 2m, top - 4m, ...; a memo verifies each
    contract once per guess.  The scan replaces the incumbent only on a
    strictly higher revenue, so two kinds of guess could change nothing and
    are not run: every guess once the incumbent earns `unconstrained_opt`,
    which no IR contract exceeds, and a guess whose best principal units
    (the sum of `_best_task_h`, its `future_h[0]`, above any of its
    revenues) over K do not exceed the incumbent's revenue; these count as
    pruned, and their option tables are never built.  Returns (contract,
    revenue, its guess, counts): the guesses run and pruned, the DP runs,
    their states, the rows the float screen rejected (`_scan_candidates`)
    and the contracts verified.
    """
    ceiling = unconstrained_opt(inst)
    best_rev: Optional[Fraction] = None
    best: Optional[Contract] = None
    best_guess = None
    counts = dict.fromkeys("guesses guesses_pruned runs states screened exact_checks".split(), 0)
    for guess, disc in runs:
        if best_rev is not None and sum(_best_task_h(inst, disc)) <= best_rev * disc.K:
            counts["guesses_pruned"] += 1
            continue
        counts["guesses"] += 1
        setup, checked = _dp_setup(inst, disc), functools.cache(verify)
        low = int((rev_floor if best_rev is None else max(rev_floor, best_rev)) * disc.K)
        drop = inst.m
        floor = low if best_rev is not None else max(low, setup.future_h[0] - drop)
        while True:
            states = counts["states"]
            try:
                dp = dp_enumerate(setup, budget_states - states, unit_cap, floor)
            except BudgetExceededError as exc:
                raise BudgetExceededError("states", budget_states, states + exc.needed) from None
            counts["runs"] += 1
            counts["states"] += dp.states_total
            new_rev, new_best, _, screened = _scan_candidates(dp, best_rev, best, checked, screen)
            counts["screened"] += screened
            found = new_best is not best
            if floor <= low or (found and floor - 1 < new_rev * disc.K):
                break
            drop *= 2
            floor = max(low, math.ceil(new_rev * disc.K) if found else setup.future_h[0] - drop)
        counts["exact_checks"] += checked.cache_info().misses
        if found:
            best_rev, best, best_guess = new_rev, new_best, guess
        if best_rev == ceiling:
            break
    if best is None:
        raise FairconError("no candidate passed verification; this contradicts the guarantee")
    log.info(
        "fptas: %d guesses, %d pruned, %d runs, %d states, %d screened, %d exact checks, "
        "best revenue %s", *counts.values(), best_rev,
    )
    return best, best_rev, best_guess, counts


def _fptas_front(inst: Instance, eps: Num, rule) -> tuple[Fraction, Fraction, int, Fraction]:
    """An FPTAS's parameters for the public eps: eps as a Fraction, the
    internal x = rule(eps), the grid size K = ceil(m / x), so the step 1/K
    is at most x/m, and the revenue floor: either proof's guaranteed
    candidate earns at least OPT-EF - 2x, and greedy EF lower-bounds OPT-EF."""
    eps = as_fraction(eps)
    if eps <= 0:
        raise InvalidInstanceError("eps must be positive")
    x = rule(eps)
    return eps, x, ceil_div(inst.m, x), revenue(inst, greedy_ef(inst)) - 2 * x


def solve_eps_ef_fptas(
    inst: Instance,
    eps: Num,
    budget_states: int = DEFAULT_STATE_BUDGET,
) -> SolveResult:
    """eps-envy-free contract with revenue within eps of the envy-free
    optimum, via the profile DP on a uniform grid.

    Internally the grid parameter is eps/3: the DP's representative of the
    rounded optimum is 3*(eps/3)-EF and loses at most 2*(eps/3) revenue, so
    the public contract holds with the single public knob.
    """
    eps, eps_int, K, floor = _fptas_front(inst, eps, lambda eps: eps / 3)
    # Building the grid alone costs time linear in its K + 1 points, so
    # charge them before it is built.
    if K + 1 > budget_states:
        raise BudgetExceededError("states", budget_states, K + 1)
    best, best_rev, _, counts = _best_over_guesses(
        inst, [(None, uniform_grid(inst, K))], None, floor, budget_states,
        lambda contract: verify_eps_ef(inst, contract, eps, tol=0), screen=False,
    )
    meta = {"eps": eps, "eps_internal": eps_int, "delta": Fraction(1, K), "grid_points": K + 1}
    meta.update({key: counts[key] for key in ("runs", "states", "exact_checks")})
    return SolveResult(best, best_rev, "dp-eps-ef", meta)


def solve_ef1_fptas(
    inst: Instance,
    eps: Num,
    budget_states: int = DEFAULT_STATE_BUDGET,
    f_bits: Optional[int] = None,
) -> SolveResult:
    """EF1 contract (exactly, no relaxation) with revenue within eps of the
    envy-free optimum.

    Outer loop guesses each agent's optimal utility from a doubling ladder;
    per guess, task grids adapt so no agent can overshoot its guess, making
    rounded utilities multiplicatively faithful, which is what turns
    near-envy-freeness into exact EF1.  Candidates from all guesses are
    filtered by the exact EF1 verifier; the best true revenue wins.  The
    loop stops once the incumbent earns `unconstrained_opt` and skips the
    guesses that cannot beat it.  meta counts the guesses run (`guesses`)
    and skipped (`guesses_pruned`), the DP `runs`, their `states`, the
    contracts verified (`exact_checks`) and the rows the float screen
    rejected (`screened`).
    budget_states bounds the DP states of all guesses together.
    """
    n, m = inst.n, inst.m
    # nu = eps/2 (not eps) so the proof's 2*nu revenue loss meets the
    # public -eps contract; the 1/(6m) cap drives the EF1 argument.
    eps, nu, K, floor = _fptas_front(inst, eps, lambda eps: min(eps / 2, Fraction(1, 6 * m)))
    f_bits = instance_bit_length(inst) if f_bits is None else f_bits

    # The ladder has top + 2 rungs and every guess runs the DP, and an
    # agent's subgrid of a task has up to K + 1 points: charge the larger
    # count before any rung or grid is built.
    need = max((_ladder_top(inst, f_bits) + 2) ** n, K + 1)
    if need > budget_states:
        raise BudgetExceededError("states", budget_states, need)
    ladder = utility_guesses(inst, f_bits)
    per_agent: list[list[Fraction]] = []
    for i in range(n):
        cap = 2 * sum((max(inst.welfare(i, j), ZERO) for j in range(m)), ZERO)
        per_agent.append([g for g in ladder if g <= cap] or [ZERO])

    runs = ((guess, adaptive_grid(inst, guess, K)) for guess in itertools.product(*per_agent))
    # The cap is the same for every guess: an agent guessed at 0 gets a grid
    # at or below its minimum wage on every task, so it holds no unit anyway.
    unit_cap = K + math.ceil(nu * K) + m
    best, best_rev, best_guess, counts = _best_over_guesses(
        inst, runs, unit_cap, floor, budget_states,
        lambda k: verify_ef1(inst, k, tol=0)[0], screen=True,
    )
    meta = {"eps": eps, "nu": nu, "delta": Fraction(1, K), "f_bits": f_bits, "guess": best_guess}
    return SolveResult(best, best_rev, "dp-ef1", {**meta, **counts})
