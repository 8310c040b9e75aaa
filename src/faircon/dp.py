"""Dynamic programming over discretized utility profiles, and the FPTAS
solvers built on it.

The DP walks the tasks in order and tracks every reachable cross-utility
profile (for each ordered agent pair (i, j), agent i's rounded utility on
agent j's bundle), keeping one representative (allocation, contract) per
profile: the one with the most principal units.  The fairness argument for
a representative depends only on its cross-utility profile, and the most
principal units can only improve the revenue guarantee.  Profiles are
radix-packed into one or more int64 words (components never straddle a
word), so a transition is a vectorized integer addition; all grids are
uniform, so rounded utilities are exact integer unit counts.

A task layer's transition keeps each packed word as one contiguous int64
column.  Candidates (state plus option delta) whose principal units cannot
reach the run's floor are dropped before any sort.  One stable sort on the
key alone (`_sort_keys`) then brings equal profiles together, and one
linear pass keeps each one's max h and, among its rows with that h, the
smallest backtrack index (`_dedupe_block`).  A layer too large for one
block is built block by block and merged into a running set the same way.
The per-agent cap test runs only when some component can reach its cap at
all.

Two instantiations: a uniform grid for eps-envy-free contracts, and
per-guess adaptive grids for EF1 contracts, where the contract grid for
each task spans exactly the range that keeps every agent at or below its
guessed utility.

Option generation is integer arithmetic.  A task's grid points are put
over one common denominator D and each agent's p*r and c over one
denominator L, so the IR sign, the agent units and the principal units of
every (grid point, agent) pair are one integer product and one floor
division each.  Adaptive grids are built the same way, as integer
numerators over L*K, and each distinct point becomes a Fraction once.

Both FPTAS solvers run through one guess loop (`_best_over_guesses`):
per (guess, grid, caps) run it floors the DP at the revenue the answer
must beat, hands on the state budget the earlier runs left, scans the
final layer and keeps the best verified candidate.  It stops once the
incumbent earns the unconstrained optimum and skips a run whose principal
units cannot beat the incumbent.  dp-eps-ef passes one run on a uniform
grid, dp-ef1 one run per vector of utility guesses.

The candidate scan walks the final layer in descending float revenue.  For
dp-ef1 it backtracks fixed-size blocks of the band into (N, m) agent and
contract arrays and screens EF1 in numpy over the (N, n, m) utility
tensor; only screen-passers, and screen-failers whose float revenue is too
close to the incumbent's to order, are reconstructed and given an exact
revenue.  The float margins of the band and of the screen are derived from
m below (`_band_margin`, `_screen_slack`).
"""

from __future__ import annotations

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
    agent_task_utility,
    greedy_ef,
    minimum_wage,
    revenue,
    unconstrained_opt,
    verify_ef1,
    verify_eps_ef,
)
from .errors import BudgetExceededError, FairconError, InvalidInstanceError
from .numeric import Num, ONE, ZERO, as_fraction, ceil_div

log = logging.getLogger("faircon")

DEFAULT_STATE_BUDGET = 5_000_000
_CHUNK = 2_000_000  # transition candidates per numpy block


@dataclass(frozen=True)
class Discretization:
    """Uniform grids: per-task contract sets in ascending order, per-agent
    utility steps (step 0 means the degenerate grid {0}), and the
    principal's step.

    Rounded utilities are ceil(value / step) steps, matching "smallest grid
    element >= value"; clamping at zero is implicit since grids start at 0.
    """

    task_grids: tuple[tuple[Fraction, ...], ...]
    agent_steps: tuple[Fraction, ...]
    principal_step: Fraction


def uniform_grid(inst: Instance, steps: int) -> Discretization:
    """The eps-EF discretization: contracts and utilities on {0, 1/K, .., 1}."""
    if steps < 1:
        raise InvalidInstanceError("need at least one grid step")
    grid = tuple(Fraction(k, steps) for k in range(steps + 1))
    return Discretization(
        task_grids=(grid,) * inst.m,
        agent_steps=(Fraction(1, steps),) * inst.n,
        principal_step=Fraction(1, steps),
    )


def adaptive_grid(inst: Instance, guess: Sequence[Num], delta: Num) -> Discretization:
    """EF1 discretization for one vector of guessed agent utilities.

    For each task, each agent's candidate contracts run from its minimum
    wage up to the largest contract keeping *every* agent at or below its
    guessed utility, in K = ceil(1/delta) uniform steps; the task's grid is
    the union over agents.  Agent utility grids have step guess / K; the
    principal keeps a plain 1/K grid.
    """
    guess = [as_fraction(g) for g in guess]
    if len(guess) != inst.n or any(g < 0 for g in guess):
        raise InvalidInstanceError("guess must give a nonnegative utility per agent")
    delta = as_fraction(delta)
    if not (0 < delta <= 1):
        raise InvalidInstanceError("delta must be in (0, 1]")
    K = ceil_div(ONE, delta)

    grids: list[tuple[Fraction, ...]] = []
    for j in range(inst.m):
        cap_alpha = []
        for i in range(inst.n):
            pr = inst.pr[i][j]
            if pr == 0:
                cap_alpha.append(ONE)
            else:
                cap_alpha.append(min(ONE, (guess[i] + inst.c[i][j]) / pr))
        low_alpha = min(cap_alpha)
        wages = [w for i in inst.viable_agents(j) if (w := minimum_wage(inst, i, j)) <= low_alpha]
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
        grids.append(tuple(Fraction(x, L * K) for x in sorted(points)))

    return Discretization(
        task_grids=tuple(grids),
        agent_steps=tuple(g / K for g in guess),
        principal_step=Fraction(1, K),
    )


def instance_bit_length(inst: Instance) -> int:
    """Total bit length of all numerators and denominators in the data;
    a safe stand-in for the LP bit-complexity bound on vertex utilities."""
    total = 0
    for vec in (inst.r, *inst.p, *inst.c):
        for x in vec:
            total += x.numerator.bit_length() + x.denominator.bit_length()
    return total


def _ladder_top(inst: Instance, f_bits: Optional[int]) -> int:
    """The exponent of the guess ladder's smallest nonzero rung m 2^-top."""
    if f_bits is not None and f_bits < 0:
        raise InvalidInstanceError("f_bits must be nonnegative")
    f = instance_bit_length(inst) if f_bits is None else f_bits
    return f + max(0, math.ceil(math.log2(inst.m))) if inst.m > 1 else f


def utility_guesses(inst: Instance, f_bits: Optional[int] = None) -> list[Fraction]:
    """The guess set {0} union {m 2^-i}: some element brackets each possible
    optimal utility within a factor of two (down to 2^-f_bits)."""
    top = _ladder_top(inst, f_bits)
    out = [ZERO] + [Fraction(inst.m) * Fraction(1, 2**i) for i in range(top + 1)]
    return sorted(set(out))


class _Packer:
    """Radix-packs profile components into int64 words, one or more
    components per word so additions never carry across components."""

    def __init__(self, radix: int, n_comp: int):
        if radix >= 2**62:
            raise InvalidInstanceError("grid too fine to pack profile components")
        self.radix = radix
        self.n_comp = n_comp
        self.per_word = max(1, int(62 // math.log2(max(2, radix))))
        self.n_words = -(-n_comp // self.per_word)

    def pack(self, comps: Sequence[int]) -> tuple[int, ...]:
        words = []
        for w in range(self.n_words):
            chunk = comps[w * self.per_word : (w + 1) * self.per_word]
            key = 0
            for c in chunk:
                key = key * self.radix + c
            words.append(key)
        return tuple(words)

    def unpack_rows(self, rows: np.ndarray) -> np.ndarray:
        """(N, n_words) int64 -> (N, n_comp) int64 component matrix."""
        out = np.empty((len(rows), self.n_comp), dtype=np.int64)
        for w in range(self.n_words):
            chunk = min(self.per_word, self.n_comp - w * self.per_word)
            rem = rows[:, w].copy()
            for pos in range(chunk - 1, -1, -1):
                rem, val = np.divmod(rem, self.radix)
                out[:, w * self.per_word + pos] = val
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
    options: list[list[tuple[int, Fraction, tuple[int, ...], int]]]
    # Per task: the agent, float contract, packed deltas and principal
    # units of each option, as arrays.
    tables: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    future_h: list[int]  # most principal units obtainable from task j on
    gidx: list = field(default_factory=list)
    keys: Optional[np.ndarray] = None
    h: Optional[np.ndarray] = None
    states_total: int = 0

    def reconstruct(self, index: int) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        assignment = [0] * self.inst.m
        alphas: list[Fraction] = [ZERO] * self.inst.m
        for t, o in self._walk(index):
            assignment[t], alphas[t] = self.options[t][o][:2]
        return tuple(assignment), tuple(alphas)

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
        min_rev (h * step > min_rev), plus their float true revenues.

        Principal units overestimate true revenue, so anything outside the
        band is safely skipped.
        """
        step = self.disc.principal_step
        h_min = 0 if min_rev is None else int(min_rev / step) + 1
        positions = np.nonzero(self.h >= h_min)[0].astype(np.int64)
        frev = np.zeros(len(positions), dtype=np.float64)
        pr = np.array([[float(x) for x in row] for row in self.inst.pr])
        for t, o in self._walk(positions):
            agents, alphas = self.tables[t][:2]
            frev += ((1.0 - alphas) * pr[agents, t])[o]
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


def _task_options(
    inst: Instance, disc: Discretization, j: int, packer: _Packer
) -> list[tuple[int, Fraction, tuple[int, ...], int]]:
    """IR (alpha, agent) choices for task j as (agent, alpha, packed cross
    deltas, principal units), deduplicated when they move the profile
    identically.

    Exact integer kernel: with the grid point alpha = A/D and agent i's
    p*r = P_i/L_i and c = C_i/L_i, utility u_i = (A P_i - D C_i)/(D L_i), so
    its sign is the IR test and, for a step S_i/T_i, its units are
    ceil((A P_i - D C_i) T_i / (D L_i S_i)); the principal's units are
    ceil((D - A) P_i T / (D L_i S)) for its step S/T.
    """
    n = inst.n
    grid = disc.task_grids[j]
    D = math.lcm(*(a.denominator for a in grid))
    h_step = disc.principal_step
    L, P, DC, unit_den, unit_mul, h_den, h_mul = [], [], [], [], [], [], []
    for i in range(n):
        pr, c = inst.pr[i][j], inst.c[i][j]
        L.append(math.lcm(pr.denominator, c.denominator))
        P.append(pr.numerator * (L[i] // pr.denominator))
        DC.append(D * c.numerator * (L[i] // c.denominator))
        step = disc.agent_steps[i]
        unit_den.append(D * L[i] * step.numerator)  # 0 marks a degenerate grid
        unit_mul.append(step.denominator)
        h_den.append(D * L[i] * h_step.numerator)
        h_mul.append(P[i] * h_step.denominator)

    out: list[tuple[int, Fraction, tuple[int, ...], int]] = []
    seen: set[tuple[int, ...]] = set()
    for alpha in grid:
        A = alpha.numerator * (D // alpha.denominator)
        u = [A * P[i] - DC[i] for i in range(n)]  # D L_i times the utility
        units = [0] * n  # the same for any receiver
        for i in range(n):
            if u[i] > 0:
                if unit_den[i] == 0:
                    raise FairconError(
                        f"agent {i} has positive utility {Fraction(u[i], D * L[i])} "
                        "but a degenerate grid"
                    )
                units[i] = -((-u[i] * unit_mul[i]) // unit_den[i])
        units = tuple(units)
        for agent in range(n):
            if u[agent] < 0:
                continue  # not IR: this pair can never appear in a contract
            dh = -((-(D - A) * h_mul[agent]) // h_den[agent])
            sig = (agent, dh, units)
            if sig in seen:
                continue
            seen.add(sig)
            dv = [0] * (n * n)
            dv[agent::n] = units  # agent i's units on the receiver's bundle
            out.append((agent, alpha, packer.pack(dv), dh))
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


def _dedupe_block(cols: list[np.ndarray], h: np.ndarray, gidx: np.ndarray):
    """The max-h representative per distinct key, keys in lexicographic order.

    `cols` holds the key's int64 words as separate columns, the most
    significant first.  One stable sort reads the key alone (`_sort_keys`),
    not h or gidx.  One linear pass over the sorted key then finds where
    each key's group starts and keeps the group's largest h and, among its
    rows with that h, the smallest gidx, matching the task/contract/agent
    loop order.  It reads gidx itself, not the row's sorted position: the
    rows of a tie need not arrive in gidx order.
    """
    order, key = _sort_keys(cols)
    first = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    del key
    if first.all():  # every key distinct
        return [c[order] for c in cols], h[order], gidx[order]
    starts = np.flatnonzero(first)
    del first
    h, gidx, order = h[order], gidx[order], order[starts]
    best = np.maximum.reduceat(h, starts)
    # gidx is this function's own copy: mask the rows below their group's max.
    np.putmask(gidx, h != np.repeat(best, np.diff(starts, append=len(h))), np.iinfo(np.int64).max)
    return [c[order] for c in cols], best, np.minimum.reduceat(gidx, starts)


def _dp_setup(inst: Instance, disc: Discretization) -> DpResult:
    """A DpResult before any transition: the profile packer, every task's
    options, as tuples and as arrays, and `future_h`."""
    n, m = inst.n, inst.m
    max_units = 0
    for j in range(m):
        top = disc.task_grids[j][-1]
        for i in range(n):
            u = agent_task_utility(inst, i, j, top)
            if u > 0 and disc.agent_steps[i] > 0:
                max_units = max(max_units, ceil_div(u, disc.agent_steps[i]))
    packer = _Packer(m * max(1, max_units) + 1, n * n)
    options = [_task_options(inst, disc, j, packer) for j in range(m)]
    tables = [
        (
            np.array([o[0] for o in opts], dtype=np.int64),
            np.array([float(o[1]) for o in opts], dtype=np.float64),
            np.array([o[2] for o in opts], dtype=np.int64),
            np.array([o[3] for o in opts], dtype=np.int64),
        )
        for opts in options
    ]
    future_h = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        future_h[j] = future_h[j + 1] + max((o[3] for o in options[j]), default=0)
    return DpResult(inst, disc, packer, options, tables, future_h)


def dp_enumerate(
    inst: Instance,
    disc: Discretization,
    budget_states: int = DEFAULT_STATE_BUDGET,
    prune_caps: Optional[Sequence[int]] = None,
    min_final_h: Optional[int] = None,
    prepared: Optional[DpResult] = None,
) -> DpResult:
    """The max-principal-units IR (allocation, contract) per reachable
    cross-utility profile.

    Every emitted contract is IR by construction (non-IR pairs are never
    offered), and every IR contract on the grids shares its cross-utility
    profile with some representative of at least its principal units.
    prune_caps optionally drops states whose rounded cross-utilities exceed
    a per-agent unit cap; soundness of a cap is the caller's concern (dp-ef1
    derives its caps from its proof).  min_final_h drops any
    state that cannot reach that many principal units even with the best
    remaining tasks (the callers use it with a floor the guaranteed
    candidate provably clears).  `prepared` is `_dp_setup(inst, disc)`
    when the caller has already built it.
    """
    n, m = inst.n, inst.m
    result = _dp_setup(inst, disc) if prepared is None else prepared
    packer, future_h = result.packer, result.future_h
    # Component i*n + j is agent i's units on agent j's bundle.  No state
    # exceeds the sum over tasks of each component's largest option delta,
    # so the cap test runs only when that sum passes some cap.
    caps = None if prune_caps is None else np.repeat(np.array(prune_caps, dtype=np.int64), n)
    if caps is not None:
        reach = sum(packer.unpack_rows(t[2]).max(axis=0) for t in result.tables if len(t[3]))
        if np.all(reach <= caps):
            caps = None

    def kept(cols: list[np.ndarray], hv: np.ndarray, gidx: np.ndarray):
        """A deduplicated block, as word columns, without the states over a
        cap.  The cap test reads only the key, so pruning each block before
        the merge keeps exactly the states that pruning the merged layer
        would.  The h floor is not tested here: it reads only a key's max h,
        so the candidates below it were dropped before the sort."""
        if caps is None:
            return cols, hv, gidx
        mask = np.all(packer.unpack_rows(np.array(cols).T) <= caps, axis=1)
        return [c[mask] for c in cols], hv[mask], gidx[mask]

    # Profiles are kept as one contiguous int64 column per packed word.
    cols = [np.zeros(1, dtype=np.int64) for _ in range(packer.n_words)]
    h_vals = np.zeros(1, dtype=np.int64)
    total = 0
    for j in range(m):
        _, _, deltas, dh = result.tables[j]
        if not len(dh):
            raise FairconError(f"task {j} has no IR grid contract")
        need = 0 if min_final_h is None else min_final_h - future_h[j + 1]
        n_prev = len(h_vals)
        # A candidate's h is h_vals[s] + dh[o]: when the smallest clears
        # `need`, so does every one and the filter is skipped.
        filter_h = n_prev > 0 and h_vals.min() + dh.min() < need
        delta_cols = [np.ascontiguousarray(deltas[:, w]) for w in range(packer.n_words)]
        running = None  # rolling merge keeps memory at O(distinct states)
        block = max(1, _CHUNK // max(1, n_prev))
        for start in range(0, len(dh), block):
            sub = slice(start, start + block)
            cand_h = (h_vals[None, :] + dh[sub][:, None]).ravel()
            cand = ((c[None, :] + d[sub][:, None]).ravel() for c, d in zip(cols, delta_cols))
            if filter_h:
                # Drop h < need before the sort, one key word at a time: a
                # key's group keeps exactly its rows of max h, which all
                # clear need or none do.
                gidx = np.flatnonzero(cand_h >= need)
                cand, cand_h = [c[gidx] for c in cand], cand_h[gidx]
            else:
                gidx = np.arange(len(cand_h), dtype=np.int64)
                cand = list(cand)
            gidx += start * n_prev
            piece = kept(*_dedupe_block(cand, cand_h, gidx))
            running = piece if running is None else _dedupe_block(
                [np.concatenate(pair) for pair in zip(running[0], piece[0])],
                np.concatenate((running[1], piece[1])),
                np.concatenate((running[2], piece[2])),
            )
            # The running set only grows and ends as this layer's states.
            if total + len(running[1]) > budget_states:
                raise BudgetExceededError("states", budget_states, total + len(running[1]))
        cols, h_vals, gidx = running
        total += len(h_vals)
        result.gidx.append(gidx)
        log.debug("dp task %d: %d states", j, len(h_vals))
    result.keys, result.h, result.states_total = np.stack(cols, axis=1), h_vals, total
    return result


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
# and counts a screen-failer above it by more than the margin as beating the
# incumbent without computing its exact revenue; both are sound while the
# margin exceeds _band_error(m) + m u.  1e-9 is at least twice that up to
# m = 2,100; beyond, the margin grows with the bound.
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


def _ef1_screen(inst: Instance, agents: np.ndarray, alphas: np.ndarray, slack: float) -> np.ndarray:
    """Float EF1 screen of N contracts, given as (N, m) agent and contract
    arrays: False only where EF1 fails by more than `slack`.

    It reads the terms of `core.fairness_report` over the (N, n, m) utility
    tensor: own sums, clamped switch sums and best drops.  The own sum is
    always the clamped one: at tolerance 0 the exact verifier's own sum is
    the clamped sum whether or not IR holds (under IR the clamp changes no
    own task), so no IR branch is needed.  Own sums are the diagonal of the
    switch sums; an empty bundle has switch and drop 0 and so always passes.
    """
    n = inst.n
    pr = np.array([[float(x) for x in row] for row in inst.pr])
    c = np.array([[float(x) for x in row] for row in inst.c])
    gains = np.maximum(alphas[:, None, :] * pr - c, 0.0)  # (N, n, m)
    member = agents[:, None, :] == np.arange(n)[:, None]  # (N, n, m): task in S_j
    switch = np.einsum("bit,bjt->bij", gains, member.astype(np.float64))
    drop = np.where(member[:, None, :, :], gains[:, :, None, :], 0.0).max(axis=3)
    own = np.diagonal(switch, axis1=1, axis2=2)
    return np.all(own[:, :, None] >= switch - drop - slack, axis=(1, 2))


def _scan_candidates(inst, dp: DpResult, best_rev, best, verify, screen: bool):
    """Best-true-revenue verifier-passing candidate, scanned by descending
    float revenue; returns (revenue, contract, verifier calls).

    Once there is an incumbent, exact revenue comparison gates the
    verifier, and the scan stops once float revenue falls the band margin
    below the incumbent.  With `screen`, the float EF1 screen runs first
    over fixed-size blocks of the scan; a screen-failer counts as one
    rejected verifier call whenever verify would have run, and only a
    failer too close to the incumbent for floats to order gets
    reconstructed, for its exact revenue.
    """
    positions, frev = dp.band(best_rev)
    order = np.argsort(-frev, kind="stable")
    margin = _band_margin(inst.m)
    slack = _screen_slack(inst.m)
    checks = 0
    fbest = float(best_rev) if best_rev is not None else -math.inf
    # Float revenue falls along `order` and fbest only rises, so the scan
    # never leaves this prefix.
    scanned = order[: int(np.count_nonzero(frev >= fbest - margin))]
    for start in range(0, len(scanned), _SCAN_BLOCK):
        block = scanned[start : start + _SCAN_BLOCK]
        if screen:
            passed = _ef1_screen(inst, *dp.choices(positions[block]), slack).tolist()
        else:
            passed = [True] * len(block)
        for q, ok in zip(block.tolist(), passed):
            fr = float(frev[q])
            if fr < fbest - margin:
                return best_rev, best, checks
            if not ok and fr > fbest + margin:
                checks += 1  # verify would run, and reject
                continue
            assignment, alphas = dp.reconstruct(int(positions[q]))
            contract = Contract(Allocation(assignment, inst.n), alphas)
            rev = revenue(inst, contract)
            if best_rev is not None and rev <= best_rev:
                continue
            checks += 1
            if ok and verify(contract):
                best_rev, best, fbest = rev, contract, float(rev)
    return best_rev, best, checks


def _best_over_guesses(inst, runs, rev_floor, budget_states, verify, screen):
    """The best verifier-passing candidate over the DP runs of
    (guess, discretization, caps) triples, one run after another.

    Each run drops the states that cannot reach `rev_floor` (a revenue the
    guaranteed candidate provably clears) or beat the incumbent, and gets
    what the earlier runs left of the state budget.  The scan replaces the
    incumbent only on a strictly higher revenue, so two kinds of run could
    change nothing and are not made: every run once the incumbent earns
    `unconstrained_opt`, which no IR contract exceeds, and a run whose best
    principal units (`future_h[0]`, which overestimate any of its revenues)
    times its principal step do not exceed the incumbent's revenue; the
    latter count as pruned.  Returns (contract, revenue, its guess, states,
    verifier calls, runs made, runs pruned).
    """
    ceiling = unconstrained_opt(inst)
    best_rev: Optional[Fraction] = None
    best: Optional[Contract] = None
    best_guess = None
    states = checks = count = pruned = 0
    for guess, disc, caps in runs:
        step = disc.principal_step
        prepared = _dp_setup(inst, disc)
        if best_rev is not None and prepared.future_h[0] * step <= best_rev:
            pruned += 1
            continue
        count += 1
        floor = rev_floor if best_rev is None else max(rev_floor, best_rev)
        h_floor = int(floor / step) if floor > 0 else None
        try:
            dp = dp_enumerate(inst, disc, budget_states - states, caps, h_floor, prepared)
        except BudgetExceededError as exc:
            raise BudgetExceededError("states", budget_states, states + exc.needed) from None
        states += dp.states_total
        new_rev, new_best, run_checks = _scan_candidates(inst, dp, best_rev, best, verify, screen)
        checks += run_checks
        if new_best is not best:
            best_rev, best, best_guess = new_rev, new_best, guess
        if best_rev == ceiling:
            break
    if best is None:
        raise FairconError("no candidate passed verification; this contradicts the guarantee")
    return best, best_rev, best_guess, states, checks, count, pruned


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
    eps = as_fraction(eps)
    if eps <= 0:
        raise InvalidInstanceError("eps must be positive")
    eps_int = eps / 3
    delta = eps_int / inst.m
    K = ceil_div(ONE, delta)
    step = Fraction(1, K)
    # Building the grid alone costs time linear in its K + 1 points, so
    # charge them before it is built.
    if K + 1 > budget_states:
        raise BudgetExceededError("states", budget_states, K + 1)

    # The guaranteed candidate earns at least OPT-EF - 2 eps/3, and the
    # greedy EF contract lower-bounds OPT-EF, giving a sound revenue floor.
    floor = revenue(inst, greedy_ef(inst)) - 2 * eps_int
    best, best_rev, _, states, checked, _, _ = _best_over_guesses(
        inst, [(None, uniform_grid(inst, K), None)], floor, budget_states,
        lambda contract: verify_eps_ef(inst, contract, eps, tol=0), screen=False,
    )
    return SolveResult(
        best,
        best_rev,
        "dp-eps-ef",
        {
            "eps": eps,
            "eps_internal": eps_int,
            "delta": step,
            "grid_points": K + 1,
            "states": states,
            "candidates_checked": checked,
        },
    )


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
    guesses that cannot beat it (meta `guesses` counts the DP runs made,
    `guesses_pruned` the skipped ones).  budget_states bounds the DP states
    of all guesses together.
    """
    eps = as_fraction(eps)
    if eps <= 0:
        raise InvalidInstanceError("eps must be positive")
    n, m = inst.n, inst.m
    # nu = eps/2 (not eps) so the proof's 2*nu revenue loss meets the
    # public -eps contract; the 1/(6m) cap drives the EF1 argument.
    nu = min(eps / 2, Fraction(1, 6 * m))
    delta = nu / m
    K = ceil_div(ONE, delta)
    step = Fraction(1, K)

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

    unit_cap = K + ceil_div(nu, step) + m
    runs = (
        (guess, adaptive_grid(inst, guess, delta), [unit_cap if g > 0 else 0 for g in guess])
        for guess in itertools.product(*per_agent)
    )
    # The correct guess's surviving candidate earns at least OPT-EF - 2 nu,
    # and greedy EF lower-bounds OPT-EF.
    floor = revenue(inst, greedy_ef(inst)) - 2 * nu
    best, best_rev, best_guess, states, checks, guesses, pruned = _best_over_guesses(
        inst, runs, floor, budget_states,
        lambda k: verify_ef1(inst, k, tol=0)[0], screen=True,
    )
    return SolveResult(
        best,
        best_rev,
        "dp-ef1",
        {
            "eps": eps,
            "nu": nu,
            "delta": step,
            "f_bits": instance_bit_length(inst) if f_bits is None else f_bits,
            "guess": best_guess,
            "guesses": guesses,
            "guesses_pruned": pruned,
            "states": states,
            "exact_checks": checks,
        },
    )
