"""Two-phase card marking scheme driven by the biased transposition walk.

The scheme watches the walk and marks cards so that, at the step when every
card is marked, the deck is meant to be uniform.  At a = 1 that is verified
exactly only at deck 4; at a = 1, c1 = 0.6 the deck law at that step is up to
2.9 % of a cell off uniform at deck 6 and 5.5 % at deck 8.  Phase one (fewer
than ceil(c1 N) marks) marks the right-hand card of a both-unmarked draw with
probability a^2 / (w(R) w(L)).  Phase two marks through four triggers:

  1. both hands on the same unmarked u: mark u with probability a / w(u);
  2. right hand on unmarked u, left on a marked card: mark u with
     probability a / w(L), otherwise move the mark from L to u;
  3. the mirror image of 2;
  4. hands on the ordered pair assigned to an unmarked u: mark u with
     probability a w(u) / (w(R) w(L)).

Every unmarked card carries an assigned ordered pair of distinct marked
cards: the j-th unmarked card of type X (ascending labels, from 0) gets the
lowest marked card of type X and the j-th other marked card.  The engine
looks a draw up through the inverse of that rule, :func:`assigned_card`, so
no assignment is stored or rebuilt.  Each acceptance probability is stated
once as a (numerator, denominator) rule of hand weights; triggers 1 to 3
share :func:`mixed_rule`.  Which rule a draw meets, and whether a rejection
moves a mark, is stated once too, by :func:`_step_rules` over a batch of rows.

The package has one engine, :func:`bulk_marking_runs`, which runs many
trajectories as numpy rows in two passes: phase one for every run, then phase
two for every run from its state at entry, so no step mixes the phases.  The
deck alone picks the form of its step, and both forms keep one run state:
card positions, a marked set and the marked count.  Up to STEP_TABLE_MAX_DECK
cards the marked set is one integer and each step is read from
:func:`step_table`, which runs :func:`_step_rules` once per phase over every
(marked set, R, L).  Above that the marked set is one bool per card and each
step runs :func:`_step_rules` on the batch and applies its coins.  Both forms
draw from one stream derived from (seed, tag), so the output is the same
deterministic function of (seed, trials) in either form.  The tests check it
against a scalar per-trajectory engine and an exact dynamic program over
(deck, marked set), both built on the same acceptance rules.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import type_chain
from .chain_core import (BiasProfile, CapacityError, RUN_BYTE_BUDGET, STREAM_MARKING,
                         HandStream, stream_rng)


def mark_threshold(deck: int, c1: float) -> int:
    """First marked count that belongs to phase two: ceil(c1 * deck)."""
    type_chain.check_c1(c1)
    return math.ceil(c1 * deck - 1e-9)


def phase1_rule(a, w_r, w_l):
    """Phase one, both hands unmarked: mark R with probability a^2 / (w_R w_L)."""
    return a * a, w_r * w_l


def mixed_rule(a, w_other):
    """One unmarked hand: mark it with probability a / w(other hand), which is
    a / w(u) on a solo draw, where both hands hold the same unmarked u."""
    return a, w_other


def pair_rule(a, w_u, w_r, w_l):
    """Hands on the pair assigned to u: mark u with probability a w_u / (w_R w_L)."""
    return a * w_u, w_r * w_l


# Each rule returns (numerator, denominator) and takes floats or arrays; the
# batched engine compares u * den < num, and the test oracles accept with
# probability num / den.


def phase1_marking_rate(profile: BiasProfile, k: int) -> float:
    """Per-step marking probability in phase one with k cards marked."""
    deck = profile.deck_size
    if not 0 <= k <= deck:
        raise ValueError("k out of range")
    return (profile.a * (deck - k) / deck) ** 2


def assigned_card(marked, n: int, right, left):
    """Unmarked card assigned to the ordered pair (right, left), or -1.

    ``right`` and ``left`` are distinct marked cards and more than half the
    deck is marked.  The j-th unmarked card of type X gets the pair (lowest
    marked X, j-th marked card other than that one), so the pair hits a card
    exactly when ``right`` is the lowest marked card of its type and
    ``left``'s rank j among the other marked cards is below the number of
    unmarked cards of that type; the card is then the j-th of them.  With k
    cards marked, at most deck - k labels below ``left`` are unmarked, so
    j >= left - (deck - k) - 1 and no ``left`` above 2 (deck - k) hits.
    Takes one run (``marked`` of shape (deck,), scalar hands) or a batch
    (shape (rows, deck), hand arrays of shape (rows,)).
    """
    marked = np.asarray(marked, dtype=bool)
    right = np.asarray(right)
    left = np.asarray(left)
    labels = np.arange(2 * n)
    own = (labels >= n) == (right >= n)[..., None]
    low = np.argmax(marked & own, axis=-1)
    j = np.count_nonzero(marked & (labels < left[..., None]), axis=-1) - (right < left)
    free = own & ~marked
    hit = (low == right) & (j < np.count_nonzero(free, axis=-1))
    u = np.argmax(np.cumsum(free, axis=-1) > j[..., None], axis=-1)
    return np.where(hit, u, -1)


def default_step_cap(deck: int) -> int:
    return math.ceil(1e4 * deck * max(math.log(deck), 1.0))


def _step_rules(profile: BiasProfile, marked, k, right, left, m_r, m_l, w_r, w_l, phase2):
    """The rules that a batch of rows meets on its draw: (ok, move, num, den, gain).

    A row accepts when its coin has ``u * den < num``.  An accepting ``ok`` or
    ``move`` row marks ``gain``, and a ``move`` row that rejects moves its
    other hand's mark onto ``gain`` instead; no row is both, and ``num`` and
    ``den`` hold rule values only on rows that are either.  Each row gives
    its marked set (``marked``, shape (rows, deck)), marked count ``k``, hands,
    their marks and weights; every row is in the phase that the bool
    ``phase2`` names.  No input is written to.

    A pair draw (R, L) can hit an assigned card only when L is marked and at
    most 2 (deck - k), the rank bound of :func:`assigned_card`, and R is
    marked, other than L and the lowest mark of its type, so that every label
    of its type below it is unmarked and its index within the type is at most
    deck - k.  The rows are narrowed by those tests, cheapest first, and only
    the few left are looked up.
    """
    a, n = profile.a, profile.n
    if not phase2:
        # phase one marks R when both hands are unmarked
        return ~(m_r | m_l), False, *phase1_rule(a, w_r, w_l), right
    # one unmarked hand, R = L on a solo draw where w_r = w_l: mark it, or on
    # a rejected mixed draw move the other hand's mark onto it
    move = m_r != m_l
    ok = (right == left) & ~m_r
    num, den = mixed_rule(a, np.where(m_r, w_r, w_l))
    gain = np.where(m_r, left, right)
    # distinct marked hands: mark their assigned card, if any
    room = 2 * n - k
    cand = (m_l & (left - room <= room)).nonzero()[0]
    if cand.size:
        r = right[cand]
        hit = m_r[cand] & (r != left[cand]) & (r % n <= room[cand])
        cand, r = cand[hit], r[hit]
    if cand.size:
        # every candidate's R is marked, so R is the lowest mark of its type
        # exactly when its block's first mark is R
        blocks = marked[cand].reshape(-1, 2, n)[np.arange(cand.size), r // n]
        cand = cand[blocks.argmax(axis=1) == r % n]
    if cand.size:
        u = assigned_card(marked[cand], n, right[cand], left[cand])
        hit = u >= 0
        cand, u = cand[hit], u[hit]
        num = np.full(ok.shape, num)
        num[cand], den[cand] = pair_rule(a, profile.weights()[u], w_r[cand], w_l[cand])
        ok[cand] = True
        gain[cand] = u
    return ok, move, num, den, gain


# Largest deck whose marking step reads :func:`step_table`: 2**8 marked sets
# times 8**2 hand pairs make 16,384 rows.
STEP_TABLE_MAX_DECK = 8


def step_table(profile: BiasProfile, threshold: int) -> tuple[np.ndarray, ...]:
    """The marking step over every (marked set, R, L): (num, den, moves, k, ka).

    Row key = mask * N**2 + R * N + L (N = deck; bit c of mask set when card
    c is marked) accepts its draw when ``u * den < num``, by
    :func:`_step_rules` run once over each phase's rows; ``moves[key,
    accepted]`` is the next state, mask * N**2 of the next marked set; ``k``
    and ``ka`` count the mask's marked and marked type-A cards.  Rows that
    meet no rule have ``num`` 0 and ``den`` 1, so an acceptance always adds
    a mark.  Built on first use and cached for the last few tables; the cap
    is checked on every call, before the cache is read.
    """
    if profile.deck_size > STEP_TABLE_MAX_DECK:
        raise ValueError(f"deck {profile.deck_size} is over the step table cap of "
                         f"{STEP_TABLE_MAX_DECK}")
    return _build_step_table(profile, threshold)


@functools.lru_cache(maxsize=8)
def _build_step_table(profile: BiasProfile, threshold: int) -> tuple[np.ndarray, ...]:
    n, deck = profile.n, profile.deck_size
    wt = profile.weights()
    mask, right, left = (x.reshape(-1) for x in np.meshgrid(
        np.arange(1 << deck), np.arange(deck), np.arange(deck), indexing="ij"))
    marked = (mask[:, None] >> np.arange(deck)) & 1 == 1
    k = np.count_nonzero(marked, axis=1)
    m_r, m_l = (mask >> right) & 1 == 1, (mask >> left) & 1 == 1
    ok, move = np.zeros((2, mask.size), dtype=bool)
    num, den, gain = np.zeros(mask.size), np.zeros(mask.size), np.empty_like(right)
    for phase2 in (False, True):
        r = np.flatnonzero((k >= threshold) == phase2)
        ok[r], move[r], num[r], den[r], gain[r] = _step_rules(
            profile, marked[r], k[r], right[r], left[r], m_r[r], m_l[r],
            wt[right[r]], wt[left[r]], phase2)
    ok |= move
    acc = np.where(ok, mask | 1 << gain, mask)
    rej = np.where(move, mask ^ (1 << right | 1 << left), mask)
    table = (np.where(ok, num, 0.0), np.where(ok, den, 1.0),
             np.stack((rej, acc), axis=1) * deck**2, k,
             np.count_nonzero(marked[:, :n], axis=1))
    for part in table:
        part.flags.writeable = False
    return table


# --------------------------------------------------------------------------
# Batched engine
# --------------------------------------------------------------------------

@dataclass
class BulkMarkingResult:
    decks: np.ndarray          # (trials, N) final card_at rows
    t_phase1: np.ndarray       # (trials,)
    t_full: np.ndarray         # (trials,)
    mark_times: np.ndarray | None = None       # (trials, N + 1)


def bulk_marking_runs(profile: BiasProfile, c1: float, trials: int, seed: int,
                      *, always_mark: bool = False,
                      record_mark_times: bool = False,
                      census=None) -> BulkMarkingResult:
    """Run many marking trajectories in one vectorised sweep.

    The runs share one stream over two passes, so that no step holds runs
    of both phases.  Pass one runs every run under the phase-one rule until
    it has ceil(c1 N) marks, then copies its state out and parks its row
    fully marked, where no rule applies.  Pass two starts every run from
    that copy, on the clock t = t_phase1 + s at its step s, and runs the
    phase-two rules to full marking, unless ceil(c1 N) = N and pass one
    finished the runs.  The step cap bounds each run's t.

    Both step forms keep one run state: ``pos_of`` (each card's position),
    the marked set ``marks`` and the marked count ``k``, bumped on each
    acceptance, which adds exactly one mark; passes, parking, compaction and
    the step cap read only ``k``.  Up to STEP_TABLE_MAX_DECK cards ``marks``
    is mask * deck**2 and a step reads :func:`step_table` at key = marks +
    R * deck + L, then takes the next marked set by the coin ``u * den <
    num``.  Above that ``marks`` holds one bool per card and a step runs
    :func:`_step_rules` on the batch.  A step's hands are one flat array,
    right hands then left, and their offsets into the flat ``pos_of`` and
    marked set are the hands plus the rows' offsets written twice: one
    gather and two half-scatters swap positions, and marks and weights are
    read through them.  One scatter marks the card each run gains, by a new
    mark or a moved one: in pass one always R, through its right-hand
    offset.  In pass two the gaining rows split once, by their coins, into
    moves, which unmark their source, and new marks; a step where no run
    gains a mark leaves ``k`` alone.  A run's deck is
    written once, as the inverse of its ``pos_of`` row, when it finishes.
    The batch size, doubled row offsets and flat views change only at
    compaction, so the loop keeps them in between.  Calls past
    RUN_BYTE_BUDGET raise CapacityError before allocating.

    A ``census`` sees only the chain's state: after each step's marks and
    moves the engine calls ``census.record(threshold, k0, ka0, k1, ka1)``
    with the marked count and marked type-A count of every uncompacted row
    (finished ones included) before and after the step.
    """
    n = profile.n
    deck = profile.deck_size
    threshold = mark_threshold(deck, c1)
    cap = default_step_cap(deck)
    if trials < 1:
        raise ValueError("trials must be positive")

    tabled = deck <= STEP_TABLE_MAX_DECK
    if tabled:
        num, den, moves, _, ka_of = step_table(profile, threshold)
        moves = moves.reshape(-1)  # moves[2 * key + accepted]
        no_marks, full = np.zeros((), dtype=np.int64), ((1 << deck) - 1) * deck**2
    else:
        no_marks, full = np.zeros(deck, dtype=bool), True
    # per run: positions and marked set at pass start and now, the output deck,
    # 8 int64s (row offset x3, orig, k, 2 out times, a coin), mark times, a take
    need = trials * (3 * 2 * deck + 2 * no_marks.nbytes + 8 * 8 + 6 * 8
                     + record_mark_times * 8 * (deck + 1))
    if need > RUN_BYTE_BUDGET:
        raise CapacityError(f"{trials} marking runs at deck {deck} need {need / 2**30:.3g} "
                            f"GiB, over the budget of {RUN_BYTE_BUDGET / 2**30:g} GiB")

    stream = HandStream(profile, stream_rng(seed, STREAM_MARKING))
    labels = np.arange(deck, dtype=np.int16)
    # every run's state as its pass starts, written by pass one at entry
    start_pos = np.tile(labels, (trials, 1))
    start_marks = np.zeros((trials, *no_marks.shape), dtype=no_marks.dtype)
    # pos_of and marks stay C-contiguous through compaction: card c of run i
    # sits at flat offset i * deck + c of both; rows are gathered by take,
    # many times faster than fancy indexing on short rows
    row_base = np.arange(trials, dtype=np.int64) * deck
    no_coins = np.zeros(trials)  # always_mark's coins: every num > 0, so 0 * den < num

    out_decks = np.empty((trials, deck), dtype=np.int16)
    out_tp1 = np.zeros(trials, dtype=np.int64)
    out_tfull = np.zeros(trials, dtype=np.int64)
    out_times = np.zeros((trials, deck + 1), dtype=np.int64) if record_mark_times else None

    wt = profile.weights()

    for phase2 in (False, True):
        goal = deck if phase2 else threshold
        orig = np.arange(0 if phase2 and threshold == deck else trials)
        pos_of, marks = start_pos.take(orig, axis=0), start_marks.take(orig, axis=0)
        k = np.full(orig.size, threshold if phase2 else 0, dtype=np.int64)
        batch, base2 = orig.size, np.tile(row_base[:orig.size], 2)
        flat_pos, flat_marks = pos_of.reshape(-1), marks.reshape(-1)
        # t_phase1 reads 0 until pass one sets it, so a run's t is t_phase1 + s
        # in either pass; up to step limit no unfinished run's t passes the cap
        s = done = limit = 0
        while batch:
            s += 1
            if s > limit and s > (limit := cap - out_tp1[orig[k < deck]].max()):
                raise RuntimeError(f"batched marking exceeded {cap} steps; "
                                   f"{batch} runs unfinished")
            coins, hands = stream.take(3 * batch, 2 * batch)
            right, left = hands[:batch], hands[batch:]
            u_acc = no_coins[:batch] if always_mark else coins

            offsets = hands + base2
            held = flat_pos[offsets]
            flat_pos[offsets[:batch]] = held[batch:]
            flat_pos[offsets[batch:]] = held[:batch]
            if census is not None:
                k0, marks0 = k.copy(), marks.copy()

            if tabled:
                key = right * deck
                key += left
                key += marks
                ok = u_acc * den[key] < num[key]
                key *= 2
                key += ok
                marks = moves[key]
                idx = ok.nonzero()[0]
            else:
                held_marks, weights = flat_marks[offsets], wt[hands]
                m_l = held_marks[batch:]
                ok, move, num, den, gain = _step_rules(
                    profile, marks, k, right, left, held_marks[:batch], m_l,
                    weights[:batch], weights[batch:], phase2)
                # gets marks the runs that gain a card this step, by a new or moved mark
                acc = u_acc * den < num
                gets = acc & ok
                if phase2:
                    gets |= move
                # one update serves marks and moves: the gained card is marked
                idx = gets.nonzero()[0]
                if idx.size and not phase2:
                    # phase one gains R, whose flat offset the right half holds
                    flat_marks[offsets[idx]] = True
                elif idx.size:
                    flat_marks[base2[idx] + gain[idx]] = True
                    # a gaining row that rejected is a move, which unmarks
                    # its other hand, the marked one
                    kept = acc[idx]
                    vidx = idx[~kept]
                    if vidx.size:
                        flat_marks[offsets[vidx + batch * m_l[vidx]]] = False
                    idx = idx[kept]
            if idx.size:
                k_now = k[idx] + 1
                k[idx] = k_now

            if census is not None:
                both = np.stack((marks0, marks))
                ka0, ka1 = ka_of[both] if tabled else np.count_nonzero(both[..., :n], axis=-1)
                census.record(threshold, k0, ka0, k, ka1)

            if idx.size:
                if out_times is not None:
                    runs = orig[idx]
                    out_times[runs, k_now] = out_tp1[runs] + s
                fin = idx[k_now == goal]
                if fin.size:
                    runs = orig[fin]
                    fin_pos = pos_of.take(fin, axis=0)
                    if goal == deck:
                        out_tfull[runs] = out_tp1[runs] + s
                        out_decks[runs[:, None], fin_pos] = labels
                    if not phase2:
                        # pass two starts from a copy; the row, fully marked, marks no more
                        out_tp1[runs], start_pos[runs] = s, fin_pos
                        start_marks[runs], marks[fin], k[fin] = marks.take(fin, axis=0), full, deck
                    done += fin.size

            # done changes only on steps where a run finished
            if done * 8 >= batch:
                keep = (k < deck).nonzero()[0]
                pos_of, marks = pos_of.take(keep, axis=0), marks.take(keep, axis=0)
                k, orig, done = k[keep], orig[keep], 0
                batch, flat_pos, flat_marks = keep.size, pos_of.reshape(-1), marks.reshape(-1)
                base2 = np.tile(row_base[:batch], 2)

    return BulkMarkingResult(
        decks=out_decks, t_phase1=out_tp1, t_full=out_tfull, mark_times=out_times)


# --------------------------------------------------------------------------
# Uniformity testing and exact expectations
# --------------------------------------------------------------------------

def uniformity_test(profile: BiasProfile, c1: float, trials: int, seed: int,
                    *, always_mark: bool = False) -> dict:
    """Chi-square test that the deck at full marking is uniform over N!.

    Decks past MAX_EXACT_DECK are refused before N! is formed: their cells
    could never be filled, and past deck 20 the int64 ranks overflow.
    """
    from .exact_analysis import check_capacity, encode_many  # loaded only by uniformity runs
    deck = profile.deck_size
    check_capacity(deck)
    cells = math.factorial(deck)
    if trials < 100 * cells:
        raise ValueError(f"need at least {100 * cells} trials for {cells} cells")
    result = bulk_marking_runs(profile, c1, trials, seed,
                               always_mark=always_mark)
    counts = np.bincount(encode_many(result.decks), minlength=cells)
    statistic, p_value = _chisquare(counts)
    return {
        "deck": deck,
        "a": profile.a,
        "c1": c1,
        "trials": trials,
        "always_mark": always_mark,
        "cells": int(cells),
        "statistic": statistic,
        "dof": int(cells - 1),
        "p_value": p_value,
        "mean_t_phase1": float(result.t_phase1.mean()),
        "mean_t_full": float(result.t_full.mean()),
    }


def _chisquare(counts: np.ndarray) -> tuple[float, float]:
    """Pearson chi-square of ``counts`` against equal cells: (statistic, p-value).

    Repeats the float operations of ``scipy.stats.chisquare`` without
    importing ``scipy.stats``, an import every CLI process would pay.
    """
    from scipy.special import chdtrc
    observed = counts.astype(np.float64)
    expected = observed.mean()
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return statistic, float(chdtrc(observed.size - 1, statistic))


def expected_phase1_time(profile: BiasProfile, c1: float) -> float:
    """Exact expected step count to finish phase one."""
    threshold = mark_threshold(profile.deck_size, c1)
    return sum(1.0 / phase1_marking_rate(profile, k) for k in range(threshold))


def expected_full_marking_time(profile: BiasProfile, c1: float) -> float:
    """Exact expected step count to full marking.

    Phase one is a sum of geometric means; its marked set is a uniform
    subset, so the phase-two start splits hypergeometrically over
    (ka, kb) and finishes at the type-count chain's absorption expectation.
    """
    n = profile.n
    deck = profile.deck_size
    m = mark_threshold(deck, c1)
    total = expected_phase1_time(profile, c1)
    absorb = type_chain.expected_absorption(n, profile.a)
    denom = math.comb(deck, m)
    for ka in range(max(0, m - n), min(n, m) + 1):
        weight = math.comb(n, ka) * math.comb(n, m - ka) / denom
        total += weight * absorb[ka, m - ka]
    return total


def gap_correlation_report(profile: BiasProfile, c1: float, trials: int,
                           seed: int) -> dict:
    """Empirical pairwise correlations of phase-two marking gaps.

    Reported only; no sign claim is asserted anywhere.  Needs at least two
    gaps, deck - ceil(c1 * deck) >= 2, so that some pair is correlated, and
    at least two trials in which every gap varies, so that each correlation
    is defined.
    """
    deck = profile.deck_size
    threshold = mark_threshold(deck, c1)
    if deck - threshold < 2:
        raise ValueError(f"gap correlations need at least two phase-two gaps, "
                         f"but deck - ceil(c1 * deck) = {deck - threshold}")
    if trials < 2:
        raise ValueError("gap correlations need at least two trials")
    result = bulk_marking_runs(profile, c1, trials, seed, record_mark_times=True)
    gaps = np.diff(result.mark_times[:, threshold:], axis=1).astype(float)
    constant = np.flatnonzero((gaps == gaps[0]).all(axis=0))
    if constant.size:
        raise ValueError(f"phase-two gap {int(constant[0]) + 1} takes one value in all "
                         f"{trials} trials, so its correlations are undefined")
    corr = np.corrcoef(gaps, rowvar=False)
    off = corr[np.triu_indices_from(corr, k=1)]
    return {
        "deck": deck,
        "a": profile.a,
        "c1": c1,
        "trials": trials,
        "gap_count": gaps.shape[1],
        "mean_correlation": float(off.mean()),
        "min_correlation": float(off.min()),
        "max_correlation": float(off.max()),
        "fraction_negative": float((off < 0).mean()),
    }
