"""Lower-bound machinery built on the count of type-A cards in place.

The observable is A_t, the number of type-A cards sitting in their starting
positions after t steps.  Under the uniform law its distribution has an
exact inclusion-exclusion form; along the walk it stays large until most
type-A cards have been touched, which is a coupon-collector event.  The gap
between the walk's mass at a threshold and the uniform mass is a valid
lower bound on total-variation distance at that step.

Touch counting works in hand picks: each step draws two hands, so the step
at which the untouched pool first drops to K is the ceiling of half the
pick index of the decisive touch.

All Monte Carlo here draws from streams derived with :func:`stream_rng`;
walk trials are processed in blocks of ``DEFAULT_BLOCK_SIZE``, one stream
per block, so results are a deterministic function of (seed, trials) and
estimates at different checkpoint times reuse the same walks.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .chain_core import (
    BiasProfile,
    STREAM_WALK,
    HandStream,
    check_bias,
    stream_rng,
)

DEFAULT_BLOCK_SIZE = 4096


def uniform_fixed_pmf(n: int) -> np.ndarray:
    """P(exactly m type-A cards fixed) under uniform, for m = 0..n.

    Inclusion-exclusion over which of the first n labels are fixed inside a
    uniform permutation of 2n labels.  Computed with term-ratio recurrences
    so nothing overflows for large n; tiny masses underflow to zero.
    """
    if n < 1:
        raise ValueError("n must be positive")
    deck = 2 * n
    pmf = np.zeros(n + 1)
    lead = 1.0  # C(n, m) / falling(deck, m)
    for m in range(n + 1):
        term = 1.0
        total = 1.0
        for i in range(n - m):
            term *= -(n - m - i) / ((i + 1) * (deck - m - i))
            total += term
            if abs(term) < 1e-18 * abs(total):
                break
        pmf[m] = lead * total
        lead *= (n - m) / ((m + 1) * (deck - m))
        if lead == 0.0:
            break  # every later mass is 0.0 too
    np.clip(pmf, 0.0, 1.0, out=pmf)
    return pmf


def uniform_fixed_mass(n: int, threshold: int) -> float:
    """P(at least ``threshold`` type-A cards fixed) under uniform."""
    if threshold <= 0:
        return 1.0
    if threshold > n:
        return 0.0
    return float(min(1.0, uniform_fixed_pmf(n)[threshold:].sum()))


def coupon_expectation(n: int, threshold: int, a: float) -> float:
    """Expected hand picks until at most ``threshold`` type-A cards are untouched."""
    if not 0 <= threshold <= n:
        raise ValueError("threshold must lie in [0, n]")
    check_bias(a)
    harm = sum(1.0 / j for j in range(threshold + 1, n + 1))
    return (2 * n / a) * harm


class WalkSimResult(NamedTuple):
    t_values: tuple[int, ...]
    counts: np.ndarray                 # (trials, len(t_values)) A_t samples
    touch_steps: np.ndarray | None     # (trials,) first step with untouched <= K
    touch_picks: np.ndarray | None     # (trials,) pick index of the decisive touch


def simulate_walks(profile: BiasProfile, t_values, trials: int, seed: int,
                   *, touch_threshold: int | None = None) -> WalkSimResult:
    """Run walk trials, reading A_t at each checkpoint and touch times.

    Checkpoints share trajectories, so estimates across t_values are coupled
    through common random numbers.  A step only swaps the two hands'
    positions; A_t is counted from the positions at each checkpoint, and
    positions stay frozen after the last one while touch tracking, which
    reads only the hands, follows the runs whose pick is still open.
    """
    n = profile.n
    deck = profile.deck_size
    ts = tuple(sorted({int(t) for t in t_values}))
    if any(t < 0 for t in ts):
        raise ValueError("checkpoint times must be nonnegative")
    if trials < 1:
        raise ValueError("trials must be positive")
    tt = touch_threshold
    if tt is not None and not 0 <= tt <= n:
        raise ValueError("touch_threshold must lie in [0, n]")
    t_max = ts[-1] if ts else 0
    col_of = {t: i for i, t in enumerate(ts)}
    counts = np.empty((trials, len(ts)), dtype=np.int16)
    touch_picks = np.full(trials, -1, dtype=np.int64) if tt is not None else None
    if tt is not None:
        slack = coupon_expectation(n, tt, profile.a)
        step_cap = max(t_max, math.ceil(10 * slack) + 100)
    else:
        step_cap = t_max

    labels = np.arange(deck, dtype=np.int16)
    for start in range(0, trials, DEFAULT_BLOCK_SIZE):
        stop = min(start + DEFAULT_BLOCK_SIZE, trials)
        bsz = stop - start
        stream = HandStream(profile, stream_rng(seed, STREAM_WALK, start // DEFAULT_BLOCK_SIZE))
        pos = np.tile(labels, (bsz, 1))
        flat_pos = pos.reshape(-1)
        # hands arrive interleaved, right then left for each run; entry i
        # belongs to run i // 2 and its partner hand is entry i ^ 1
        row_base = np.repeat(np.arange(bsz) * deck, 2)
        partner = np.arange(2 * bsz) ^ 1
        open_rows = np.empty(0, dtype=np.intp)
        if tt is not None:
            # column n stands for every type-B card and is never untouched
            untouched = np.ones((bsz, n + 1), dtype=bool)
            untouched[:, n] = False
            flat_untouched = untouched.reshape(-1)
            ucnt = np.full(bsz, n, dtype=np.int32)
            b_picks = touch_picks[start:stop]  # a view: hits land in the result
            # a run that starts with at most K untouched is decided at pick 0
            b_picks[ucnt <= tt] = 0
            open_rows = np.flatnonzero(b_picks < 0)
        s = 0
        while True:
            if s in col_of:
                counts[start:stop, col_of[s]] = np.count_nonzero(pos[:, :n] == labels[:n], axis=1)
            if s >= t_max and not open_rows.size:
                break
            if s >= step_cap:
                raise RuntimeError(f"touch tracking still open after {s} steps")
            s += 1
            hands = stream.take(2 * bsz, 2 * bsz)[1]
            if s <= t_max:
                offsets = row_base + hands
                flat_pos[offsets] = flat_pos[offsets][partner]
            if not open_rows.size:
                continue
            # the right hand (ordinal 1) touches before the left (ordinal 2)
            for ordinal in (1, 2):
                hand = hands[2 * open_rows + ordinal - 1]
                cells = open_rows * (n + 1) + np.minimum(hand, n)
                fresh = flat_untouched[cells]
                idx = open_rows[fresh]
                if not idx.size:
                    continue
                flat_untouched[cells[fresh]] = False
                ucnt[idx] -= 1
                # a left-hand touch never overwrites a right-hand hit
                hit = idx[(ucnt[idx] <= tt) & (b_picks[idx] < 0)]
                if hit.size:
                    b_picks[hit] = 2 * (s - 1) + ordinal
                    open_rows = open_rows[b_picks[open_rows] < 0]
    touch_steps = None if touch_picks is None else (touch_picks + 1) // 2
    return WalkSimResult(ts, counts, touch_steps, touch_picks)


class LowerBoundRow(NamedTuple):
    t: int
    threshold: int
    estimate: float
    stderr: float
    uniform_mass: float
    bound: float


def lower_bound_sweep(profile: BiasProfile, t_values, threshold: int,
                      trials: int, seed: int) -> list[LowerBoundRow]:
    """TV lower bounds |P(A_t >= K) - uniform mass| over coupled checkpoints.

    K = ``threshold`` must lie in 1..n: below, the event holds on every deck,
    above, on none, and either way the bound is 0.
    """
    if not 1 <= threshold <= profile.n:
        raise ValueError(f"threshold must lie in 1..{profile.n}, the number of "
                         f"type-A cards")
    result = simulate_walks(profile, t_values, trials, seed)
    um = uniform_fixed_mass(profile.n, threshold)
    rows = []
    for i, t in enumerate(result.t_values):
        p = float((result.counts[:, i] >= threshold).mean())
        se = math.sqrt(max(p * (1 - p), 0.0) / trials)
        rows.append(LowerBoundRow(t, threshold, p, se, um, abs(p - um)))
    return rows


def suggested_threshold(n: int) -> int:
    """Default mass threshold: square root of the deck size, rounded up, at most n."""
    return min(n, math.ceil(math.sqrt(2 * n)))
