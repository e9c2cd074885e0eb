"""Independent reference implementations used as test oracles.

Everything here is deliberately brute force: dense matrices, the greedy
pair assignment built pair by pair, dictionary dynamic programming over
(permutation, marked set) states, and exhaustive enumeration.  Slow but
transparent, so the fast engines can be checked against them.  The paper's
closed-form quantities that only the tests read live here too: the hand
probability of a card, the coupon-collector variance bound and touch-pick
sampler, the phase-two variance and mean bounds of criteria 7i and 7ii, and
the phase-two type-A marking rate floor.
"""
from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from biased_shuffle.chain_core import STREAM_WALK, check_bias, make_bias_profile, stream_rng
from biased_shuffle.marking import (
    mark_threshold,
    mixed_rule,
    pair_rule,
    phase1_rule,
)
from biased_shuffle.type_chain import check_c1, phase2_time_scale


def probability(rule) -> float:
    """Acceptance probability of a marking rule's (numerator, denominator)."""
    num, den = rule
    return num / den


def hand_probability(profile, card: int) -> float:
    """Probability that one hand picks ``card``: its weight over the deck size."""
    return (profile.a if card < profile.n else profile.b) / profile.deck_size


@dataclass
class PairAssignment:
    """Injective map from unmarked cards to ordered pairs of marked cards."""

    pairs: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def by_pair(self) -> dict[tuple[int, int], int]:
        return {pair: u for u, pair in self.pairs.items()}


def build_assignment(n: int, marked: list[bool]) -> PairAssignment:
    """Greedy pair assignment for the current marked set.

    Unmarked cards are visited in ascending label order; each takes the
    lowest-labelled marked card of its own type as first coordinate and the
    lowest-labelled other marked card making an unused ordered pair as
    second.  Feasible whenever more than half the deck is marked.
    """
    deck = len(marked)
    if deck != 2 * n:
        raise ValueError("marked must have one flag per card")
    marked_all = [c for c in range(deck) if marked[c]]
    out = PairAssignment()
    used: set[tuple[int, int]] = set()
    for u in range(deck):
        if marked[u]:
            continue
        same_type = [c for c in marked_all if (c < n) == (u < n)]
        if not same_type:
            raise ValueError("no marked card shares the unmarked card's type")
        chosen = None
        for r in same_type:
            for l in marked_all:
                if l != r and (r, l) not in used:
                    chosen = (r, l)
                    break
            if chosen:
                break
        if chosen is None:
            raise ValueError("ran out of ordered pairs; marked set too small")
        used.add(chosen)
        out.pairs[u] = chosen
    return out


def dense_transition_matrix(profile):
    """Row-stochastic matrix over all permutations in lexicographic order."""
    deck = profile.deck_size
    perms = list(itertools.permutations(range(deck)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    mat = np.zeros((size, size))
    probs = [hand_probability(profile, c) for c in range(deck)]
    for i, perm in enumerate(perms):
        for r in range(deck):
            for l in range(deck):
                lst = list(perm)
                pr, pl = lst.index(r), lst.index(l)
                lst[pr], lst[pl] = lst[pl], lst[pr]
                mat[i, index[tuple(lst)]] += probs[r] * probs[l]
    return mat, perms


def lex_rank(perm) -> int:
    """Rank of a permutation in lexicographic order, by counting."""
    remaining = sorted(perm)
    rank = 0
    for value in perm:
        pos = remaining.index(value)
        rank += pos * _factorial(len(remaining) - 1)
        remaining.remove(value)
    return rank


def lex_unrank(rank: int, deck: int) -> tuple[int, ...]:
    """Inverse of :func:`lex_rank`: the permutation of 0..deck-1 at ``rank``."""
    if not 0 <= rank < _factorial(deck):
        raise ValueError("rank out of range")
    avail = list(range(deck))
    out = []
    for i in range(deck):
        digit, rank = divmod(rank, _factorial(deck - 1 - i))
        out.append(avail.pop(digit))
    return tuple(out)


def _factorial(m: int) -> int:
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def derangement_count(m: int) -> int:
    """Number of permutations of m items with no fixed point, exactly."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    prev2, prev = 1, 0  # d(0), d(1)
    if m == 0:
        return prev2
    for i in range(2, m + 1):
        prev2, prev = prev, (i - 1) * (prev + prev2)
    return prev


def uniform_fixed_mass_enumerated(n: int, threshold: int) -> float:
    """P(at least threshold of the first n labels fixed), by enumeration."""
    deck = 2 * n
    hits = 0
    total = 0
    for perm in itertools.permutations(range(deck)):
        total += 1
        fixed = sum(1 for i in range(n) if perm[i] == i)
        if fixed >= threshold:
            hits += 1
    return hits / total


def walk_replay(n: int, a: float, t_values, trials: int, seed: int,
                touch_threshold: int | None, block: int):
    """Replay walk trials one run and one hand at a time.

    Runs are cut into blocks of ``block``; block j draws ``2 * size``
    uniforms per step from ``stream_rng(seed, STREAM_WALK, j)``, right then
    left hand for each run in turn.  A hand maps to a card by the inverse
    CDF of the hand law, written out in scalar float arithmetic, and the
    two cards swap positions in a plain list.  Returns A_t at each sorted
    checkpoint per run, and the pick index and step of the touch that
    leaves at most ``touch_threshold`` type-A cards untouched (``None``
    each without touch tracking).
    """
    deck, b = 2 * n, 2.0 - a
    half_a = 0.5 * a

    def card(u: float) -> int:
        if u < half_a:
            return min(int((u - 0.0) * (deck / a)), n - 1)
        return n + min(int((u - half_a) * (deck / b)), n - 1)

    ts = sorted(set(t_values))
    t_max = ts[-1] if ts else 0
    tt = touch_threshold
    counts, picks, steps = [], [], []
    for j, start in enumerate(range(0, trials, block)):
        size = min(block, trials - start)
        rng = stream_rng(seed, STREAM_WALK, j)
        pos = [list(range(deck)) for _ in range(size)]
        untouched = [set(range(n)) for _ in range(size)]
        found = [(0, 0) if tt is not None and tt >= n else None for _ in range(size)]
        rows = [[] for _ in range(size)]
        s = 0
        while True:
            if s in ts:
                for i in range(size):
                    rows[i].append(sum(pos[i][c] == c for c in range(n)))
            if s >= t_max and (tt is None or None not in found):
                break
            s += 1
            u = rng.random(2 * size).tolist()
            for i in range(size):
                right, left = card(u[2 * i]), card(u[2 * i + 1])
                pos[i][right], pos[i][left] = pos[i][left], pos[i][right]
                for ordinal, hand in ((1, right), (2, left)):
                    untouched[i].discard(hand)
                    if tt is not None and found[i] is None and len(untouched[i]) <= tt:
                        found[i] = (2 * (s - 1) + ordinal, s)
        counts += rows
        picks += [f[0] for f in found] if tt is not None else []
        steps += [f[1] for f in found] if tt is not None else []
    if tt is None:
        return counts, None, None
    return counts, picks, steps


def fixed_a_counts(deck: int) -> np.ndarray:
    """Type-A cards at their home slot, for every permutation in rank order.

    Labels below deck/2 are type A; ``itertools.permutations`` lists the
    permutations in lexicographic order, which is rank order.
    """
    half = deck // 2
    return np.array([sum(1 for i in range(half) if perm[i] == i)
                     for perm in itertools.permutations(range(deck))], dtype=np.int64)


def state_mass_at_least(op, dist: np.ndarray, threshold: int) -> float:
    """Mass of states with at least ``threshold`` type-A fixed points."""
    counts = fixed_a_counts(op.profile.deck_size)
    return float(dist[counts >= threshold].sum())


def full_scheme_dp(a: float, c1: float, deck: int = 4, tol: float = 1e-12):
    """Exact law of the deck at full marking, by DP over (perm, marked set).

    Returns dict mapping the final permutation tuple to its probability.
    Uses only the walk law and the marking rules, no phi/psi bookkeeping,
    so it is an independent check of the trajectory engines.
    """
    n = deck // 2
    profile = make_bias_profile(n, a)
    probs = [hand_probability(profile, c) for c in range(deck)]
    w = [profile.a if c < n else profile.b for c in range(deck)]
    threshold = mark_threshold(deck, c1)
    cache: dict[frozenset, dict] = {}

    def pair_map(marked: frozenset) -> dict:
        if marked not in cache:
            flags = [c in marked for c in range(deck)]
            cache[marked] = build_assignment(n, flags).by_pair
        return cache[marked]

    dist = {(tuple(range(deck)), frozenset()): 1.0}
    absorbed: dict[tuple, float] = defaultdict(float)
    while sum(dist.values()) > tol:
        new = defaultdict(float)
        for (perm, marked), mass in dist.items():
            k = len(marked)
            phase2 = k >= threshold
            for r in range(deck):
                for l in range(deck):
                    m = mass * probs[r] * probs[l]
                    lst = list(perm)
                    pr, pl = lst.index(r), lst.index(l)
                    lst[pr], lst[pl] = lst[pl], lst[pr]
                    q = tuple(lst)
                    m_r, m_l = r in marked, l in marked

                    def put(marked2, weight):
                        if weight <= 0.0:
                            return
                        key = frozenset(marked2)
                        if len(key) == deck:
                            absorbed[q] += m * weight
                        else:
                            new[(q, key)] += m * weight

                    if not phase2:
                        if not m_r and not m_l:
                            acc = probability(phase1_rule(a, w[r], w[l]))
                            put(marked | {r}, acc)
                            put(marked, 1.0 - acc)
                        else:
                            put(marked, 1.0)
                    elif r == l:
                        if not m_r:
                            acc = probability(mixed_rule(a, w[r]))
                            put(marked | {r}, acc)
                            put(marked, 1.0 - acc)
                        else:
                            put(marked, 1.0)
                    elif not m_r and m_l:
                        acc = probability(mixed_rule(a, w[l]))
                        put(marked | {r}, acc)
                        put((marked - {l}) | {r}, 1.0 - acc)
                    elif m_r and not m_l:
                        acc = probability(mixed_rule(a, w[r]))
                        put(marked | {l}, acc)
                        put((marked - {r}) | {l}, 1.0 - acc)
                    elif m_r and m_l:
                        u = pair_map(marked).get((r, l))
                        if u is not None:
                            acc = probability(pair_rule(a, w[u], w[r], w[l]))
                            put(marked | {u}, acc)
                            put(marked, 1.0 - acc)
                        else:
                            put(marked, 1.0)
                    else:
                        put(marked, 1.0)
        dist = new
    return dict(absorbed)


def coupon_variance_bound(n: int, a: float) -> float:
    """Upper bound on the variance of the touch-time pick count."""
    check_bias(a)
    return (2 * n / a) ** 2 * (math.pi ** 2 / 6)


def variance_bound(n: int, a: float, c1: float) -> float:
    """Bound (pi^2 / 6) N^2 / (a^4 c1^2) on Var of the phase-two duration."""
    check_bias(a)
    check_c1(c1)
    deck = 2 * n
    return (math.pi ** 2 / 6.0) * deck * deck / (a ** 4 * c1 ** 2)


def phase2_upper_bound(n: int, a: float, c1: float) -> float:
    """Bound (n / (a (2c1 - 1))) (log 2n + log log 2n + 4) on the mean
    phase-two duration."""
    check_c1(c1)
    deck = 2 * n
    if deck < 3:
        raise ValueError("bound needs 2n >= 3 for the log log term")
    return phase2_time_scale(n, a, c1) * (math.log(deck) + math.log(math.log(deck)) + 4.0)


# Stream tag of the touch-pick sampler, kept off the package engines' tags
# (chain_core.STREAM_WALK, STREAM_MARKING and STREAM_TYPECHAIN are 1 to 3).
STREAM_TOUCH = 4


def sample_touch_picks(n: int, a: float, threshold: int, trials: int,
                       seed: int) -> np.ndarray:
    """Sample the pick index at which untouched type-A cards first reach threshold.

    Uses the exact law directly: the wait between untouched counts j and
    j - 1 is geometric with success probability j a / (2n), independently.
    """
    if not 0 <= threshold <= n:
        raise ValueError("threshold must lie in [0, n]")
    check_bias(a)
    rng = stream_rng(seed, STREAM_TOUCH)
    stages = np.arange(threshold + 1, n + 1, dtype=np.float64)
    if stages.size == 0:
        return np.zeros(trials, dtype=np.int64)
    p = stages * a / (2 * n)
    waits = rng.geometric(p[None, :], size=(trials, stages.size))
    return waits.sum(axis=1, dtype=np.int64)


def rate_mark_a_floor(n: int, a: float, c1: float, ka: int) -> float:
    """Lower bound a (n - ka) (2 c1 - 1) / n, valid once ka + kb >= 2 n c1."""
    check_bias(a)
    check_c1(c1)
    return a * (n - ka) * (2.0 * c1 - 1.0) / n
