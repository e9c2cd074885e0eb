"""Exact distribution analysis of the walk for small decks.

The deck is a permutation sigma = pos_of, card -> position, and a step on
cards (x, y) moves to sigma o (x y).  Its weight 2 p_x p_y depends only on
the two cards' types, so conjugating by a relabelling that keeps types
commutes with the walk, and the law from the identity is constant on the
orbits of that conjugation.  An orbit is the multiset of the cycles of
sigma, each written as the cyclic word of its cards' types (``a`` for type
A, ``b`` for type B).  The walk is lumpable on orbits (Kemeny and Snell;
compare random transpositions on cycle types, Diaconis and Shahshahani
1981): a move on two cards of one cycle splits its word in two, a move on
cards of two cycles merges their words, and the orbit's transition masses
do not depend on which member of the orbit the walk is at.

States are the orbits reachable from the identity, which are all of them,
in the order :func:`list_orbits` finds them; state 0 is the identity.  The
one-step operator is a flat list of (source, destination, mass) entries.
Total variation and separation distance read orbit masses against the
orbit sizes, the number of permutations in each orbit.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .chain_core import BiasProfile, CapacityError, theory_time

# Largest deck build_operator lists: the orbit count grows with the deck,
# 136,936 orbits at deck 18 and 530,404 at deck 20.
MAX_EXACT_DECK = 18

# distance_scan stops at this multiple of theory_time.  Over decks 2-12 and
# a in {0.05, 0.25, 0.5, 1}, TV and separation fall below 1e-12 by 21 t* and
# reach their float floor by 28 t*, so a scan past the cap finds no crossing.
SCAN_CAP_MULTIPLE = 100


def encode_many(perms: np.ndarray) -> np.ndarray:
    """Vectorised Lehmer rank of each row of an (M, N) permutation array."""
    deck = perms.shape[1]
    rank = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(deck - 1):
        smaller = (perms[:, i + 1:] < perms[:, i:i + 1]).sum(axis=1)
        rank += smaller.astype(np.int64) * math.factorial(deck - 1 - i)
    return rank


def check_capacity(deck: int) -> None:
    """Raise CapacityError if the deck is larger than MAX_EXACT_DECK."""
    if deck > MAX_EXACT_DECK:
        raise CapacityError(
            f"a deck of {deck} cards is over the exact budget of "
            f"{MAX_EXACT_DECK} cards")


def _canon(word: str) -> str:
    """The least rotation of a cyclic word."""
    twice = word + word
    return min(twice[i:i + len(word)] for i in range(len(word)))


def _period(word: str) -> int:
    """Smallest shift that maps a cyclic word onto itself."""
    return next(s for s in range(1, len(word) + 1)
                if len(word) % s == 0 and word[s:] + word[:s] == word)


def _splits(word: str) -> dict:
    """Moves on two cards of one cycle: (word1, word2) -> pair counts by class.

    Cards s < t of the cycle leave the arcs s+1..t and t+1..s.  A pair's
    class is how many of its two cards are type B: 0, 1 or 2.
    """
    out = {}
    for s, t in itertools.combinations(range(len(word)), 2):
        parts = sorted((_canon(word[s + 1:t + 1]), _canon(word[t + 1:] + word[:s + 1])))
        counts = out.setdefault(tuple(parts), [0, 0, 0])
        counts[(word[s] == "b") + (word[t] == "b")] += 1
    return out


def _merges(first: str, second: str) -> dict:
    """Moves on one card of each of two cycles: (merged word,) -> pair counts by class.

    Cards s and u leave one cycle: first from s+1 round to s, then second
    from u+1 round to u.
    """
    out = {}
    for s, u in itertools.product(range(len(first)), range(len(second))):
        merged = first[s + 1:] + first[:s + 1] + second[u + 1:] + second[:u + 1]
        counts = out.setdefault((_canon(merged),), [0, 0, 0])
        counts[(first[s] == "b") + (second[u] == "b")] += 1
    return out


def _without(orbit: tuple, word: str) -> tuple:
    i = orbit.index(word)
    return orbit[:i] + orbit[i + 1:]


def _moves(orbit: tuple, table) -> dict:
    """Orbits one move away from ``orbit``: target -> pair counts by class.

    One word splits (``table(word)``) or two merge (``table(word, other)``);
    each table's counts are multiplied by the number of cycles, or pairs of
    cycles, that carry those words.
    """
    counts = Counter(orbit)
    words = sorted(counts)
    out = {}
    for k, word in enumerate(words):
        rest = _without(orbit, word)
        choices = [(rest, table(word), counts[word])] if len(word) > 1 else []
        for other in words[k:]:
            cycles = math.comb(counts[word], 2) if other == word \
                else counts[word] * counts[other]
            if cycles:
                choices.append((_without(rest, other), table(word, other), cycles))
        for left, entries, cycles in choices:
            for new_words, pairs in entries.items():
                acc = out.setdefault(tuple(sorted(left + new_words)), [0, 0, 0])
                for c in range(3):
                    acc[c] += cycles * pairs[c]
    return out


def list_orbits(profile: BiasProfile) -> tuple[list, np.ndarray, np.ndarray]:
    """Orbits reachable from the identity and the transitions between them.

    Returns the orbits (sorted tuples of least-rotation words), a (2, E)
    int32 array of source and destination orbit indices, sources ascending,
    and the (E,) transition masses: one entry per ordered pair of distinct
    orbits that a move connects.  Split and merge tables are cached per
    word and per pair of words.
    """
    from array import array  # a compiled module, loaded only by exact runs
    hand_a, hand_b = profile.a / profile.deck_size, profile.b / profile.deck_size
    by_class = (2 * hand_a * hand_a, 2 * hand_a * hand_b, 2 * hand_b * hand_b)
    tables = {}

    def table(*words):
        if words not in tables:
            tables[words] = _splits(*words) if len(words) == 1 else _merges(*words)
        return tables[words]

    start = ("a",) * profile.n + ("b",) * profile.n
    index = {start: 0}
    orbits = [start]
    src, dst, mass = array("i"), array("i"), array("d")
    for here, orbit in enumerate(orbits):
        for target, pairs in _moves(orbit, table).items():
            there = index.setdefault(target, len(orbits))
            if there == len(orbits):
                orbits.append(target)
            src.append(here)
            dst.append(there)
            mass.append(sum(p * w for p, w in zip(pairs, by_class)))
    ends = np.stack([np.frombuffer(src, dtype=np.int32), np.frombuffer(dst, dtype=np.int32)])
    return orbits, ends, np.frombuffer(mass)


def _orbit_size(orbit, n: int) -> int:
    """Permutations in an orbit: (n!)^2 over the order of the stabiliser."""
    stabiliser = 1
    for word, m in Counter(orbit).items():
        stabiliser *= math.factorial(m) * (len(word) // _period(word)) ** m
    return math.factorial(n) ** 2 // stabiliser


@dataclass
class TransitionOperator:
    """One-step operator of the walk lumped on orbits."""

    profile: BiasProfile
    stay: float                 # mass on the identity move
    weights: np.ndarray         # (E,) mass of each transition
    table: np.ndarray           # (2, E) source and destination orbit of each transition
    sizes: np.ndarray           # (states,) permutations in each orbit, summing to N!
    # rows distance_scan has reached so far, and the distribution at the last
    scanned: list = field(default_factory=list, init=False, repr=False)
    scan_head: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def state_count(self) -> int:
        return self.sizes.size

    def apply(self, dist: np.ndarray) -> np.ndarray:
        flow = dist[self.table[0]]
        flow *= self.weights
        return self.stay * dist + np.bincount(self.table[1], weights=flow, minlength=dist.size)


def build_operator(profile: BiasProfile) -> TransitionOperator:
    """List the orbits of the deck in ``profile`` and their transitions."""
    check_capacity(profile.deck_size)
    orbits, table, weights = list_orbits(profile)
    sizes = np.array([_orbit_size(orbit, profile.n) for orbit in orbits], dtype=np.int64)
    stay = float(np.sum((profile.weights() / profile.deck_size) ** 2))
    return TransitionOperator(profile=profile, stay=stay, weights=weights, table=table,
                              sizes=sizes)


def point_mass(op: TransitionOperator) -> np.ndarray:
    """The law at t = 0: all mass on the identity, state 0."""
    dist = np.zeros(op.state_count)
    dist[0] = 1.0
    return dist


def tv_distance(dist: np.ndarray, sizes: np.ndarray) -> float:
    """Total variation distance to uniform; state i holds sizes[i] permutations."""
    return 0.5 * float(np.abs(dist - sizes / sizes.sum()).sum())


def separation_distance(dist: np.ndarray, sizes: np.ndarray) -> float:
    """max over permutations of 1 - N! * mass, clamped to [0, 1]; as :func:`tv_distance`."""
    sep = 1.0 - int(sizes.sum()) * float((dist / sizes).min())
    return min(1.0, max(0.0, sep))


_METRIC_COLUMN = {"tv": 1, "separation": 2}


def distance_scan(op: TransitionOperator):
    """Yield (t, tv, separation) for t = 0, 1, 2, ... from the identity start.

    Rows are kept on ``op``, so a later scan replays them and evolves the
    distribution only past the furthest row an earlier scan reached.  Asking
    past t = theory_time(profile, SCAN_CAP_MULTIPLE) raises RuntimeError.
    """
    t = 0
    while True:
        if t == len(op.scanned):
            check_scan_steps(op.profile, t)
            op.scan_head = point_mass(op) if t == 0 else op.apply(op.scan_head)
            op.scanned.append((t, tv_distance(op.scan_head, op.sizes),
                               separation_distance(op.scan_head, op.sizes)))
        yield op.scanned[t]
        t += 1


def check_scan_steps(profile: BiasProfile, t: int) -> None:
    """Raise RuntimeError if step ``t`` is past theory_time(profile, SCAN_CAP_MULTIPLE)."""
    cap = theory_time(profile, SCAN_CAP_MULTIPLE)
    if t > cap:
        raise RuntimeError(f"distance scan exceeded {cap} steps, "
                           f"{SCAN_CAP_MULTIPLE} times the theory time")


def check_eps(eps: float) -> float:
    """``eps`` if it lies in (0, 1), the range of a mixing-time threshold."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    return eps


def mixing_time(op: TransitionOperator, eps: float,
                metric: str = "separation") -> int:
    """Smallest t with distance(t) <= eps from the identity start.

    Reads :func:`distance_scan` up to the first crossing, so no
    monotonicity of the distance in t is assumed.
    """
    check_eps(eps)
    try:
        col = _METRIC_COLUMN[metric]
    except KeyError:
        raise ValueError(f"metric must be one of {sorted(_METRIC_COLUMN)}") from None
    return next(row[0] for row in distance_scan(op) if row[col] <= eps)


def cutoff_profile(op: TransitionOperator,
                   t_values) -> list[tuple[int, float, float]]:
    """The (t, tv, separation) rows at each requested step count, ascending in t."""
    wanted = set()
    for t in map(int, t_values):  # checked as read, so a request past the cap fails at once
        if t < 0:
            raise ValueError("t values must be non-negative")
        check_scan_steps(op.profile, t)
        wanted.add(t)
    rows = itertools.islice(distance_scan(op), max(wanted, default=-1) + 1)
    return [row for row in rows if row[0] in wanted]
