"""Exact distribution analysis of the walk for small decks.

States are the N! permutations of the deck, indexed by their lexicographic
(Lehmer) rank.  The one-step operator is kept matrix free: a precomputed
neighbour table holds, for each of the N(N-1)/2 transpositions, one contiguous
row mapping every state to its image, and applying the operator is a weighted
sum of pure gathers (each transposition row is an involution on states, so
gather equals scatter).

Total variation and separation distance are computed against the uniform
distribution.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .chain_core import BiasProfile

# Largest exact_bytes estimate that build_operator accepts: deck 10 needs
# about 1.3 GB, deck 12 about 220 GB.
EXACT_BYTE_BUDGET = 2 * 1024**3

MAX_SCAN_STEPS = 10**7


class CapacityError(ValueError):
    """Requested size exceeds what exact mode is allowed to materialise."""


def encode_many(perms: np.ndarray) -> np.ndarray:
    """Vectorised Lehmer rank of each row of an (M, N) permutation array."""
    deck = perms.shape[1]
    rank = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(deck - 1):
        smaller = (perms[:, i + 1:] < perms[:, i:i + 1]).sum(axis=1)
        rank += smaller.astype(np.int64) * math.factorial(deck - 1 - i)
    return rank


def all_perms(deck: int) -> np.ndarray:
    """All permutations of 0..deck-1 in rank order, one per row."""
    return np.array(list(itertools.permutations(range(deck))), dtype=np.int8)


@dataclass
class TransitionOperator:
    """Matrix-free one-step operator of the walk on S_N."""

    profile: BiasProfile
    stay: float                 # mass on the identity move
    weights: np.ndarray         # (T,) unordered transposition masses 2 p_i p_j
    table: np.ndarray           # (T, N!) image state under each transposition
    # rows distance_scan has reached so far, and the distribution at the last
    scanned: list = field(default_factory=list, init=False, repr=False)
    scan_head: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def state_count(self) -> int:
        return self.table.shape[1]

    def apply(self, dist: np.ndarray) -> np.ndarray:
        out = self.stay * dist
        term = np.empty_like(dist)
        # every image is a state, so "clip" never acts; it spares the copy
        # of ``out`` that take makes under the default mode="raise"
        for image, w in zip(self.table, self.weights):
            np.take(dist, image, out=term, mode="clip")
            term *= w
            out += term
        return out


def exact_bytes(deck: int) -> int:
    """Estimated peak bytes of :func:`build_operator` for a deck.

    Per state: the listed permutation as a Python tuple plus its int8 row,
    its int32 entry in every neighbour table row and a few float64
    distribution entries.
    """
    pairs = deck * (deck - 1) // 2
    return math.factorial(deck) * (56 + 9 * deck + 4 * pairs + 8 * 4)


def build_operator(profile: BiasProfile) -> TransitionOperator:
    """Materialise the neighbour table for the deck in ``profile``."""
    deck = profile.deck_size
    need = exact_bytes(deck)
    if need > EXACT_BYTE_BUDGET:
        raise CapacityError(
            f"exact mode for a deck of {deck} cards needs about {need / 1e9:.3g} GB, "
            f"over the {EXACT_BYTE_BUDGET / 1e9:.3g} GB budget")
    perms = all_perms(deck)
    hand = profile.weights() / deck
    pairs = [(i, j) for i in range(deck) for j in range(i + 1, deck)]
    table = np.empty((len(pairs), perms.shape[0]), dtype=np.int32)
    weights = np.empty(len(pairs))
    for col, (i, j) in enumerate(pairs):
        relabel = np.arange(deck, dtype=np.int8)
        relabel[i], relabel[j] = j, i
        table[col] = encode_many(relabel[perms])
        weights[col] = 2.0 * hand[i] * hand[j]
    stay = float(np.sum(hand * hand))
    return TransitionOperator(profile=profile, stay=stay, weights=weights, table=table)


def point_mass(op: TransitionOperator) -> np.ndarray:
    """The law at t = 0: all mass on the identity, state 0."""
    dist = np.zeros(op.state_count)
    dist[0] = 1.0
    return dist


def tv_distance(dist: np.ndarray) -> float:
    """Total variation distance to the uniform distribution."""
    return 0.5 * float(np.abs(dist - 1.0 / dist.size).sum())


def separation_distance(dist: np.ndarray) -> float:
    """max over states of 1 - N! * mass, clamped to [0, 1]."""
    sep = 1.0 - dist.size * float(dist.min())
    return min(1.0, max(0.0, sep))


_METRIC_COLUMN = {"tv": 1, "separation": 2}


def distance_scan(op: TransitionOperator):
    """Yield (t, tv, separation) for t = 0, 1, 2, ... from the identity start.

    Rows are kept on ``op``, so a later scan replays them and evolves the
    distribution only past the furthest row an earlier scan reached.  Asking
    past t = MAX_SCAN_STEPS raises RuntimeError.
    """
    t = 0
    while True:
        if t == len(op.scanned):
            if t > MAX_SCAN_STEPS:
                raise RuntimeError(f"distance scan exceeded {MAX_SCAN_STEPS} steps")
            op.scan_head = point_mass(op) if t == 0 else op.apply(op.scan_head)
            op.scanned.append(
                (t, tv_distance(op.scan_head), separation_distance(op.scan_head)))
        yield op.scanned[t]
        t += 1


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
    wanted = set(int(t) for t in t_values)
    if wanted and min(wanted) < 0:
        raise ValueError("t values must be non-negative")
    rows = itertools.islice(distance_scan(op), max(wanted, default=-1) + 1)
    return [row for row in rows if row[0] in wanted]


def theory_time(profile: BiasProfile, multiple: float = 1.0) -> int:
    """Round multiple * (1/2a) N log N to an integer step count."""
    deck = profile.deck_size
    return max(1, round(multiple * deck * math.log(deck) / (2.0 * profile.a)))
