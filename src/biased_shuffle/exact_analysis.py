"""Exact distribution analysis of the walk for small decks.

States are the N! permutations of the deck, indexed by their lexicographic
(Lehmer) rank.  The one-step operator is kept matrix free: a precomputed
neighbour table maps every state through each of the N(N-1)/2 transpositions,
and applying the operator is a weighted sum of pure gathers (each
transposition column is an involution on states, so gather equals scatter).

Total variation and separation distance are computed against the uniform
distribution.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .chain_core import BiasProfile

# Past 8 cards the dense state vector stops being a laptop object.
DEFAULT_MAX_DECK = 8


class CapacityError(ValueError):
    """Requested size exceeds what exact mode is allowed to materialise."""


def factorials(upto: int) -> list[int]:
    out = [1]
    for i in range(1, upto + 1):
        out.append(out[-1] * i)
    return out


def encode_perm(perm) -> int:
    """Lexicographic rank of a permutation of 0..N-1."""
    perm = list(perm)
    deck = len(perm)
    fact = factorials(deck)
    rank = 0
    for i in range(deck - 1):
        smaller = sum(1 for j in range(i + 1, deck) if perm[j] < perm[i])
        rank += smaller * fact[deck - 1 - i]
    return rank


def decode_perm(rank: int, deck: int) -> tuple[int, ...]:
    """Inverse of :func:`encode_perm`."""
    fact = factorials(deck)
    if not 0 <= rank < fact[deck]:
        raise ValueError("rank out of range")
    avail = list(range(deck))
    out = []
    for i in range(deck):
        digit, rank = divmod(rank, fact[deck - 1 - i])
        out.append(avail.pop(digit))
    return tuple(out)


def encode_many(perms: np.ndarray) -> np.ndarray:
    """Vectorised Lehmer rank of each row of an (M, N) permutation array."""
    deck = perms.shape[1]
    fact = factorials(deck)
    rank = np.zeros(perms.shape[0], dtype=np.int64)
    for i in range(deck - 1):
        smaller = (perms[:, i + 1:] < perms[:, i:i + 1]).sum(axis=1)
        rank += smaller.astype(np.int64) * fact[deck - 1 - i]
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
    pairs: list[tuple[int, int]]
    table: np.ndarray           # (N!, T) image state under each transposition

    @property
    def state_count(self) -> int:
        return self.table.shape[0]

    def apply(self, dist: np.ndarray) -> np.ndarray:
        out = self.stay * dist
        for col, w in enumerate(self.weights):
            out += w * dist[self.table[:, col]]
        return out

    def transition_mass(self, x: int, y: int) -> float:
        """Exact one-step mass sent from state x to state y."""
        if x == y:
            return self.stay
        for col in range(self.table.shape[1]):
            if self.table[x, col] == y:
                return float(self.weights[col])
        return 0.0


def build_operator(profile: BiasProfile, max_deck: int = DEFAULT_MAX_DECK) -> TransitionOperator:
    """Materialise the neighbour table for the deck in ``profile``."""
    deck = profile.deck_size
    if deck > max_deck:
        raise CapacityError(
            f"deck of {deck} cards exceeds exact-mode limit of {max_deck}")
    perms = all_perms(deck)
    hand = profile.weights() / deck
    pairs = [(i, j) for i in range(deck) for j in range(i + 1, deck)]
    table = np.empty((perms.shape[0], len(pairs)), dtype=np.int32)
    weights = np.empty(len(pairs))
    for col, (i, j) in enumerate(pairs):
        relabel = np.arange(deck, dtype=np.int8)
        relabel[i], relabel[j] = j, i
        table[:, col] = encode_many(relabel[perms])
        weights[col] = 2.0 * hand[i] * hand[j]
    stay = float(np.sum(hand * hand))
    return TransitionOperator(profile=profile, stay=stay, weights=weights,
                              pairs=pairs, table=table)


def point_mass(op: TransitionOperator, state: int = 0) -> np.ndarray:
    dist = np.zeros(op.state_count)
    dist[state] = 1.0
    return dist


def evolve(op: TransitionOperator, dist: np.ndarray, t: int) -> np.ndarray:
    """Advance a distribution t steps (t = 0 returns a copy)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    out = dist.copy()
    for _ in range(t):
        out = op.apply(out)
    return out


def tv_distance(dist: np.ndarray) -> float:
    """Total variation distance to the uniform distribution."""
    return 0.5 * float(np.abs(dist - 1.0 / dist.size).sum())


def separation_distance(dist: np.ndarray) -> float:
    """max over states of 1 - N! * mass, clamped to [0, 1]."""
    sep = 1.0 - dist.size * float(dist.min())
    return min(1.0, max(0.0, sep))


_METRICS = {"tv": tv_distance, "separation": separation_distance}


def mixing_time(op: TransitionOperator, eps: float,
                metric: str = "separation") -> int:
    """Smallest t with distance(t) <= eps from the identity start.

    Evolves one step at a time and stops at the first crossing, so no
    monotonicity of the distance in t is assumed.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    try:
        dist_fn = _METRICS[metric]
    except KeyError:
        raise ValueError(f"metric must be one of {sorted(_METRICS)}") from None

    dist = point_mass(op)
    t = 0
    while dist_fn(dist) > eps:
        if t >= 10**7:
            raise RuntimeError("mixing time search exceeded 1e7 steps")
        dist = op.apply(dist)
        t += 1
    return t


@dataclass
class DistanceCurve:
    """Sampled (t, tv, sep) rows of the distance-to-uniform profile."""

    rows: list[tuple[int, float, float]]

    @property
    def t(self) -> list[int]:
        return [r[0] for r in self.rows]

    @property
    def tv(self) -> list[float]:
        return [r[1] for r in self.rows]

    @property
    def sep(self) -> list[float]:
        return [r[2] for r in self.rows]


def cutoff_profile(op: TransitionOperator, t_values) -> DistanceCurve:
    """Evaluate both distances at each requested step count."""
    wanted = sorted(set(int(t) for t in t_values))
    if wanted and wanted[0] < 0:
        raise ValueError("t values must be non-negative")
    rows = []
    vec = point_mass(op)
    cur = 0
    for t in wanted:
        vec = evolve(op, vec, t - cur)
        cur = t
        rows.append((t, tv_distance(vec), separation_distance(vec)))
    return DistanceCurve(rows=rows)


def fixed_a_counts(deck: int) -> np.ndarray:
    """For every state, the number of type-A cards sitting at their home slot.

    Card labels below deck/2 are type A; a card is a fixed point when its
    position equals its label.
    """
    perms = all_perms(deck)
    half = deck // 2
    home = np.arange(deck, dtype=np.int8)
    return ((perms == home) & (home < half)).sum(axis=1).astype(np.int64)


def state_mass_at_least(op: TransitionOperator, dist: np.ndarray,
                        threshold: int) -> float:
    """Mass of states with at least ``threshold`` type-A fixed points."""
    counts = fixed_a_counts(op.profile.deck_size)
    return float(dist[counts >= threshold].sum())


def theory_time(profile: BiasProfile, multiple: float = 1.0) -> int:
    """Round multiple * (1/2a) N log N to an integer step count."""
    deck = profile.deck_size
    return max(1, round(multiple * deck * math.log(deck) / (2.0 * profile.a)))
