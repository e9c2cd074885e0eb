"""Biased random transposition walk on a two-type deck.

A deck holds N = 2n cards.  Cards 0..n-1 (type A) are picked by a hand with
probability a/N each, cards n..2n-1 (type B) with probability b/N each, where
b = 2 - a and 0 < a <= 1 <= b.  One step of the walk draws a right card R and
a left card L independently from that law and swaps their positions, so the
unordered transposition {i, j} is applied with probability 2 p_i p_j and the
deck stays put with probability sum_i p_i^2.

Randomness policy: every Monte Carlo consumer derives its generator through
``stream_rng``, so trial i of a run is a pure function of (seed, stream tag,
i) and results do not depend on batching or worker layout.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Seed used by the command line tools when none is given.
DEFAULT_SEED = 1729

# Stream tags keep independent engines off each other's random streams.
STREAM_WALK = 1
STREAM_MARKING = 2
STREAM_TYPECHAIN = 3

# Card labels, positions and counters are int16 in the batched engines.
MAX_DECK = int(np.iinfo(np.int16).max)


def stream_rng(seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator derived from (seed, path).

    Distinct paths give statistically independent streams, so per-trial
    generators can be re-created anywhere without coordination.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


def check_bias(a: float) -> None:
    """Raise ValueError unless the bias lies in the model's range 0 < a <= 1 (NaN does not)."""
    if not 0.0 < a <= 1.0:
        raise ValueError("a must lie in (0, 1]")


@dataclass(frozen=True)
class BiasProfile:
    """Hand-selection law: n cards of weight a, n of weight b = 2 - a."""

    n: int
    a: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if 2 * self.n > MAX_DECK:
            raise ValueError(f"deck size {2 * self.n} exceeds {MAX_DECK}, the most "
                             "cards the int16 card arrays can label")
        check_bias(self.a)

    @property
    def b(self) -> float:
        return 2.0 - self.a

    @property
    def deck_size(self) -> int:
        return 2 * self.n

    def weights(self) -> np.ndarray:
        """Vector of hand weights indexed by card label."""
        w = np.full(self.deck_size, self.b)
        w[: self.n] = self.a
        return w


def make_bias_profile(n: int, a: float) -> BiasProfile:
    """Validated constructor for :class:`BiasProfile`."""
    return BiasProfile(n=int(n), a=float(a))


def hands_from_uniforms(profile: BiasProfile, u: np.ndarray) -> np.ndarray:
    """The hand law: inverse-CDF map from uniforms in [0, 1) to int64 card labels.

    Every engine draws its hands through this map.  Each uniform, in an
    array of any shape, is shifted by the mass of the blocks below its type
    (a / 2 for type B, none for type A), scaled by its block's N / w and
    clipped into the block's n labels.
    """
    n, size = profile.n, profile.deck_size
    half_a = 0.5 * profile.a  # total mass of the type-A block
    is_b = (u >= half_a).astype(np.intp)
    shift = np.array([0.0, half_a])
    scale = np.array([size / profile.a, size / profile.b])
    scaled = shift[is_b]
    np.subtract(u, scaled, out=scaled)
    scaled *= scale[is_b]
    hands = scaled.astype(np.int64)
    np.minimum(hands, n - 1, out=hands)
    is_b *= n
    hands += is_b
    return hands


# Uniforms a HandStream draws and maps at a time: 256 KiB of doubles plus
# 256 KiB of labels.
HAND_BLOCK = 1 << 15


class HandStream:
    """A generator's uniforms, each paired with its card under the hand law.

    Uniforms are drawn and mapped through :func:`hands_from_uniforms` a block
    of ``HAND_BLOCK`` at a time, and :meth:`take` hands out consecutive
    slices of them.  A generator's doubles do not depend on how many each
    ``random`` call asks for, so successive ``take`` calls return the
    uniforms of successive ``rng.random`` calls of the same sizes, whatever
    the block size.
    """

    def __init__(self, profile: BiasProfile, rng: np.random.Generator):
        self.profile = profile
        self.rng = rng
        self._u = np.empty(0)
        self._hands = np.empty(0, dtype=np.int64)
        self._at = 0

    def take(self, m: int, cards: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """The next ``m`` uniforms and the int64 card labels of the first
        ``cards`` of them (all ``m`` by default), not to be written to."""
        start, stop = self._at, self._at + m
        cut = stop if cards is None else start + cards
        if stop <= self._u.size:
            self._at = stop
            return self._u[start:stop], self._hands[start:cut]
        head_u, head_hands = self._u[start:], self._hands[start:cut]
        missing, need = stop - self._u.size, max(cut - self._u.size, 0)
        self._u = self.rng.random(max(missing, HAND_BLOCK))
        # a block drawn for this take alone maps only the draws it has cards for
        self._hands = hands_from_uniforms(
            self.profile, self._u[:need] if missing >= HAND_BLOCK else self._u)
        self._u.flags.writeable = self._hands.flags.writeable = False
        self._at = missing
        if not head_u.size:
            return self._u[:missing], self._hands[:need]
        return (np.concatenate((head_u, self._u[:missing])),
                np.concatenate((head_hands, self._hands[:need])))
