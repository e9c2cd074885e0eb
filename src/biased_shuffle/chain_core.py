"""Biased random transposition walk on a two-type deck.

A deck holds N = 2n cards.  Cards 0..n-1 (type A) are picked by a hand with
probability a/N each, cards n..2n-1 (type B) with probability b/N each, where
b = 2 - a and 0 < a <= 1 <= b.  One step of the walk draws a right card R and
a left card L independently from that law and swaps their positions, so the
unordered transposition {i, j} is applied with probability 2 p_i p_j and the
deck stays put with probability sum_i p_i^2.

Randomness policy: every Monte Carlo consumer derives its generators through
``stream_rng``, one PCG64DXSM stream per (seed, stream tag, ...), and its
outputs are a function of every argument, ``trials`` included: the marking
engine draws all runs from one stream, phase one for every run and then
phase two, a step's draws sized by the runs still open in its pass, and the
walk uses one stream per ``DEFAULT_BLOCK_SIZE`` trials, so trial i is not a
function of (seed, i) alone.  Nothing depends on
``HAND_BLOCK`` or on thread settings.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Stream tags keep independent engines off each other's random streams.
STREAM_WALK = 1
STREAM_MARKING = 2
STREAM_TYPECHAIN = 3

# The batched engines keep card labels, positions and walk counts int16, marked counts int64.
MAX_DECK = int(np.iinfo(np.int16).max)


def stream_rng(seed: int, *path: int) -> np.random.Generator:
    """PCG64DXSM generator seeded by ``SeedSequence([seed, *path])``.

    Distinct paths give statistically independent streams, so a generator
    can be re-created anywhere without coordination.
    """
    return np.random.Generator(np.random.PCG64DXSM(np.random.SeedSequence([seed, *path])))


class CapacityError(ValueError):
    """Requested size exceeds what a computation is allowed to materialise."""


# Most bytes the per-run arrays of one batched marking call may take; it
# admits the uniformity test's least run count at deck 8, 100 * 8! runs.
RUN_BYTE_BUDGET = 1 << 30


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


def theory_time(profile: BiasProfile, multiple: float = 1.0) -> int:
    """Round multiple * (1/2a) N log N to an integer step count."""
    deck = profile.deck_size
    return max(1, round(multiple * deck * math.log(deck) / (2.0 * profile.a)))


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


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """Doubles in [0, 1) from raw 64-bit generator words, made exactly as
    ``Generator.random`` makes them from the same words."""
    return (words >> 11) * 2.0 ** -53


@functools.lru_cache(maxsize=8)
def hand_table(profile: BiasProfile) -> tuple[np.ndarray, int, bool]:
    """The hand law on the top bits of a raw word: (table, shift, straddles).

    Bin i holds the words whose top bits are i, so a word's card is
    ``table[word >> shift]``.  The map of :func:`hands_from_uniforms` is
    monotone in u, so a bin whose first and last words give the same card
    maps every word to it; a bin whose ends differ straddles two cards and
    holds -1, and ``straddles`` says whether any bin does.  The width is the
    narrowest from ``bit_length(deck - 1) + 2`` bits (clamped to 10..16) up
    to 16 whose straddling bins are at most 1/64 of the table, else 16 bits,
    so that small tables stay in cache; a card boundary falls in at most one
    bin, so below 16 no table is wider than ``bit_length(deck - 1) + 6`` bits.
    A table has at most 2**16 int64 entries (512 KiB); tables are built on
    first use and cached for the last few profiles.
    """
    for bits in range(min(max((profile.deck_size - 1).bit_length() + 2, 10), 16), 17):
        shift = 64 - bits
        first = np.arange(1 << bits, dtype=np.uint64) << np.uint64(shift)
        last = first | np.uint64((1 << shift) - 1)
        lo = hands_from_uniforms(profile, uniforms_from_words(first))
        hi = hands_from_uniforms(profile, uniforms_from_words(last))
        table = np.where(lo == hi, lo, -1)
        straddling = np.count_nonzero(table < 0)
        if 64 * straddling <= table.size:
            break
    table.flags.writeable = False
    return table, shift, straddling > 0


# Raw words in a full HandStream block, rounded up to whole takes: 256 KiB of
# words, and of labels and uniforms together.
HAND_BLOCK = 1 << 15


class HandStream:
    """A generator's raw words, handed out as cards under the hand law or as uniforms.

    Words are drawn with ``random_raw`` a block at a time.  A block holds a
    whole number of takes of one shape ``(m, cards)``: a shape's first block
    holds one take and each next one twice as many, up to the fewest takes
    that make ``HAND_BLOCK`` words, so a shape that soon changes wastes few
    words.  A take of another shape starts a new block, led by the words not
    yet handed out.  Each take's first ``cards`` words become cards through
    the profile's :func:`hand_table` (words in a straddling bin fall back to
    :func:`hands_from_uniforms`) and the rest become uniforms, once per
    block, so no word is mapped or converted for a part of a take that does
    not want it.  ``Generator.random`` makes each double from one such word
    (:func:`uniforms_from_words`), so successive takes see the draws of
    successive ``rng.random`` calls of the same sizes, whatever the block
    size.
    """

    def __init__(self, profile: BiasProfile, rng: np.random.Generator):
        self.profile = profile
        self._raw = rng.bit_generator.random_raw
        self._table, self._shift, self._straddles = hand_table(profile)
        self._words = np.empty(0, dtype=np.uint64)
        self._shape = (0, 0)
        self._hands = self._u = np.empty((0, 0))
        self._row = 0

    def _fill(self, m: int, cards: int) -> None:
        left = self._words[self._row * self._shape[0]:]
        grow = 2 * len(self._hands) if (m, cards) == self._shape else 1
        takes = max(min(grow, -(-HAND_BLOCK // max(m, 1))), 1)
        # a block of empty takes keeps the unread words for the next block
        words = self._raw(max(takes * m - left.size, 0))
        if left.size:
            words = np.concatenate((left, words))
        block = words[:takes * m].reshape(takes, m)
        card_words = block[:, :cards]
        hands = self._table[(card_words >> self._shift).view(np.int64)]
        if self._straddles:
            flat = hands.reshape(-1)
            odd = (flat < 0).nonzero()[0]
            if odd.size:
                flat[odd] = hands_from_uniforms(
                    self.profile, uniforms_from_words(card_words.reshape(-1)[odd]))
        u = uniforms_from_words(block[:, cards:]) if cards < m else np.empty((takes, 0))
        hands.flags.writeable = u.flags.writeable = False
        self._words, self._shape, self._row = words, (m, cards), 0
        self._hands, self._u = hands, u

    def take(self, m: int, cards: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``m`` draws: the uniforms of draws ``cards``..``m`` and the
        int64 card labels of the first ``cards``, neither to be written to."""
        if (m, cards) != self._shape or self._row == len(self._hands):
            self._fill(m, cards)
        self._row += 1
        return self._u[self._row - 1], self._hands[self._row - 1]
