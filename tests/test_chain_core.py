"""Walk primitives: bias profiles, hand sampling, deck state, single steps."""
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import DeckState, MarkingState
from _reference import hand_probability
from biased_shuffle import bounds, chain_core, marking
from biased_shuffle.chain_core import (
    BiasProfile,
    HandStream,
    hand_table,
    hands_from_uniforms,
    make_bias_profile,
    stream_rng,
    uniforms_from_words,
)


def is_bijection(d: DeckState) -> bool:
    """``card_at`` is a permutation of the labels and ``pos_of`` its inverse."""
    seen = bytearray(d.deck_size)
    for card in d.card_at:
        if not 0 <= card < d.deck_size or seen[card]:
            return False
        seen[card] = 1
    return all(d.card_at[d.pos_of[c]] == c for c in range(d.deck_size))


class TestBiasProfile:
    def test_basic_fields(self):
        p = make_bias_profile(2, 0.5)
        assert p.b == 1.5
        assert p.deck_size == 4
        assert p.weights().tolist() == [0.5, 0.5, 1.5, 1.5]
        assert hand_probability(p, 0) == pytest.approx(0.125)
        assert hand_probability(p, 3) == pytest.approx(0.375)

    def test_unbiased_profile_is_flat(self):
        p = make_bias_profile(3, 1.0)
        assert p.b == 1.0
        assert all(hand_probability(p, c) == pytest.approx(1 / 6) for c in range(6))

    def test_type_split(self):
        p = make_bias_profile(3, 0.7)
        assert p.weights()[2] == pytest.approx(0.7)
        assert p.weights()[3] == pytest.approx(1.3)

    @pytest.mark.parametrize("n,a", [(0, 0.5), (-1, 0.5), (2, 0.0),
                                     (2, -0.1), (2, 1.5)])
    def test_rejects_bad_parameters(self, n, a):
        with pytest.raises(ValueError):
            make_bias_profile(n, a)

    def test_rejects_decks_past_int16_labels(self):
        with pytest.raises(ValueError, match="32767"):
            make_bias_profile(16_384, 0.5)
        largest = make_bias_profile(16_383, 0.5)
        u = np.array([0.0, 0.2499, 0.25, np.nextafter(1.0, 0.0)])
        assert hands_from_uniforms(largest, u).tolist() == [0, 16_376, 16_383, 32_765]

    def test_hand_probabilities_sum_to_one(self):
        for a in (0.25, 0.5, 1.0):
            p = make_bias_profile(5, a)
            total = sum(hand_probability(p, c) for c in range(10))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_hand_frequencies_match_bias(self):
        p = make_bias_profile(3, 0.5)
        rng = stream_rng(123, 50)
        draws = hands_from_uniforms(p, rng.random(100_000))
        counts = np.bincount(draws, minlength=6)
        for c in range(6):
            expect = hand_probability(p, c)
            sigma = math.sqrt(expect * (1 - expect) / draws.size)
            assert abs(counts[c] / draws.size - expect) < 4 * sigma

    def test_identity_draw_rate_unbiased(self):
        # both hands land on the same card with probability sum p_i^2 = 1/4
        p = make_bias_profile(2, 1.0)
        rng = stream_rng(9, 51)
        r = hands_from_uniforms(p, rng.random(200_000))
        l = hands_from_uniforms(p, rng.random(200_000))
        rate = float((r == l).mean())
        assert abs(rate - 0.25) < 4 * math.sqrt(0.25 * 0.75 / 200_000)

    def test_edge_uniform_values_stay_in_range(self):
        p = make_bias_profile(2, 0.5)
        hands = hands_from_uniforms(p, np.array([0.0, 0.5 - 1e-16, 0.9999999, 1.0 - 1e-16]))
        assert hands.min() >= 0 and hands.max() <= 3

    @pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.77, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 512])
    def test_matches_one_line_formula(self, n, a):
        # the map as one expression: shift, scale, cast, clip, offset type B
        def one_line(p, u):
            half_a = 0.5 * p.a
            is_b = (u >= half_a).astype(np.intp)
            shift = np.array([0.0, half_a])
            scale = np.array([p.deck_size / p.a, p.deck_size / p.b])
            return (np.minimum(((u - shift[is_b]) * scale[is_b]).astype(np.int64), p.n - 1)
                    + p.n * is_b)

        p = make_bias_profile(n, a)
        half_a = 0.5 * a
        edges = np.array([0.0, half_a, np.nextafter(half_a, 0.0), np.nextafter(half_a, 1.0),
                          np.nextafter(1.0, 0.0)])
        rng = stream_rng(n, 70)
        for u in (edges, rng.random(5000), rng.random((300, 2))):
            hands = hands_from_uniforms(p, u)
            assert hands.dtype == np.int64 and hands.shape == u.shape
            assert hands.tolist() == one_line(p, u).tolist()

    def test_clip_keeps_block_edges_in_block(self):
        # at n = 5, a = 0.05 the last double below each block's upper edge
        # scales to exactly n and must be clipped back to the block's top card
        p = make_bias_profile(5, 0.05)
        u = np.array([np.nextafter(0.025, 0.0), np.nextafter(1.0, 0.0)])
        assert hands_from_uniforms(p, u).tolist() == [4, 9]

    def test_pair_probability_example(self):
        p = make_bias_profile(2, 0.5)
        # one type-A hand (1/8) and one type-B hand (3/8)
        pair = hand_probability(p, 0) * hand_probability(p, 2)
        assert pair == pytest.approx(0.046875, abs=1e-15)

    def test_ordered_pair_probabilities_total_one(self):
        for a in (0.25, 0.5, 1.0):
            p = make_bias_profile(3, a)
            total = sum(hand_probability(p, i) * hand_probability(p, j)
                        for i in range(6) for j in range(6))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestDeckState:
    def test_initial_identity(self):
        d = DeckState(3)
        assert d.card_at == list(range(6))
        assert d.pos_of == list(range(6))
        assert is_bijection(d)

    def test_swap_and_inverse_consistency(self):
        d = DeckState(2)
        d.swap_cards(0, 3)
        assert d.card_at[0] == 3 and d.card_at[3] == 0
        assert d.pos_of[3] == 0 and d.pos_of[0] == 3
        d.swap_cards(1, 1)  # no-op
        assert is_bijection(d)

    def test_bijection_under_fuzzed_swaps(self):
        d = DeckState(4)
        rng = stream_rng(77, 52)
        pairs = rng.integers(0, 8, size=(200_000, 2))
        for c1, c2 in pairs:
            d.swap_cards(int(c1), int(c2))
        assert is_bijection(d)
        # replaying the same swaps restores the identity
        for c1, c2 in pairs[::-1]:
            d.swap_cards(int(c1), int(c2))
        assert d.card_at == list(range(8))


class TestStep:
    def test_time_counter_threads_through(self):
        p = make_bias_profile(2, 1.0)
        ms = MarkingState(p, 0.75)
        rng = stream_rng(6, 54)
        for expected_t in range(1, 6):
            right, left = ms.apply_walk_move(rng)
            assert type(right) is int and type(left) is int
            assert ms.t == expected_t
        assert is_bijection(ms.deck)

    def test_one_step_law_unbiased(self):
        # at a=1 a single step leaves identity w.p. 1/4, else a uniform swap
        p = make_bias_profile(2, 1.0)
        rng = stream_rng(31, 55)
        stay = 0
        trials = 100_000
        for right, left in hands_from_uniforms(p, rng.random((trials, 2))).tolist():
            d = DeckState(2)
            d.swap_cards(right, left)
            if d.card_at == list(range(4)):
                stay += 1
        assert abs(stay / trials - 0.25) < 4 * math.sqrt(0.25 * 0.75 / trials)


class TestStreams:
    def test_same_path_reproduces(self):
        a = stream_rng(42, 1, 2).random(5)
        b = stream_rng(42, 1, 2).random(5)
        assert (a == b).all()

    def test_distinct_paths_differ(self):
        a = stream_rng(42, 1, 2).random(5)
        b = stream_rng(42, 1, 3).random(5)
        c = stream_rng(43, 1, 2).random(5)
        assert not (a == b).all()
        assert not (a == c).all()


class TestHandStream:
    @pytest.mark.parametrize("block", [8, chain_core.HAND_BLOCK])
    def test_takes_match_per_call_draws(self, monkeypatch, block):
        # takes of one shape whose blocks grow to full size, a shape change
        # in mid-block that leaves unread words to lead the next block,
        # one-take blocks (right after a partial block too) and empty takes
        # (the very first one too), with cards for all draws or for the first
        # few only, the rest coming back as uniforms.  Deck 10 at a = 0.3 has
        # straddling table bins, so the fallback runs as well.
        monkeypatch.setattr(chain_core, "HAND_BLOCK", block)
        p = make_bias_profile(5, 0.3)
        assert hand_table(p)[2]
        stream = HandStream(p, stream_rng(8, 60))
        rng = stream_rng(8, 60)
        for m, cards in ((0, 0), (3, 3), (5, 2), (1, 1), (0, 0), (block - 2, block - 3),
                         (7, 3), (2 * block + 5, block), (4, 0), (block, block - 1),
                         (11, 11), (2 * block, 1), (3 * block, 0), (5, 3), (5, 3),
                         (7, 2), (7, 2), (block + 3, block), *[(3, 2)] * 12, (3, 3)):
            coins, hands = stream.take(m, cards)
            want = rng.random(m)
            assert coins.tolist() == want[cards:].tolist()
            assert hands.tolist() == hands_from_uniforms(p, want[:cards]).tolist()

    @pytest.mark.parametrize("m,cards", [(300, 200), (chain_core.HAND_BLOCK + 5, 7)])
    def test_blocks_map_card_draws_and_convert_coin_draws(self, monkeypatch, m, cards):
        # blocks of one shape hold 1, 2, 4, ... takes up to the fewest that
        # fill HAND_BLOCK words, one if a take is longer; each block maps only
        # its takes' card draws and converts only their coin draws, each once
        p = make_bias_profile(8, 0.5)
        table, shift, straddles = hand_table(p)
        assert not straddles
        mapped, converted = [], []

        class Table:
            def __getitem__(self, index):
                mapped.append(index.size)
                return table[index]

        def convert(words):
            converted.append(words.size)
            return uniforms_from_words(words)

        monkeypatch.setattr(chain_core, "hand_table", lambda profile: (Table(), shift, straddles))
        monkeypatch.setattr(chain_core, "uniforms_from_words", convert)
        stream = HandStream(p, stream_rng(8, 61))
        full = -(-chain_core.HAND_BLOCK // m)
        sizes = [min(1 << i, full) for i in range(full.bit_length() + 2)]
        for _ in range(sum(sizes)):
            stream.take(m, cards)
        assert mapped == [takes * cards for takes in sizes]
        assert converted == [takes * (m - cards) for takes in sizes]

    def test_walk_makes_no_uniforms(self, monkeypatch):
        # the walk takes cards only, and a deck with no straddling bin needs
        # no fallback, so no word may become a double
        p = make_bias_profile(8, 0.5)
        assert not hand_table(p)[2]

        def refuse(words):
            raise AssertionError(f"{words.size} words turned into uniforms")

        monkeypatch.setattr(chain_core, "uniforms_from_words", refuse)
        result = bounds.simulate_walks(p, [40], 300, seed=5, touch_threshold=2)
        assert result.touch_steps.min() > 0


# Decks and biases the hand table must serve: the smallest deck, card counts
# that are not powers of two, the largest deck, and biases whose block edges
# are or are not dyadic.
TABLE_DECKS = (2, 6, 100, 1024, 32_766)
TABLE_BIASES = (1.0, 0.5, 0.25, 0.3, 0.77, 1e-3)


def bin_ends(p: BiasProfile, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Cards at the first and last double of each of the 2**bits bins,
    computed without uniforms_from_words or hand_table."""
    first = np.arange(1 << bits) * 2.0 ** -bits
    last = first + (2.0 ** -bits - 2.0 ** -53)
    return hands_from_uniforms(p, first), hands_from_uniforms(p, last)


def straddling_bins(p: BiasProfile, bits: int) -> int:
    lo, hi = bin_ends(p, bits)
    return int(np.count_nonzero(lo != hi))


def exact_table(p: BiasProfile, bits: int) -> tuple[np.ndarray, int, bool]:
    """A hand table of the given width, in hand_table's return form."""
    lo, hi = bin_ends(p, bits)
    table = np.where(lo == hi, lo, -1)
    table.flags.writeable = False
    return table, 64 - bits, bool((table < 0).any())


def widest_table_bits(p: BiasProfile) -> int:
    """bit_length(deck - 1) + 6 clamped to [10, 16]: below the clamp at 16 it
    has at most 1/64 straddling bins, since a card boundary falls in at most
    one bin, so no table may be wider."""
    return min(max((p.deck_size - 1).bit_length() + 6, 10), 16)


def check_hand_table(p: BiasProfile, words: np.ndarray) -> None:
    """The table against the hand law at every bin's ends and on ``words``."""
    table, shift, straddles = hand_table(p)
    bits = 64 - shift
    # the narrowest width from bit_length(deck - 1) + 2 (clamped to [10, 16])
    # whose straddling bins are at most 1/64 of the table, else 16 bits
    start = min(max((p.deck_size - 1).bit_length() + 2, 10), 16)
    assert start <= bits <= widest_table_bits(p)
    assert 64 * straddling_bins(p, bits) <= 1 << bits or bits == 16
    for narrower in range(start, bits):
        assert 64 * straddling_bins(p, narrower) > 1 << narrower
    assert table.shape == (1 << bits,) and table.dtype == np.int64
    assert table.nbytes <= 512 * 1024 and not table.flags.writeable
    assert straddles == bool((table < 0).any())
    lo, hi = bin_ends(p, bits)
    exact = table >= 0
    assert (table[exact] == lo[exact]).all() and (table[exact] == hi[exact]).all()
    assert (lo[~exact] != hi[~exact]).all()
    cards = table[(words >> shift).view(np.int64)]
    hit = cards >= 0
    assert (cards[hit] == hands_from_uniforms(p, uniforms_from_words(words[hit]))).all()


class TestHandTable:
    @pytest.mark.parametrize("a", TABLE_BIASES)
    @pytest.mark.parametrize("deck", TABLE_DECKS)
    def test_table_matches_hand_law(self, deck, a):
        p = make_bias_profile(deck // 2, a)
        check_hand_table(p, stream_rng(deck, 71).bit_generator.random_raw(20_000))

    @settings(max_examples=40, deadline=None)
    @given(n=st.one_of(st.sampled_from([d // 2 for d in TABLE_DECKS]), st.integers(1, 16_383)),
           a=st.one_of(st.sampled_from(TABLE_BIASES), st.floats(1e-3, 1.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_table_matches_hand_law_anywhere(self, n, a, seed):
        check_hand_table(make_bias_profile(n, a),
                         stream_rng(seed, 72).bit_generator.random_raw(2_000))

    @pytest.mark.parametrize("deck, a, bits", [
        (1024, 0.25, 12), (1024, 0.5, 12), (1024, 1.0, 12), (256, 0.5, 10),
        (100, 0.5, 13), (32_766, 0.5, 16)])
    def test_table_widths(self, deck, a, bits):
        # deck 32,766 would start at bit_length + 2 = 17 bits unclamped
        assert hand_table(make_bias_profile(deck // 2, a))[1] == 64 - bits

    @pytest.mark.parametrize("deck, a", [(256, 0.5), (100, 0.5), (10, 0.3)])
    def test_outputs_do_not_depend_on_the_width(self, monkeypatch, deck, a):
        # the walk and the marking engine give the same bytes with the
        # chosen table, the widest the rule allows, and 16 bits; the
        # replacement tables skip hand_table and its cache
        p = make_bias_profile(deck // 2, a)

        def outputs():
            walk = bounds.simulate_walks(p, [deck, 4 * deck], 200, seed=31,
                                         touch_threshold=deck // 20)
            runs = marking.bulk_marking_runs(p, 0.75, 40, seed=32)
            return [x.tobytes() for x in (walk.counts, walk.touch_picks,
                                          runs.decks, runs.t_phase1, runs.t_full)]

        want = outputs()
        for width in (widest_table_bits, lambda p: 16):
            monkeypatch.setattr(chain_core, "hand_table", lambda p: exact_table(p, width(p)))
            assert outputs() == want

    def test_power_of_two_decks_have_no_straddling_bin(self):
        for deck in (2, 4, 8, 16, 256, 1024, 4096):
            for a in (0.25, 0.5, 1.0):
                assert not hand_table(make_bias_profile(deck // 2, a))[2], (deck, a)

    def test_no_table_at_import_and_a_bounded_cache(self):
        code = ("import biased_shuffle.cli, biased_shuffle.chain_core as c; "
                "print(c.hand_table.cache_info().currsize)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0"
        assert hand_table.cache_info().maxsize <= 8


class TestGeneratorWords:
    def test_streams_come_from_pcg64dxsm(self):
        # every seeded digest follows the generator, so a swap fails here by name
        assert isinstance(stream_rng(0, 1).bit_generator, np.random.PCG64DXSM)

    def test_raw_words_make_the_generator_doubles(self):
        # Generator.random makes each double from one raw word as
        # (word >> 11) * 2**-53; call sizes vary on both sides, so a numpy
        # release that changed the conversion or the word buffering shows here
        words, doubles = stream_rng(3, 73), stream_rng(3, 73)
        for m in (1, 2, 3, 7, 0, 1000, 4, 32_768, 5, 65_537, 1):
            u = uniforms_from_words(words.bit_generator.random_raw(m))
            assert u.dtype == np.float64
            assert u.tobytes() == doubles.random(m).tobytes()
