"""Two-phase marking: probabilities, assignment, engines, exact-law oracles."""
import itertools
import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import _helpers
from _helpers import (
    A_UP,
    B_UP,
    MOVE,
    STAY,
    MarkingCensus,
    MarkingState,
    factorization_check,
    phase1_path_distribution,
    phase1_step,
    phase2_step,
    run_to_full_marking,
)
from _reference import build_assignment, full_scheme_dp, probability
from biased_shuffle import marking
from biased_shuffle.chain_core import (CapacityError, make_bias_profile, stream_rng,
                                       STREAM_MARKING)
from biased_shuffle.exact_analysis import encode_many
from biased_shuffle.marking import (
    _chisquare,
    assigned_card,
    bulk_marking_runs,
    expected_full_marking_time,
    expected_phase1_time,
    gap_correlation_report,
    mark_threshold,
    mixed_rule,
    pair_rule,
    phase1_marking_rate,
    phase1_rule,
    uniformity_test,
)
from biased_shuffle.type_chain import transition_row

H4 = make_bias_profile(2, 0.5)
U4 = make_bias_profile(2, 1.0)


def phase1_p(profile, r, l):
    w = profile.weights()
    return probability(phase1_rule(profile.a, w[r], w[l]))


def mixed_p(profile, other_card):
    return probability(mixed_rule(profile.a, profile.weights()[other_card]))


def pair_p(profile, u, r, l):
    w = profile.weights()
    return probability(pair_rule(profile.a, w[u], w[r], w[l]))


class TestProbabilityHelpers:
    def test_thresholds(self):
        assert mark_threshold(4, 0.6) == 3
        assert mark_threshold(4, 0.75) == 3
        assert mark_threshold(6, 0.75) == 5
        assert mark_threshold(8, 0.75) == 6
        assert mark_threshold(1024, 0.75) == 768
        for bad in (0.5, 1.0, 0.2):
            with pytest.raises(ValueError):
                mark_threshold(4, bad)

    def test_phase1_acceptance(self):
        # weights at a = 1/2 are 1/2 for type A and 3/2 for type B
        assert phase1_p(H4, 0, 1) == pytest.approx(1.0)
        assert phase1_p(H4, 0, 2) == pytest.approx(1 / 3)
        assert phase1_p(H4, 3, 2) == pytest.approx(1 / 9)
        assert phase1_p(U4, 1, 3) == pytest.approx(1.0)

    def test_phase2_acceptance(self):
        # a solo draw on u takes the mixed coin with the other hand on u too
        assert mixed_p(H4, 1) == pytest.approx(1.0)
        assert mixed_p(H4, 2) == pytest.approx(1 / 3)
        assert mixed_p(H4, 0) == pytest.approx(1.0)
        assert mixed_p(H4, 3) == pytest.approx(1 / 3)
        # u of weight w(u) inherits w(u)/w(r)w(l) scaled by a
        assert pair_p(H4, 0, 1, 2) == pytest.approx(1 / 3)
        assert pair_p(H4, 2, 3, 0) == pytest.approx(1.0)
        assert pair_p(H4, 2, 3, 2) == pytest.approx(1 / 3)

    def test_acceptances_never_exceed_one(self):
        # pair probabilities only arise with r of u's own type, where they
        # collapse to a / w(l) and stay inside (0, 1]
        for profile in (H4, U4, make_bias_profile(3, 0.25)):
            deck, n = profile.deck_size, profile.n
            for r in range(deck):
                for l in range(deck):
                    assert 0 < phase1_p(profile, r, l) <= 1
                    for u in range(deck):
                        if (u < n) != (r < n) or l == r:
                            continue
                        p = pair_p(profile, u, r, l)
                        assert 0 < p <= 1 + 1e-12
                        assert p == pytest.approx(
                            profile.a / profile.weights()[l], abs=1e-15)

    def test_phase1_rate(self):
        assert phase1_marking_rate(H4, 0) == pytest.approx(0.25)
        assert phase1_marking_rate(H4, 2) == pytest.approx(1 / 16)
        assert phase1_marking_rate(U4, 0) == pytest.approx(1.0)
        assert phase1_marking_rate(H4, 4) == 0.0
        with pytest.raises(ValueError):
            phase1_marking_rate(H4, 5)


class TestAssignment:
    def test_small_example(self):
        # deck of 4, cards 1 (type A) and 2, 3 (type B) marked
        asg = build_assignment(2, [False, True, True, True])
        assert asg.pairs == {0: (1, 2)}
        asg = build_assignment(2, [True, True, True, False])
        assert asg.pairs == {3: (2, 0)}

    def test_two_unmarked_same_type(self):
        asg = build_assignment(3, [True, False, False, True, True, True])
        assert asg.pairs[1] == (0, 3)
        assert asg.pairs[2] == (0, 4)
        assert asg.by_pair == {(0, 3): 1, (0, 4): 2}

    def test_validation(self):
        with pytest.raises(ValueError):
            build_assignment(2, [True, True, True])
        with pytest.raises(ValueError):
            # no marked card of the unmarked card's type
            build_assignment(2, [False, False, True, True])

    @given(st.integers(2, 8), st.data())
    @settings(max_examples=200, deadline=None)
    def test_structure_and_bulk_equivalence(self, n, data):
        deck = 2 * n
        k = data.draw(st.integers(n + 1, deck - 1))
        marked_set = data.draw(st.permutations(list(range(deck))).map(
            lambda p: frozenset(p[:k])))
        flags = [c in marked_set for c in range(deck)]
        asg = build_assignment(n, flags)
        seen = set()
        for u, (r, l) in asg.pairs.items():
            assert not flags[u] and flags[r] and flags[l] and r != l
            assert (r < n) == (u < n)
            assert (r, l) not in seen
            seen.add((r, l))
        assert set(asg.pairs) == {c for c in range(deck) if not flags[c]}

        pairs = [(r, l) for r in marked_set for l in marked_set if r != l]
        right, left = np.array(pairs).T
        got = assigned_card(np.tile(flags, (len(pairs), 1)), n, right, left)
        by_pair = asg.by_pair
        assert got.tolist() == [by_pair.get(pair, -1) for pair in pairs]

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rank_bound_skips_only_misses(self, n, data):
        # bulk_marking_runs looks up a pair (R, L) of distinct marked cards
        # only when L <= 2 (deck - k), R's index within its type is at most
        # deck - k and no mark of R's type lies below R; every pair failing
        # one of those tests must miss
        deck = 2 * n
        k = data.draw(st.integers(n + 1, deck))
        marked_set = data.draw(st.permutations(range(deck)).map(lambda p: p[:k]))
        flags = np.zeros(deck, dtype=bool)
        flags[list(marked_set)] = True
        room = deck - k
        pairs = [(r, l) for r in marked_set for l in marked_set if l != r and (
            l > 2 * room or r % n > room or flags[r - r % n:r].any())]
        if pairs:
            right, left = np.array(pairs).T
            got = assigned_card(np.tile(flags, (len(pairs), 1)), n, right, left)
            assert (got == -1).all()

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_closed_form_matches_greedy_exhaustively(self, n):
        # every marked set with n < k < N, every ordered pair of distinct
        # marked cards, through the one-run and the batched call
        deck = 2 * n
        rows, right, left, want = [], [], [], []
        for k in range(n + 1, deck):
            for marked_set in itertools.combinations(range(deck), k):
                flags = [c in marked_set for c in range(deck)]
                by_pair = build_assignment(n, flags).by_pair
                for r, l in itertools.permutations(marked_set, 2):
                    expected = by_pair.get((r, l), -1)
                    assert assigned_card(flags, n, r, l) == expected
                    rows.append(flags)
                    right.append(r)
                    left.append(l)
                    want.append(expected)
        got = assigned_card(np.array(rows), n, np.array(right), np.array(left))
        assert got.tolist() == want
        assert sum(u >= 0 for u in want) == sum(
            math.comb(deck, k) * (deck - k) for k in range(n + 1, deck))
        # both bounds of bulk_marking_runs' lookup filter are tight: hits sit
        # at R's index = deck - k and at L = 2 (deck - k), 40 and 42 of them
        # over decks 4 to 10
        rows, right, left, want = map(np.array, (rows, right, left, want))
        room = deck - rows.sum(axis=1)
        at_r = np.count_nonzero((want >= 0) & (right % n == room))
        at_l = np.count_nonzero((want >= 0) & (left == 2 * room))
        assert (at_r, at_l) == {2: (2, 2), 3: (6, 5), 4: (12, 12), 5: (20, 23)}[n]


class TestScalarEngine:
    @pytest.mark.parametrize("n,a,c1,seed", [(2, 0.5, 0.6, 0), (2, 1.0, 0.75, 1),
                                             (3, 0.5, 0.75, 2), (4, 0.25, 0.8, 3),
                                             (5, 1.0, 0.6, 4)])
    def test_factorization_along_trajectory(self, n, a, c1, seed):
        profile = make_bias_profile(n, a)
        rng = stream_rng(991, STREAM_MARKING, seed)
        rec = run_to_full_marking(profile, c1, rng)
        assert rec.t_phase1 <= rec.t_full
        assert rec.mark_times[0] == 0
        assert all(x <= y for x, y in zip(rec.mark_times, rec.mark_times[1:]))
        assert rec.mark_times[-1] == rec.t_full
        assert sorted(rec.deck.card_at) == list(range(2 * n))

    def test_explicit_stepping_keeps_invariant(self):
        rng = stream_rng(17, STREAM_MARKING, 100)
        ms = MarkingState(H4, 0.6)
        while not ms.done:
            right, left = ms.apply_walk_move(rng)
            (phase2_step if ms.phase2 else phase1_step)(ms, right, left, rng)
            assert factorization_check(ms) == 0
            assert ms.ka == sum(ms.marked[:2]) and ms.kb == sum(ms.marked[2:])
        assert all(ms.marked)

    def test_recorded_transitions_are_legal(self):
        profile = make_bias_profile(3, 0.5)
        rng = stream_rng(5, STREAM_MARKING, 200)
        rec = run_to_full_marking(profile, 0.75, rng, record_transitions=True)
        assert rec.transitions, "phase two must contain at least one step"
        legal = {(0, 0), (0, 1), (1, 0), (1, -1)}
        for (ka0, kb0), (ka1, kb1) in rec.transitions:
            assert (ka1 - ka0, kb1 - kb0) in legal
        assert rec.transitions[-1][1] == (3, 3)

    def test_always_mark_still_factorizes(self):
        rng = stream_rng(9, STREAM_MARKING, 300)
        rec = run_to_full_marking(H4, 0.6, rng, always_mark=True)
        assert rec.t_full >= 4 - 1  # marking needs at least one step per card

    def test_step_cap(self, monkeypatch):
        monkeypatch.setattr(_helpers, "default_step_cap", lambda deck: 2)
        rng = stream_rng(1, STREAM_MARKING, 400)
        with pytest.raises(RuntimeError):
            run_to_full_marking(H4, 0.6, rng)


@pytest.fixture(scope="module")
def biased_dp():
    """The deck-4 exact law at a = 0.5, c1 = 0.6, computed once for the module."""
    return full_scheme_dp(0.5, 0.6)


class TestExactLawOracles:
    """Frozen values from an independent dynamic program over (deck, marked).

    The unbiased scheme lands exactly on the uniform law.  Under bias the
    final-deck law carries a small but real systematic deviation; the window
    below pins its magnitude so neither engine drift nor a silent fix of the
    scheme goes unnoticed.
    """

    def test_unbiased_scheme_is_exactly_uniform(self):
        dp = full_scheme_dp(1.0, 0.6)
        assert len(dp) == 24
        assert sum(dp.values()) == pytest.approx(1.0, abs=1e-9)
        assert max(abs(p - 1 / 24) for p in dp.values()) < 1e-10

    def test_biased_scheme_deviation_window(self, biased_dp):
        assert sum(biased_dp.values()) == pytest.approx(1.0, abs=1e-9)
        dev = max(abs(p - 1 / 24) for p in biased_dp.values())
        assert 5e-5 < dev < 3e-4

    def test_bulk_engine_matches_exact_law(self, biased_dp):
        probs = np.zeros(24)
        for perm, p in biased_dp.items():
            probs[encode_many(np.array([perm]))[0]] = p
        probs /= probs.sum()
        res = bulk_marking_runs(H4, 0.6, 50_000, seed=101)
        counts = np.bincount(encode_many(res.decks), minlength=24)
        gof = stats.chisquare(counts, f_exp=probs * counts.sum())
        assert gof.pvalue > 1e-3


def _k2_paths(a):
    dist = phase1_path_distribution(a, 3)
    return {key: m for key, m in dist.items() if key[4] == 2}


def _max_tv(cond_tables, support):
    worst = 0.0
    for sub in cond_tables.values():
        z = sum(sub.values())
        tv = 0.5 * sum(abs(sub.get(s, 0.0) / z - 1 / len(support)) for s in support)
        worst = max(worst, tv)
    return worst


class TestPhase1PathLaw:
    """Exact enumeration of three phase-one steps through the scalar engine."""

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_factorization_on_every_path(self, a):
        dist = phase1_path_distribution(a, 3)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        for deck, mk, phi, psi, k in dist:
            assert all(deck[psi[i]] == phi[i] for i in range(4))
            assert len(mk) == k

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_marked_slot_values_are_uniform(self, a):
        k2 = _k2_paths(a)
        z = sum(k2.values())
        marginal = defaultdict(float)
        for (deck, mk, phi, psi, k), m in k2.items():
            marginal[phi[:2]] += m / z
        assert len(marginal) == 12
        assert max(abs(p - 1 / 12) for p in marginal.values()) < 1e-12

    def test_slot_value_independence_holds_only_unbiased(self):
        support = {phi[:2] for (deck, mk, phi, psi, k) in _k2_paths(1.0)}
        for a, lo, hi in ((1.0, 0.0, 1e-12), (0.5, 0.01, 0.08)):
            joint = defaultdict(lambda: defaultdict(float))
            for (deck, mk, phi, psi, k), m in _k2_paths(a).items():
                joint[psi[:2]][phi[:2]] += m
            dev = _max_tv(joint, support)
            assert lo <= dev <= hi

    def test_conditional_arrangement_holds_only_unbiased(self):
        for a, lo, hi in ((1.0, 0.0, 1e-12), (0.5, 0.02, 0.08)):
            classes = defaultdict(lambda: defaultdict(float))
            arrangements = set()
            for (deck, mk, phi, psi, k), m in _k2_paths(a).items():
                pos = {c: deck.index(c) for c in mk}
                arr = tuple(sorted(mk, key=lambda c: pos[c]))
                classes[(mk, tuple(sorted(pos.values())))][arr] += m
                arrangements.add(tuple(sorted(arr)))
            dev = max(
                _max_tv({cl: sub}, {arr, arr[::-1]})
                for cl, sub in classes.items() for arr in [next(iter(sub))])
            assert lo <= dev <= hi


def oracle_step(profile, c1, mask, right, left, coin):
    """One scalar-oracle step on the draw (right, left) from the marked set
    ``mask``: the next mask and the acceptance rules the oracle asked for."""
    deck = profile.deck_size
    ms = MarkingState(profile, c1)
    ms.marked = [bool(mask >> c & 1) for c in range(deck)]
    ms.k = sum(ms.marked)
    ms.ka = sum(ms.marked[:profile.n])
    # the marked cards first in phi; the deck starts as the identity, so psi = phi
    ms.phi = sorted(range(deck), key=lambda c: not ms.marked[c])
    ms.psi = list(ms.phi)
    ms.phi_inv = [ms.phi.index(c) for c in range(deck)]
    rules = []
    accept = ms._accept
    ms._accept = lambda rule, rng: rules.append(rule) or accept(rule, rng)
    ms.deck.swap_cards(right, left)
    step = phase2_step if ms.phase2 else phase1_step
    step(ms, right, left, _helpers._FixedCoin(coin))
    assert factorization_check(ms) == 0
    return sum(1 << c for c in range(deck) if ms.marked[c]), rules


@pytest.fixture
def tables_to_deck12(monkeypatch):
    """Let :func:`marking.step_table` build decks up to 12, past its cap of 8,
    and drop the cached tables afterwards (28 MB at deck 12)."""
    monkeypatch.setattr(marking, "STEP_TABLE_MAX_DECK", 12)
    yield
    marking._build_step_table.cache_clear()


class TestStepTable:
    """The precomputed step against the scalar oracle, row by row."""

    @staticmethod
    def check_rows(profile, c1, keys):
        deck = profile.deck_size
        num, den, moves, k, ka = marking.step_table(profile, mark_threshold(deck, c1))
        assert num.size == 2**deck * deck**2
        for key in keys:
            mask, right, left = key // deck**2, key // deck % deck, key % deck
            assert k[key] == bin(mask).count("1")
            assert ka[key] == bin(mask % 2**profile.n).count("1")
            # a coin of 1.0 rejects even the rules of probability one
            for coin in (0.0, 1 - 1e-12, 1.0):
                got, rules = oracle_step(profile, c1, mask, right, left, coin)
                assert moves[key, int(coin * den[key] < num[key])] == got * deck**2
            if rules:
                assert [(num[key], den[key])] == rules
            else:
                assert num[key] == 0.0

    @pytest.mark.parametrize("c1", [0.6, 0.9])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_row_matches_the_scalar_oracle(self, n, a, c1):
        profile = make_bias_profile(n, a)
        self.check_rows(profile, c1, range(2**(2 * n) * (2 * n)**2))

    @pytest.mark.parametrize("a,c1", [(0.25, 0.75), (0.5, 0.6), (1.0, 0.9)])
    def test_sampled_deck8_rows_match_the_scalar_oracle(self, a, c1):
        keys = stream_rng(8, 75).integers(0, 2**8 * 8**2, 1_500)
        self.check_rows(make_bias_profile(4, a), c1, keys.tolist())

    @pytest.mark.parametrize("a,c1", [(0.25, 0.75), (0.5, 0.6), (1.0, 0.9)])
    @pytest.mark.parametrize("n", [5, 6])
    def test_sampled_rows_past_the_cap_match_the_scalar_oracle(self, tables_to_deck12,
                                                               n, a, c1):
        deck = 2 * n
        keys = stream_rng(deck, 75).integers(0, 2**deck * deck**2, 1_500)
        self.check_rows(make_bias_profile(n, a), c1, keys.tolist())

    def test_refuses_decks_past_the_cap(self):
        with pytest.raises(ValueError, match="step table cap"):
            marking.step_table(make_bias_profile(5, 0.5), 6)

    def test_a_table_built_past_the_cap_is_not_served_once_the_cap_is_back(
            self, monkeypatch, tables_to_deck12):
        profile = make_bias_profile(5, 0.5)
        marking.step_table(profile, 6)
        monkeypatch.undo()  # the cap is back at 8, the deck-10 table still cached
        with pytest.raises(ValueError, match="step table cap"):
            marking.step_table(profile, 6)


def assert_same_runs(got, want):
    """Two BulkMarkingResults agree in every field, dtypes included."""
    for field in ("decks", "t_phase1", "t_full", "mark_times"):
        one, two = getattr(got, field), getattr(want, field)
        assert (one is None) == (two is None)
        if one is not None:
            assert one.dtype == two.dtype and np.array_equal(one, two)


def scripted_marking(monkeypatch, script):
    """One deck-4, a = 0.5 run whose draws follow ``script``.

    ``script`` holds one (right, left, coin) draw per step, handed out in
    the order the engine reads them: pass one's steps, then pass two's.  A
    step past the end of the script raises, so the run must finish fully
    marked at the script's last draw.
    """
    steps = iter(script)

    class ScriptedStream:
        def __init__(self, profile, rng):
            pass

        def take(self, m, cards):
            right, left, coin = next(steps)
            assert (m, cards) == (3, 2)
            return np.array([coin]), np.array([right, left], dtype=np.int64)

    monkeypatch.setattr(marking, "HandStream", ScriptedStream)
    return bulk_marking_runs(H4, 0.6, 1, seed=0, record_mark_times=True)


class TestScriptedMarking:
    """A hand-worked trajectory at deck 4, a = 0.5, c1 = 0.6 (threshold 3).

    Cards 0 and 1 are type A (weight 1/2), 2 and 3 type B (weight 3/2).  A
    draw accepts when coin * den < num.  pos_of, the position of each card,
    starts at [0, 1, 2, 3], and every draw swaps the positions of R and L.

    Pass one, rule a^2 / (w_R w_L) on both-unmarked draws only:
      1. (0, 1, 0.5): 1 / 1, so 0 is marked at t = 1; pos_of [1, 0, 2, 3].
      2. (3, 3, 0.1): R = L, 1/9 against 0.1 * 9/4 < 1/4, so 3 is marked at
         t = 2; no swap.
      3. (0, 2, 0.0): one hand marked, so only the swap; pos_of [2, 0, 1, 3].
      4. (2, 1, 0.3): 1/3 against 0.3 * 3/4 < 1/4, so 2 is marked at t = 4,
         the threshold: t_phase1 = 4, marked {0, 2, 3}; pos_of [2, 1, 0, 3].
    Pass two, t = 4 + s, rule a / w(marked hand) on mixed draws:
      5. (1, 2, 0.5): marked hand L = 2, 1/3, rejected (0.5 * 3/2 >= 1/2), so
         the mark moves from 2 to 1: marked {0, 1, 3}; pos_of [2, 0, 1, 3].
      6. (3, 2, 0.9): marked hand R = 3, 1/3, rejected, so the mark moves from
         3 to 2: marked {0, 1, 2}; pos_of [2, 0, 3, 1].
      7. (3, 3, 0.2): R = L on the unmarked 3, a / w(3) = 1/3 against
         0.2 * 3/2 < 1/2, so 3 is marked at t = 7 = t_full.
    The deck is the inverse of pos_of: [1, 3, 0, 2].  A move that unmarked
    its gained card instead of its source would leave 1 unmarked after step
    5, and step 7 would not finish the run.
    """

    SCRIPT = [(0, 1, 0.5), (3, 3, 0.1), (0, 2, 0.0), (2, 1, 0.3),
              (1, 2, 0.5), (3, 2, 0.9), (3, 3, 0.2)]

    @pytest.mark.parametrize("table_cap", [marking.STEP_TABLE_MAX_DECK, 0],
                             ids=["table", "inline"])
    def test_hand_worked_trajectory(self, monkeypatch, table_cap):
        monkeypatch.setattr(marking, "STEP_TABLE_MAX_DECK", table_cap)
        res = scripted_marking(monkeypatch, self.SCRIPT)
        assert res.decks.tolist() == [[1, 3, 0, 2]]
        assert res.t_phase1.tolist() == [4]
        assert res.t_full.tolist() == [7]
        assert res.mark_times.tolist() == [[0, 1, 2, 4, 7]]


class TestBulkEngine:
    def test_deterministic_per_seed(self):
        one = bulk_marking_runs(H4, 0.6, 300, seed=12, record_mark_times=True)
        two = bulk_marking_runs(H4, 0.6, 300, seed=12, record_mark_times=True)
        assert (one.decks == two.decks).all()
        assert (one.t_full == two.t_full).all()
        assert (one.mark_times == two.mark_times).all()
        other = bulk_marking_runs(H4, 0.6, 300, seed=13)
        assert (one.decks != other.decks).any()

    def test_outputs_are_valid(self):
        res = bulk_marking_runs(H4, 0.75, 2_000, seed=21, record_mark_times=True)
        assert (np.sort(res.decks, axis=1) == np.arange(4)).all()
        assert (res.t_phase1 <= res.t_full).all()
        assert (res.mark_times[:, 0] == 0).all()
        assert (np.diff(res.mark_times, axis=1) >= 0).all()
        assert (res.mark_times[:, 3] == res.t_phase1).all()
        assert (res.mark_times[:, 4] == res.t_full).all()

    def test_outputs_are_valid_on_the_inline_step(self):
        res = bulk_marking_runs(make_bias_profile(10, 0.25), 0.75, 500, seed=22,
                                record_mark_times=True)
        threshold = mark_threshold(20, 0.75)
        assert (np.sort(res.decks, axis=1) == np.arange(20)).all()
        assert (np.diff(res.mark_times, axis=1) > 0).all()
        assert (res.mark_times[:, threshold] == res.t_phase1).all()
        assert (res.mark_times[:, 20] == res.t_full).all()

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bulk_marking_runs(H4, 0.6, 0, seed=1)

    @pytest.mark.parametrize("table_cap", [marking.STEP_TABLE_MAX_DECK, 0],
                             ids=["step-table", "inline-step"])
    def test_byte_budget_admits_the_least_deck8_uniformity_run(self, monkeypatch, table_cap):
        # 100 * 8! runs, the least that the uniformity test takes at deck 8,
        # pass the budget and reach the stream in either step form; 10**8
        # runs are refused before the stream is made
        class Admitted(Exception):
            pass

        def admit(profile, rng):
            raise Admitted

        monkeypatch.setattr(marking, "STEP_TABLE_MAX_DECK", table_cap)
        monkeypatch.setattr(marking, "HandStream", admit)
        profile = make_bias_profile(4, 0.5)
        with pytest.raises(Admitted):
            bulk_marking_runs(profile, 0.75, 100 * math.factorial(8), seed=0)
        with pytest.raises(CapacityError, match="budget"):
            bulk_marking_runs(profile, 0.75, 10**8, seed=0)

    def test_matches_scalar_engine_distribution(self):
        # same model through two very different code paths
        bulk = bulk_marking_runs(H4, 0.6, 4_000, seed=31)
        scalar = np.array([
            run_to_full_marking(H4, 0.6, stream_rng(71, STREAM_MARKING, i)).t_full
            for i in range(1_500)])
        ks = stats.ks_2samp(bulk.t_full, scalar)
        assert ks.pvalue > 1e-3

    def test_phase1_hazard_matches_rate(self):
        profile = make_bias_profile(3, 0.5)
        census = MarkingCensus(n=3)
        bulk_marking_runs(profile, 0.75, 20_000, seed=33, census=census)
        for k in range(5):
            steps = marks = 0
            for ka in range(4):
                kb = k - ka
                if 0 <= kb <= 3:
                    cell = census.cell(ka, kb)
                    steps += census.phase1_steps[cell]
                    marks += census.phase1_marks[cell]
            rate = phase1_marking_rate(profile, k)
            sigma = math.sqrt(rate * (1 - rate) / steps)
            assert abs(marks / steps - rate) < 4 * sigma

    def test_phase2_census_matches_type_chain_rows(self):
        census = MarkingCensus(n=3)
        bulk_marking_runs(make_bias_profile(3, 0.5), 0.75, 20_000, seed=33,
                          census=census)
        for ka, kb in ((2, 3), (3, 2)):
            counts = census.phase2_counts[census.cell(ka, kb)]
            total = counts.sum()
            assert total > 50_000
            row = transition_row(3, 0.5, ka, kb)
            for kind, p in zip((B_UP, A_UP, MOVE, STAY), row):
                if p == 0.0:
                    assert counts[kind] == 0
                else:
                    sigma = math.sqrt(p * (1 - p) / total)
                    assert abs(counts[kind] / total - p) < 4 * sigma

    @pytest.mark.parametrize("n,a,c1,trials,seed,kwargs", [
        (32, 0.5, 0.8, 200, 14, {}),
        (10, 0.25, 0.75, 300, 12, dict(record_mark_times=True)),
        (2, 0.5, 0.6, 3_000, 11, {}),
        (5, 0.5, 0.6, 400, 13, dict(always_mark=True)),
        (16, 0.25, 0.6, 500, 4246, {}),
    ])
    def test_census_is_a_pure_observer(self, n, a, c1, trials, seed, kwargs):
        profile = make_bias_profile(n, a)
        census = MarkingCensus(n=n)
        watched = bulk_marking_runs(profile, c1, trials, seed, census=census, **kwargs)
        plain = bulk_marking_runs(profile, c1, trials, seed, **kwargs)
        assert_same_runs(watched, plain)
        # every run's steps are seen once, in phase one up to t_phase1 and in
        # phase two from there to t_full
        assert census.phase1_steps.sum() == watched.t_phase1.sum() > 0
        assert census.phase2_counts.sum() == (watched.t_full - watched.t_phase1).sum()
        assert census.phase1_marks.sum() == trials * mark_threshold(2 * n, c1)

    @pytest.mark.parametrize("always_mark", [False, True])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_step_table_and_inline_step_agree(self, monkeypatch, tables_to_deck12,
                                              n, a, always_mark):
        # decks up to STEP_TABLE_MAX_DECK, raised here to 12, read the step
        # table; a cap of 0 sends them through the inline step, which must
        # give the same bytes
        profile = make_bias_profile(n, a)
        runs, censuses = [], []
        for cap in (marking.STEP_TABLE_MAX_DECK, 0):
            monkeypatch.setattr(marking, "STEP_TABLE_MAX_DECK", cap)
            censuses.append(MarkingCensus(n=n))
            runs.append(bulk_marking_runs(profile, 0.6, 300, 40 + n, census=censuses[-1],
                                          always_mark=always_mark,
                                          record_mark_times=True))
        assert_same_runs(*runs)
        for field in ("phase1_steps", "phase1_marks", "phase2_counts"):
            assert np.array_equal(getattr(censuses[0], field), getattr(censuses[1], field))

    def test_no_mark_moves_without_bias(self):
        census = MarkingCensus(n=3)
        bulk_marking_runs(make_bias_profile(3, 1.0), 0.75, 5_000, seed=33,
                          census=census)
        assert census.phase2_counts[:, MOVE].sum() == 0
        assert census.phase2_counts[:, B_UP].sum() > 0


class TestUniformity:
    def test_green_for_both_bias_levels(self):
        for profile in (U4, H4):
            report = uniformity_test(profile, 0.6, 5_000, seed=7)
            assert report["cells"] == 24 and report["dof"] == 23
            assert report["p_value"] > 1e-3
            assert report["mean_t_full"] > report["mean_t_phase1"]

    def test_negative_control_is_rejected(self):
        report = uniformity_test(H4, 0.6, 50_000, seed=7, always_mark=True)
        assert report["p_value"] < 1e-6

    def test_requires_enough_trials(self):
        with pytest.raises(ValueError):
            uniformity_test(H4, 0.6, 2_399, seed=7)

    def test_chisquare_matches_scipy_stats_bit_for_bit(self):
        rng = np.random.default_rng(2024)
        vectors = [np.bincount(rng.integers(0, 24, 5_000), minlength=24),
                   np.array([2, 0]), np.array([7, 7, 7, 7, 7, 7])]
        for cells in (2, 6, 24, 120, 720):
            for scale in (1, 40, 10_000):
                vectors.append(rng.poisson(scale * rng.uniform(0.8, 1.2, cells)))
        for counts in vectors:
            ref = stats.chisquare(counts)
            assert _chisquare(counts) == (float(ref.statistic), float(ref.pvalue))


class TestExpectedTimes:
    def test_exact_values(self):
        assert expected_phase1_time(H4, 0.75) == pytest.approx(244 / 9, abs=1e-9)
        assert expected_full_marking_time(H4, 0.75) == pytest.approx(
            280 / 9, abs=1e-9)
        assert expected_phase1_time(U4, 0.6) == pytest.approx(
            1 + 16 / 9 + 4, abs=1e-9)

    def test_bulk_means_agree(self):
        res = bulk_marking_runs(H4, 0.75, 50_000, seed=55)
        for values, exact in ((res.t_phase1, expected_phase1_time(H4, 0.75)),
                              (res.t_full, expected_full_marking_time(H4, 0.75))):
            sem = values.std(ddof=1) / math.sqrt(values.size)
            assert abs(values.mean() - exact) < 4 * sem

    def test_gap_correlation_report_shape(self):
        # deck 4 at c1 = 0.6 has one phase-two gap and no pair to correlate
        with pytest.raises(ValueError, match="at least two phase-two gaps"):
            gap_correlation_report(H4, 0.6, 2_000, seed=77)
        report = gap_correlation_report(make_bias_profile(4, 0.5), 0.6, 2_000,
                                        seed=77)
        assert report["gap_count"] == 3
        assert -1.0 <= report["min_correlation"] <= report["max_correlation"] <= 1.0
        assert 0.0 <= report["fraction_negative"] <= 1.0
