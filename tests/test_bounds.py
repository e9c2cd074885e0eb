"""Fixed-point observable: uniform law, coupon touch times, TV lower bounds."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import evolve, lehmer_operator
from _reference import (
    coupon_variance_bound,
    derangement_count,
    rate_mark_a_floor,
    sample_touch_picks,
    state_mass_at_least,
    uniform_fixed_mass_enumerated,
    walk_replay,
)
from biased_shuffle import bounds, type_chain
from biased_shuffle import exact_analysis as ea
from biased_shuffle.bounds import (
    coupon_expectation,
    lower_bound_sweep,
    simulate_walks,
    suggested_threshold,
    uniform_fixed_mass,
    uniform_fixed_pmf,
)
from biased_shuffle.chain_core import make_bias_profile


class TestUniformLaw:
    def test_derangement_values(self):
        assert [derangement_count(m) for m in range(7)] == [1, 0, 1, 2, 9, 44, 265]
        with pytest.raises(ValueError):
            derangement_count(-1)

    def test_derangements_by_enumeration(self):
        import itertools
        for m in range(8):
            brute = sum(1 for p in itertools.permutations(range(m))
                        if all(p[i] != i for i in range(m)))
            assert derangement_count(m) == brute

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mass_matches_enumeration(self, n):
        for threshold in range(0, n + 2):
            assert uniform_fixed_mass(n, threshold) == pytest.approx(
                uniform_fixed_mass_enumerated(n, threshold), abs=1e-12)

    def test_known_fraction(self):
        # a deck of four: chance at least one of the two low cards is home
        assert uniform_fixed_mass(2, 1) == pytest.approx(5 / 12, abs=1e-14)
        assert uniform_fixed_mass(2, 2) == pytest.approx(1 / 12, abs=1e-14)

    def test_edges(self):
        assert uniform_fixed_mass(5, 0) == 1.0
        assert uniform_fixed_mass(5, -3) == 1.0
        assert uniform_fixed_mass(5, 6) == 0.0
        with pytest.raises(ValueError):
            uniform_fixed_pmf(0)

    @given(st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_pmf_is_distribution(self, n):
        pmf = uniform_fixed_pmf(n)
        assert pmf.size == n + 1
        assert (pmf >= 0).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_large_n_stability_and_decay(self):
        masses = [uniform_fixed_mass(n, suggested_threshold(n))
                  for n in (2, 4, 8, 32, 128, 512, 1024)]
        assert all(np.isfinite(masses))
        assert all(x > y for x, y in zip(masses, masses[1:]))
        assert masses[-1] < 1e-70

    def test_pmf_mean_is_expected_fixed_points(self):
        # each of the n cards is home with chance 1/2n
        for n in (2, 5, 17):
            pmf = uniform_fixed_pmf(n)
            mean = float((np.arange(n + 1) * pmf).sum())
            assert mean == pytest.approx(0.5, abs=1e-10)


class TestCoupon:
    def test_expectation_values(self):
        assert coupon_expectation(2, 1, 1.0) == pytest.approx(2.0)
        assert coupon_expectation(6, 2, 0.5) == pytest.approx(22.8)
        harm = sum(1.0 / j for j in range(9, 65))
        assert coupon_expectation(64, 8, 0.5) == pytest.approx(256 * harm)
        assert coupon_expectation(5, 5, 0.5) == 0.0

    def test_expectation_validation(self):
        with pytest.raises(ValueError):
            coupon_expectation(4, 5, 0.5)
        with pytest.raises(ValueError):
            coupon_expectation(4, -1, 0.5)
        with pytest.raises(ValueError):
            coupon_expectation(4, 1, 0.0)

    def test_variance_bound_dominates_samples(self):
        picks = sample_touch_picks(6, 0.5, 2, 20_000, seed=8)
        assert picks.var(ddof=1) < coupon_variance_bound(6, 0.5)

    def test_marginal_sampler_matches_expectation(self):
        picks = sample_touch_picks(6, 0.5, 2, 20_000, seed=8)
        exp = coupon_expectation(6, 2, 0.5)
        sem = picks.std(ddof=1) / math.sqrt(picks.size)
        assert abs(picks.mean() - exp) < 4 * sem

    def test_walker_touch_times_match_expectation(self):
        result = simulate_walks(make_bias_profile(6, 0.5), [1], 20_000, seed=8,
                                touch_threshold=2)
        exp = coupon_expectation(6, 2, 0.5)
        sem = result.touch_picks.std(ddof=1) / math.sqrt(result.touch_picks.size)
        assert abs(result.touch_picks.mean() - exp) < 4 * sem

    def test_step_is_half_the_picks_rounded_up(self):
        result = simulate_walks(make_bias_profile(4, 0.5), [1], 4_000, seed=14,
                                touch_threshold=1)
        assert (result.touch_picks >= 1).all()
        assert (result.touch_steps == np.ceil(result.touch_picks / 2)).all()

    def test_touch_cap_raises(self, monkeypatch):
        # with no slack the cap is 100 steps, far below the ~520 that
        # deck 64 at a = 0.25 needs to touch every type-A card
        monkeypatch.setattr(bounds, "coupon_expectation", lambda *args: 0.0)
        with pytest.raises(RuntimeError, match="touch tracking still open after 100 steps"):
            simulate_walks(make_bias_profile(32, 0.25), [1], 50, seed=3, touch_threshold=0)

    def test_trivial_threshold_touches_immediately(self):
        result = simulate_walks(make_bias_profile(3, 1.0), [2], 500, seed=14,
                                touch_threshold=3)
        assert (result.touch_picks == 0).all()
        assert (result.touch_steps == 0).all()


def scripted_touches(monkeypatch, n: int, threshold: int, script):
    """Touch picks and steps of runs whose hands follow ``script``.

    ``script`` holds one list per step with a (right, left) pair of cards
    for each run; the stream hands them out interleaved, as the walk reads
    them.  A step past the end of the script raises, so the walk must stop
    at the step where its last run closes.
    """
    steps = iter(script)

    class ScriptedStream:
        def __init__(self, profile, rng):
            pass

        def take(self, m, cards):
            hands = np.array(next(steps), dtype=np.int64).reshape(-1)
            assert m == cards == hands.size
            return np.empty(0), hands

    monkeypatch.setattr(bounds, "HandStream", ScriptedStream)
    res = simulate_walks(make_bias_profile(n, 0.5), [1], len(script[0]), seed=0,
                         touch_threshold=threshold)
    return res.touch_picks.tolist(), res.touch_steps.tolist()


class TestScriptedTouches:
    # type-A cards are 0..n-1; cards n..2n-1 are type B and never count

    def test_both_hands_on_one_untouched_card_count_once(self, monkeypatch):
        # counted twice, the draw (0, 0) would close the run at pick 2
        assert scripted_touches(monkeypatch, 2, 0, [[(0, 0)], [(1, 3)]]) == ([3], [2])

    def test_left_hand_reaching_the_threshold_closes_at_pick_2s(self, monkeypatch):
        assert scripted_touches(monkeypatch, 3, 1, [[(4, 5)], [(0, 1)]]) == ([4], [2])

    def test_right_hand_reaching_the_threshold_closes_at_pick_2s_minus_1(self, monkeypatch):
        # the left hand (2) is fresh too, but the run closed on the right
        assert scripted_touches(monkeypatch, 3, 1, [[(0, 3)], [(1, 2)]]) == ([3], [2])

    def test_threshold_n_minus_1_closes_at_the_first_fresh_touch(self, monkeypatch):
        script = [[(1, 4), (3, 4)],
                  [(0, 2), (5, 2)]]
        assert scripted_touches(monkeypatch, 3, 2, script) == ([1, 4], [1, 2])

    def test_runs_closing_at_different_steps_keep_their_own_counts(self, monkeypatch):
        # after step 1 run 0 has 2 cards untouched, run 1 has closed and run 2
        # still has 3; closed runs keep drawing fresh cards that must not count
        script = [[(0, 3), (0, 1), (3, 3)],
                  [(3, 4), (2, 2), (2, 2)],
                  [(4, 2), (0, 0), (5, 5)],
                  [(1, 0), (1, 2), (1, 0)]]
        assert scripted_touches(monkeypatch, 3, 1, script) == ([6, 2, 7], [3, 1, 4])


class TestWalker:
    def test_deterministic_and_coupled_across_checkpoints(self):
        profile = make_bias_profile(3, 0.5)
        one = simulate_walks(profile, [2, 5, 9], 5_000, seed=9)
        bis = simulate_walks(profile, [2, 5, 9], 5_000, seed=9)
        assert (one.counts == bis.counts).all()
        other = simulate_walks(profile, [5, 14], 5_000, seed=9)
        assert (one.counts[:, 1] == other.counts[:, 0]).all()
        assert (simulate_walks(profile, [5], 5_000, seed=10).counts
                != one.counts[:, 1:2]).any()

    # 13 trials in blocks of 5: two full blocks and a partial one
    @pytest.mark.parametrize("n, a, t_values, touch_threshold", [
        (6, 0.5, [0, 5, 25, 150], 0),  # checkpoints before, between and after touches
        (5, 1.0, [2, 9], 1),
        (4, 0.25, [0, 7], 4),         # threshold n: touched at pick 0
        (6, 0.77, [0, 1, 30], None),  # no touch tracking
        (3, 0.5, [], 2),              # touch tracking alone
    ])
    def test_matches_plain_replay(self, monkeypatch, n, a, t_values, touch_threshold):
        monkeypatch.setattr(bounds, "DEFAULT_BLOCK_SIZE", 5)
        res = simulate_walks(make_bias_profile(n, a), t_values, 13, seed=21,
                             touch_threshold=touch_threshold)
        counts, picks, steps = walk_replay(n, a, t_values, 13, 21, touch_threshold, block=5)
        assert res.counts.tolist() == counts
        if touch_threshold is None:
            assert res.touch_picks is None and res.touch_steps is None
        else:
            assert res.touch_picks.tolist() == picks
            assert res.touch_steps.tolist() == steps

    def test_t_zero_counts_are_full(self):
        result = simulate_walks(make_bias_profile(4, 0.5), [0, 1], 300, seed=2)
        assert (result.counts[:, 0] == 4).all()
        assert result.touch_steps is None and result.touch_picks is None

    def test_argument_validation(self):
        profile = make_bias_profile(3, 0.5)
        with pytest.raises(ValueError):
            simulate_walks(profile, [-1], 10, seed=0)
        with pytest.raises(ValueError):
            simulate_walks(profile, [1], 0, seed=0)
        with pytest.raises(ValueError):
            simulate_walks(profile, [1], 10, seed=0, touch_threshold=4)

    def test_matches_exact_distribution_small_deck(self):
        profile = make_bias_profile(3, 0.5)
        op = lehmer_operator(profile)
        dist = evolve(op, ea.point_mass(op), 3)
        exact = state_mass_at_least(op, dist, 1)
        [est] = lower_bound_sweep(profile, [3], 1, 40_000, seed=5)
        assert abs(est.estimate - exact) < 4 * est.stderr

    def test_equilibrium_mass_matches_uniform_law(self):
        profile = make_bias_profile(8, 0.5)
        t_eq = ea.theory_time(profile, 3.0)
        [est] = lower_bound_sweep(profile, [t_eq], 2, 30_000, seed=6)
        um = uniform_fixed_mass(8, 2)
        assert abs(est.estimate - um) < 4 * max(est.stderr, 1e-4)


@pytest.mark.parametrize("a", [0.0, -1.0, 1.5, math.nan])
@pytest.mark.parametrize("call", [
    lambda a: coupon_variance_bound(4, a),
    lambda a: sample_touch_picks(4, a, 1, 3, 0),
    lambda a: type_chain.variance_bound(4, a, 0.75),
    lambda a: rate_mark_a_floor(4, a, 0.75, 1),
], ids=["coupon_variance_bound", "sample_touch_picks", "variance_bound", "rate_mark_a_floor"])
def test_bias_outside_range_is_rejected(call, a):
    with pytest.raises(ValueError, match=r"^a must lie in \(0, 1\]$"):
        call(a)


class TestLowerBound:
    def test_sweep_structure(self):
        profile = make_bias_profile(3, 0.5)
        rows = lower_bound_sweep(profile, [0, 3, 8], 1, 10_000, seed=5)
        assert [r.t for r in rows] == [0, 3, 8]
        first = rows[0]
        assert first.estimate == 1.0 and first.stderr == 0.0
        assert first.uniform_mass == pytest.approx(uniform_fixed_mass(3, 1))
        for row in rows:
            assert row.bound == pytest.approx(abs(row.estimate - row.uniform_mass))
            assert 0.0 <= row.bound <= 1.0

    def test_bound_is_below_exact_tv(self):
        # the certified quantity must sit under the true distance
        profile = make_bias_profile(3, 0.5)
        op = lehmer_operator(profile)
        for row in lower_bound_sweep(profile, [1, 3, 6, 10], 1, 40_000, seed=5):
            exact_tv = ea.tv_distance(evolve(op, ea.point_mass(op), row.t), op.sizes)
            assert row.bound <= exact_tv + 4 * max(row.stderr, 1e-4)

    @pytest.mark.parametrize("threshold", [0, 4])
    def test_threshold_outside_type_a_count_is_rejected(self, threshold):
        with pytest.raises(ValueError, match=r"1\.\.3"):
            lower_bound_sweep(make_bias_profile(3, 0.5), [1], threshold, 10, seed=5)

    def test_suggested_threshold(self):
        assert suggested_threshold(2) == 2
        assert suggested_threshold(8) == 4
        assert suggested_threshold(512) == 32
        assert suggested_threshold(1) == 1
