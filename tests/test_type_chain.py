"""Type-count chain: transition rows, absorption sweeps, bound tables."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import phase2_upper_bound, rate_mark_a_floor, variance_bound
from biased_shuffle import marking, type_chain
from biased_shuffle.chain_core import make_bias_profile
from biased_shuffle.exact_analysis import CapacityError
from biased_shuffle.type_chain import (
    TransitionRow,
    absorption_bound_table,
    expected_absorption,
    harmonic_number,
    harmonic_probe,
    phase2_time_scale,
    simulate_absorption,
    transition_row,
)


def rate_mark_a(n, a, ka, kb):
    """Per-step probability that the marked type-A count increases."""
    row = transition_row(n, a, ka, kb)
    return row.p_a_up + row.p_move


def rational_bound_table(n, a):
    """absorption_bound_table redone in exact rational arithmetic."""
    b = Fraction(2) - Fraction(a)
    af = Fraction(a)
    table = {(n, n): Fraction(0)}
    for k in range(2 * n - 1, -1, -1):
        for ka in range(min(n, k), max(0, k - n) - 1, -1):
            kb = k - ka
            w_b = b * (n - kb)
            w_a = af * (n - ka)
            w_m = (b - 1) * (n - ka) if kb >= 1 else Fraction(0)
            acc = Fraction(1)
            acc += w_b * table.get((ka, kb + 1), Fraction(0))
            acc += w_a * table.get((ka + 1, kb), Fraction(0))
            acc += w_m * table.get((ka + 1, kb - 1), Fraction(0))
            table[ka, kb] = acc / (w_b + w_a + w_m)
    return table


class TestTransitionRow:
    def test_unbiased_interior_state(self):
        row = transition_row(2, 1.0, 1, 1)
        assert row == TransitionRow(0.375, 0.375, 0.0, 0.25)

    def test_biased_interior_state(self):
        row = transition_row(2, 0.5, 1, 1)
        assert row.p_b_up == pytest.approx(4.5 / 16, abs=1e-15)
        assert row.p_a_up == pytest.approx(1.5 / 16, abs=1e-15)
        assert row.p_move == pytest.approx(1.0 / 16, abs=1e-15)
        assert row.p_stay == pytest.approx(9.0 / 16, abs=1e-15)

    def test_boundaries(self):
        full = transition_row(3, 0.5, 3, 3)
        assert full == TransitionRow(0.0, 0.0, 0.0, 1.0)
        assert transition_row(3, 0.5, 3, 1).p_a_up == 0.0
        assert transition_row(3, 0.5, 3, 1).p_move == 0.0
        assert transition_row(3, 0.5, 1, 3).p_b_up == 0.0
        assert transition_row(3, 0.5, 1, 0).p_move == 0.0

    def test_no_move_without_bias(self):
        for ka in range(4):
            for kb in range(4):
                assert transition_row(3, 1.0, ka, kb).p_move == 0.0
        # the whole grid in one call gives the same rows, bit for bit
        ka, kb = np.indices((4, 4)).reshape(2, -1)
        rows = transition_row(3, 1.0, ka, kb)
        assert not rows.p_move.any()
        for i in range(ka.size):
            assert tuple(p[i] for p in rows) == transition_row(3, 1.0, int(ka[i]), int(kb[i]))

    @given(st.integers(1, 12), st.floats(0.05, 1.0), st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_is_a_distribution(self, n, a, data):
        ka = data.draw(st.integers(0, n))
        kb = data.draw(st.integers(0, n))
        row = transition_row(n, a, ka, kb)
        assert min(row) >= -1e-15
        assert sum(row) == pytest.approx(1.0, abs=1e-12)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            transition_row(0, 0.5, 0, 0)
        with pytest.raises(ValueError):
            transition_row(2, 0.5, 3, 0)
        with pytest.raises(ValueError):
            transition_row(2, 0.5, 0, -1)
        with pytest.raises(ValueError):
            transition_row(2, 0.5, np.array([0, 1, 3]), np.array([0, 2, 0]))

    def test_rate_mark_a_identity(self):
        for ka in range(5):
            for kb in range(5):
                row = transition_row(4, 0.4, ka, kb)
                assert rate_mark_a(4, 0.4, ka, kb) == pytest.approx(
                    row.p_a_up + row.p_move, abs=1e-15)

    @pytest.mark.parametrize("n", [4, 10, 16])
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("c1", [0.6, 0.75, 0.9])
    def test_floor_holds_in_regime(self, n, a, c1):
        kmin = math.ceil(2 * n * c1 - 1e-9)
        for k in range(kmin, 2 * n + 1):
            for ka in range(max(0, k - n), min(n, k) + 1):
                floor = rate_mark_a_floor(n, a, c1, ka)
                assert rate_mark_a(n, a, ka, k - ka) >= floor - 1e-12

    def test_floor_c1_validation(self):
        with pytest.raises(ValueError):
            rate_mark_a_floor(4, 0.5, 0.5, 1)
        with pytest.raises(ValueError):
            rate_mark_a_floor(4, 0.5, 1.0, 1)


class TestExpectedAbsorption:
    def test_single_pair_unbiased(self):
        assert expected_absorption(1, 1.0).tolist() == [[2.0, 1.0], [1.0, 0.0]]

    def test_absorbing_corner_and_positivity(self):
        for n, a in ((2, 0.5), (5, 0.3), (7, 1.0)):
            table = expected_absorption(n, a)
            assert table[n, n] == 0.0
            mask = np.ones_like(table, dtype=bool)
            mask[n, n] = False
            assert (table[mask] >= 1.0).all()

    def test_two_state_hand_computation(self):
        # n=1, a=0.5: from (1,0) only a b-mark can happen, at rate 2ab*1*2/4
        table = expected_absorption(1, 0.5)
        assert table[1, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        # from (0,1) both the a-mark (0.25) and the move to (1,0) (0.25) fire
        assert table[0, 1] == pytest.approx((1 + 0.25 * 4 / 3) / 0.5, abs=1e-12)

    @pytest.mark.parametrize("n,a,start", [(2, 0.5, (1, 1)), (3, 1.0, (0, 0)),
                                           (2, 0.3, (0, 2))])
    def test_monte_carlo_agreement(self, n, a, start):
        exact = expected_absorption(n, a)[start]
        steps = simulate_absorption(n, a, start, trials=40_000, seed=11)
        sem = steps.std(ddof=1) / math.sqrt(steps.size)
        assert abs(steps.mean() - exact) < 3 * sem

    def test_simulation_determinism_and_validation(self):
        one = simulate_absorption(2, 0.5, (0, 0), trials=500, seed=3)
        two = simulate_absorption(2, 0.5, (0, 0), trials=500, seed=3)
        assert (one == two).all()
        other = simulate_absorption(2, 0.5, (0, 0), trials=500, seed=4)
        assert (one != other).any()
        assert (simulate_absorption(2, 0.5, (2, 2), trials=8, seed=0) == 0).all()
        with pytest.raises(ValueError):
            simulate_absorption(2, 0.5, (0, 0), trials=0, seed=0)


class TestGridCap:
    def test_tables_stop_at_the_cap(self, monkeypatch):
        # the cap admits n = MAX_GRID_N and refuses the next n before any grid exists
        monkeypatch.setattr(type_chain, "MAX_GRID_N", 5)
        assert expected_absorption(5, 0.5).shape == absorption_bound_table(5, 0.5).shape == (6, 6)
        for build in (lambda: expected_absorption(6, 0.5),
                      lambda: absorption_bound_table(6, 0.5),
                      lambda: harmonic_probe(6, 0.75, 0.5),
                      lambda: marking.expected_full_marking_time(make_bias_profile(6, 0.5), 0.75)):
            with pytest.raises(CapacityError, match="budget"):
                build()


class TestBoundTable:
    def test_matches_rational_arithmetic(self):
        for n, a in ((2, 0.5), (3, 0.3), (4, 1.0)):
            table = absorption_bound_table(n, a)
            exact = rational_bound_table(n, a)
            for (ka, kb), value in exact.items():
                assert table[ka, kb] == pytest.approx(float(value), rel=1e-12)

    def test_frozen_small_table(self):
        table = absorption_bound_table(2, 0.5)
        assert table[2, 2] == 0.0
        assert table[2, 1] == pytest.approx(2 / 3, abs=1e-12)
        assert table[1, 2] == pytest.approx(4 / 3, abs=1e-12)
        assert table[2, 0] == pytest.approx(1.0, abs=1e-12)
        assert table[1, 1] == pytest.approx(23 / 15, abs=1e-12)
        assert table[0, 2] == pytest.approx(29 / 15, abs=1e-12)
        assert table[1, 0] == pytest.approx(61 / 35, abs=1e-12)

    @pytest.mark.parametrize("a", [0.2, 0.5, 0.8, 1.0])
    def test_first_subdiagonal_closed_forms(self, a):
        # one b-mark missing: waiting weight b; one a-mark missing: the move
        # path through (n, n-1) gives (2b - 1) / b since a + b = 2
        b = 2.0 - a
        for n in (2, 4, 9):
            table = absorption_bound_table(n, a)
            assert table[n, n - 1] == pytest.approx(1 / b, abs=1e-12)
            assert table[n - 1, n] == pytest.approx((2 * b - 1) / b, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 10, 16])
    @pytest.mark.parametrize("a", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("c1", [0.6, 0.75, 0.9])
    def test_scaled_table_dominates_exact_time_in_regime(self, n, a, c1):
        exact = expected_absorption(n, a)
        scaled = absorption_bound_table(n, a) * phase2_time_scale(n, a, c1)
        kmin = math.ceil(2 * n * c1 - 1e-9)
        for k in range(kmin, 2 * n + 1):
            for ka in range(max(0, k - n), min(n, k) + 1):
                assert scaled[ka, k - ka] >= exact[ka, k - ka] - 1e-9

    def test_time_scale(self):
        assert phase2_time_scale(10, 0.5, 0.75) == pytest.approx(40.0)
        with pytest.raises(ValueError):
            phase2_time_scale(10, 0.5, 0.5)


class TestHarmonicProbe:
    def test_harmonic_number(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(4) == pytest.approx(25 / 12, abs=1e-14)

    @pytest.mark.parametrize("n,c1", [(4, 0.75), (6, 0.75), (3, 5 / 6), (8, 0.75)])
    @pytest.mark.parametrize("a", [0.2, 0.5, 1.0])
    def test_weighted_diagonal_sum_hits_harmonic_number(self, n, c1, a):
        report = harmonic_probe(n, c1, a)
        d = report["diagonal"]
        assert d == round(2 * n * (1 - c1))
        assert report["harmonic"] == pytest.approx(harmonic_number(d), abs=1e-14)
        assert report["weighted_sum"] == pytest.approx(report["harmonic"], abs=1e-9)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_probe_rejects_off_grid_diagonals(self):
        with pytest.raises(ValueError):
            harmonic_probe(4, 0.7, 0.5)       # d = 2.4
        with pytest.raises(ValueError):
            harmonic_probe(2, 0.9, 0.5)       # d = 0.4
        with pytest.raises(ValueError):
            harmonic_probe(4, 0.5, 0.5)

    def test_probe_returns_plain_floats(self):
        report = harmonic_probe(4, 0.75, 0.5)
        assert type(report["weighted_sum"]) is float
        assert type(report["ratio"]) is float


class TestClosedFormBounds:
    def test_variance_bound_formula(self):
        value = variance_bound(4, 0.5, 0.75)
        assert value == pytest.approx((math.pi ** 2 / 6) * 64 / (0.5 ** 4 * 0.75 ** 2))
        with pytest.raises(ValueError):
            variance_bound(4, 0.5, 0.4)

    def test_phase2_upper_bound_formula(self):
        value = phase2_upper_bound(4, 0.5, 0.75)
        scale = 16.0
        assert value == pytest.approx(
            scale * (math.log(8) + math.log(math.log(8)) + 4.0))
        with pytest.raises(ValueError):
            phase2_upper_bound(1, 0.5, 0.75)
