"""Exact small-deck machinery: ranking, operators, distances, mixing times.

The orbit engine of ``exact_analysis`` is pinned to the Lehmer operator on
all N! permutations in ``_helpers``, which is pinned in turn to the dense
transition matrix of ``_reference``.
"""
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _helpers
from _helpers import (
    EXACT_BYTE_BUDGET,
    all_perms,
    evolve,
    exact_bytes,
    lehmer_operator,
)
from _reference import (
    dense_transition_matrix,
    fixed_a_counts,
    lex_rank,
    lex_unrank,
    state_mass_at_least,
)
from biased_shuffle import cli, exact_analysis
from biased_shuffle.chain_core import make_bias_profile
from biased_shuffle.exact_analysis import (
    CapacityError,
    build_operator,
    check_capacity,
    cutoff_profile,
    distance_scan,
    encode_many,
    list_orbits,
    mixing_time,
    point_mass,
    separation_distance,
    theory_time,
    tv_distance,
)

# Orbits of decks 2, 4, ..., 14 (multisets of cyclic A/B words).
ORBIT_COUNTS = [2, 10, 38, 158, 602, 2382, 9142]


def transition_mass(op, x: int, y: int) -> float:
    """Exact one-step mass the operator sends from state x to state y."""
    if x == y:
        return op.stay
    for image, w in zip(op.table, op.weights):
        if image[x] == y:
            return float(w)
    return 0.0


class TestRanking:
    @pytest.mark.parametrize("deck", [1, 2, 3, 4, 5])
    def test_roundtrip_exhaustive(self, deck):
        for rank, perm in enumerate(itertools.permutations(range(deck))):
            assert lex_rank(perm) == rank
            assert lex_unrank(rank, deck) == perm

    @given(st.permutations(list(range(7))))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, perm):
        assert lex_unrank(lex_rank(perm), 7) == tuple(perm)

    def test_encode_many_matches_scalar(self):
        perms = all_perms(5)
        ranks = encode_many(perms)
        assert (ranks == np.arange(len(perms))).all()
        some = perms[[0, 17, 63, 119]]
        assert [lex_rank(row.tolist()) for row in some] == encode_many(some).tolist()

    def test_decode_range_check(self):
        with pytest.raises(ValueError):
            lex_unrank(24, 4)
        with pytest.raises(ValueError):
            lex_unrank(-1, 4)


def orbit_key(perm) -> tuple:
    """Orbit of a permutation, found from its cycles without the engine.

    ``perm`` lists the card at each position; its inverse, card -> position,
    is the engine's sigma.  Each cycle becomes the word of its cards' types,
    read from its least rotation.
    """
    half = len(perm) // 2
    pos_of = np.argsort(perm)
    seen, words = set(), []
    for first in range(len(perm)):
        if first in seen:
            continue
        cycle, card = [], first
        while card not in seen:
            seen.add(card)
            cycle.append("a" if card < half else "b")
            card = int(pos_of[card])
        words.append(min("".join(cycle[i:] + cycle[:i]) for i in range(len(cycle))))
    return tuple(sorted(words))


class TestOperator:
    """The Lehmer operator on all permutations, the orbit engine's oracle."""

    def test_capacity_guard(self, monkeypatch):
        # the size cap refuses deck 20 before any orbit is listed
        def listed(profile):
            raise AssertionError("list_orbits ran for an oversized deck")
        monkeypatch.setattr(exact_analysis, "list_orbits", listed)
        with pytest.raises(CapacityError, match="budget"):
            build_operator(make_bias_profile(10, 1.0))

    def test_byte_budget_admits_deck_10_only(self, monkeypatch):
        assert exact_bytes(10) <= EXACT_BYTE_BUDGET < exact_bytes(12)

        class Listed(Exception):
            pass

        def listed(deck):
            raise Listed
        monkeypatch.setattr(_helpers, "all_perms", listed)
        with pytest.raises(Listed):
            lehmer_operator(make_bias_profile(5, 0.5))
        with pytest.raises(ValueError, match="budget"):
            lehmer_operator(make_bias_profile(6, 0.5))

    def test_one_step_unbiased_masses(self):
        # identity stays with probability 1/4, each transposition gets 1/8
        op = lehmer_operator(make_bias_profile(2, 1.0))
        dist = evolve(op, point_mass(op), 1)
        assert dist[0] == pytest.approx(0.25, abs=1e-15)
        swaps = np.sort(dist[1:])
        assert swaps.size == 23
        nonzero = swaps[swaps > 0]
        assert nonzero.size == 6
        assert np.allclose(nonzero, 0.125, atol=1e-15)

    def test_one_step_two_cards_biased(self):
        for op in (lehmer_operator(make_bias_profile(1, 0.5)),
                   build_operator(make_bias_profile(1, 0.5))):
            dist = evolve(op, point_mass(op), 1)
            assert dist.tolist() == pytest.approx([0.625, 0.375], abs=1e-15)

    @pytest.mark.parametrize("deck,a", [(4, 1.0), (4, 0.5), (6, 0.5)])
    def test_matches_dense_oracle(self, deck, a):
        profile = make_bias_profile(deck // 2, a)
        op = lehmer_operator(profile)
        mat, perms = dense_transition_matrix(profile)
        # permutation tuples enumerate in lexicographic order on both sides
        dist = point_mass(op)
        dense = np.zeros(len(perms))
        dense[0] = 1.0
        for _ in range(3):
            dist = op.apply(dist)
            dense = dense @ mat
        assert np.abs(dist - dense).max() < 1e-10

    @pytest.mark.parametrize("deck", [2, 4, 6])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_apply_matches_per_column_gathers_bit_for_bit(self, deck, a):
        op = lehmer_operator(make_bias_profile(deck // 2, a))
        by_state = op.table.T  # the (N!, T) layout, one column per transposition

        def apply_by_columns(dist):
            out = op.stay * dist
            for col, w in enumerate(op.weights):
                out += w * dist[by_state[:, col]]
            return out

        rng = np.random.default_rng(deck)
        for dist in (point_mass(op), op.apply(point_mass(op)), rng.random(op.state_count)):
            assert op.apply(dist).tobytes() == apply_by_columns(dist).tobytes()

    def test_transition_mass_lookup(self):
        profile = make_bias_profile(2, 0.5)
        op = lehmer_operator(profile)
        mat, _ = dense_transition_matrix(profile)
        for x in (0, 3, 11, 23):
            for y in (0, 5, 23):
                assert transition_mass(op, x, y) == pytest.approx(mat[x, y], abs=1e-14)

    @pytest.mark.parametrize("deck", [2, 4, 6])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_uniform_is_fixed_point(self, deck, a):
        profile = make_bias_profile(deck // 2, a)
        for op in (lehmer_operator(profile), build_operator(profile)):
            u = op.sizes / math.factorial(deck)
            assert np.abs(op.apply(u) - u).max() < 1e-12

    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_flow_symmetry(self, a):
        # uniform stationarity is reversible here: P(x,y) = P(y,x)
        profile = make_bias_profile(2, a)
        mat, _ = dense_transition_matrix(profile)
        assert np.abs(mat - mat.T).max() == 0.0

    def test_flow_symmetry_spot_larger_deck(self):
        op = lehmer_operator(make_bias_profile(3, 0.5))
        rng = np.random.default_rng(4)
        for _ in range(200):
            x, y = rng.integers(0, op.state_count, 2)
            assert transition_mass(op, int(x), int(y)) == pytest.approx(
                transition_mass(op, int(y), int(x)), abs=1e-15)


class TestOrbitEngine:
    @pytest.mark.parametrize("deck", [2, 4, 6, 8])
    def test_orbits_are_the_cycle_words_of_all_permutations(self, deck):
        orbits, _, _ = list_orbits(make_bias_profile(deck // 2, 0.5))
        assert orbits[0] == orbit_key(range(deck))
        assert sorted(orbits) == sorted({orbit_key(p) for p in all_perms(deck)})

    @pytest.mark.parametrize("deck", [2, 4, 6, 8, 10, 12, 14])
    def test_orbit_counts_and_sizes(self, deck):
        op = build_operator(make_bias_profile(deck // 2, 0.5))
        assert op.state_count == ORBIT_COUNTS[deck // 2 - 1]
        assert op.sizes.min() >= 1
        assert sum(op.sizes.tolist()) == math.factorial(deck)

    def test_budget_admits_deck_18_only(self):
        assert exact_analysis.MAX_EXACT_DECK == 18
        check_capacity(18)
        for deck in (20, 22, 32766):
            with pytest.raises(CapacityError, match="budget"):
                check_capacity(deck)

    @pytest.mark.parametrize("deck", [2, 4, 6, 8])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    def test_matches_lehmer_oracle(self, deck, a):
        # orbit masses are the Lehmer law summed over each orbit, at every
        # step to twice the theory time and on to the last crossing
        profile = make_bias_profile(deck // 2, a)
        op, oracle = build_operator(profile), lehmer_operator(profile)
        orbits, _, _ = list_orbits(profile)
        where = {orbit: i for i, orbit in enumerate(orbits)}
        member_of = np.array([where[orbit_key(p)] for p in all_perms(deck)])
        times = {(eps, metric): mixing_time(op, eps, metric)
                 for eps in (0.5, 0.25, 0.1) for metric in ("tv", "separation")}
        assert times == {key: mixing_time(oracle, *key) for key in times}
        horizon = max(2 * theory_time(profile), *times.values())
        dist, law = point_mass(op), point_mass(oracle)
        for t, (row, oracle_row) in enumerate(zip(cutoff_profile(op, range(horizon + 1)),
                                                  cutoff_profile(oracle, range(horizon + 1)))):
            assert np.abs(np.bincount(member_of, law, op.state_count) - dist).max() < 1e-12
            assert row[0] == oracle_row[0] == t
            assert abs(row[1] - oracle_row[1]) < 1e-12
            assert abs(row[2] - oracle_row[2]) < 1e-12
            dist, law = op.apply(dist), oracle.apply(law)

    def test_transition_masses_sum_to_one(self):
        op = build_operator(make_bias_profile(5, 0.25))
        out = np.bincount(op.table[0], op.weights, op.state_count) + op.stay
        assert np.abs(out - 1.0).max() < 1e-14


class TestDistances:
    def test_t1_values_unbiased(self):
        op = build_operator(make_bias_profile(2, 1.0))
        dist = evolve(op, point_mass(op), 1)
        assert tv_distance(dist, op.sizes) == pytest.approx(17 / 24, abs=1e-12)
        assert separation_distance(dist, op.sizes) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_distances(self):
        op = build_operator(make_bias_profile(2, 1.0))
        dist = point_mass(op)
        assert tv_distance(dist, op.sizes) == pytest.approx(1 - 1 / 24, abs=1e-14)
        assert separation_distance(dist, op.sizes) == pytest.approx(1.0)

    @pytest.mark.parametrize("deck,a", [(4, 0.5), (4, 1.0), (6, 0.25)])
    def test_tv_below_separation_and_monotone(self, deck, a):
        op = build_operator(make_bias_profile(deck // 2, a))
        _, tv, sep = np.array(cutoff_profile(op, range(0, 25))).T
        assert (tv <= sep + 1e-12).all()
        assert (np.diff(tv) <= 1e-12).all()
        assert (np.diff(sep) <= 1e-12).all()

    def test_cutoff_profile_matches_direct_evolution(self):
        op = build_operator(make_bias_profile(2, 0.5))
        rows = cutoff_profile(op, [0, 2, 5])
        d = evolve(op, point_mass(op), 5)
        assert [row[0] for row in rows] == [0, 2, 5]
        assert rows[-1][1] == pytest.approx(tv_distance(d, op.sizes), abs=1e-14)
        assert rows[-1][2] == pytest.approx(separation_distance(d, op.sizes), abs=1e-14)

    def test_cutoff_profile_rejects_negative_t(self):
        with pytest.raises(ValueError):
            cutoff_profile(build_operator(make_bias_profile(2, 0.5)), [-1])

    def test_cutoff_profile_refuses_past_the_cap_as_it_reads(self):
        # the scan's cap at deck 2, a = 1 is 69 steps, so a request for 10**6
        # steps is refused at its 70th value, before the rest is held anywhere
        op = build_operator(make_bias_profile(1, 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="distance scan exceeded 69 steps"):
                cutoff_profile(op, range(10 ** 6))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestScan:
    def test_rows_match_direct_evolution(self):
        op = build_operator(make_bias_profile(2, 0.5))
        for t, tv, sep in itertools.islice(distance_scan(op), 8):
            d = evolve(op, point_mass(op), t)
            assert (tv, sep) == (tv_distance(d, op.sizes), separation_distance(d, op.sizes))

    def test_step_cap(self, monkeypatch):
        # twice the theory time of 1 step at deck 2, a = 0.5, rounds to 3 steps
        monkeypatch.setattr(exact_analysis, "SCAN_CAP_MULTIPLE", 2)
        op = build_operator(make_bias_profile(2, 0.5))
        with pytest.raises(RuntimeError):
            mixing_time(op, 1e-9)
        assert [row[0] for row in cutoff_profile(op, [3])] == [3]

    @pytest.mark.parametrize("argv,applies", [
        # both crossings (t = 5 and 8) inside the default t-max of 12
        ("exact --deck 4 -a 0.5", 12),
        # the separation crossing lies past t-max, so the scan runs on to it
        ("exact --deck 4 -a 0.5 --t-max 3", 8),
    ])
    def test_exact_command_evolves_once(self, monkeypatch, capsys, argv, applies):
        calls = []
        apply = exact_analysis.TransitionOperator.apply

        def counted(op, dist):
            calls.append(1)
            return apply(op, dist)
        monkeypatch.setattr(exact_analysis.TransitionOperator, "apply", counted)
        assert cli.main(argv.split()) == 0
        assert len(calls) == applies
        result = json.loads(capsys.readouterr().out.splitlines()[1][len("# result "):])
        assert result["mixing_time_separation"] == 8
        assert result["mixing_time_tv"] == 5


class TestMixingTime:
    def test_minimality(self):
        for deck, a in ((2, 1.0), (4, 1.0), (4, 0.5), (6, 0.25), (6, 1.0)):
            op = build_operator(make_bias_profile(deck // 2, a))
            for eps in (0.5, 0.25, 0.1):
                for metric in ("tv", "separation"):
                    t = mixing_time(op, eps, metric=metric)
                    fn = tv_distance if metric == "tv" else separation_distance
                    assert fn(evolve(op, point_mass(op), t), op.sizes) <= eps
                    if t > 0:
                        assert fn(evolve(op, point_mass(op), t - 1), op.sizes) > eps

    @pytest.mark.parametrize("deck", [4, 6])
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("eps", [0.5, 0.25, 0.1])
    def test_tv_time_below_separation_time(self, deck, a, eps):
        op = build_operator(make_bias_profile(deck // 2, a))
        assert mixing_time(op, eps, metric="tv") <= mixing_time(
            op, eps, metric="separation")

    def test_bias_slows_mixing(self):
        slow = build_operator(make_bias_profile(3, 0.5))
        fast = build_operator(make_bias_profile(3, 1.0))
        assert mixing_time(slow, 0.25) >= mixing_time(fast, 0.25)

    def test_eps_validation(self):
        op = build_operator(make_bias_profile(1, 1.0))
        with pytest.raises(ValueError):
            mixing_time(op, 0.0)
        with pytest.raises(ValueError):
            mixing_time(op, 1.0)
        with pytest.raises(ValueError):
            mixing_time(op, 0.5, metric="hellinger")


class TestObservables:
    def test_fixed_a_counts_enumeration(self):
        # the oracle's enumeration order must match the engine's state index
        expect = [sum(1 for i in range(2) if row[i] == i) for row in all_perms(4)]
        assert fixed_a_counts(4).tolist() == expect

    def test_state_mass_under_uniform_matches_combinatorics(self):
        from biased_shuffle.bounds import uniform_fixed_mass
        op = lehmer_operator(make_bias_profile(3, 1.0))
        u = np.full(op.state_count, 1.0 / op.state_count)
        for threshold in range(0, 4):
            assert state_mass_at_least(op, u, threshold) == pytest.approx(
                uniform_fixed_mass(3, threshold), abs=1e-12)

    def test_theory_time_examples(self):
        assert theory_time(make_bias_profile(2, 1.0)) == round(4 * math.log(4) / 2)
        assert theory_time(make_bias_profile(2, 0.5)) == round(4 * math.log(4))
        t1 = theory_time(make_bias_profile(512, 0.5))
        assert t1 == round(1024 * math.log(1024))
        assert theory_time(make_bias_profile(2, 1.0), multiple=0.0) == 1
