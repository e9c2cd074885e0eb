"""Test-only helpers that drive the library's fast paths.

``_reference.py`` must stay an oracle independent of the code it checks;
helpers that call that code live here instead.  That includes the scalar
marking engine: one trajectory at a time, with the deck held as a
``DeckState`` and the permutation factored as pi_t = phi_t o psi_t^{-1}
(``phi`` lists the marked cards first in marking order, ``psi`` their
positions slot for slot, checked at every step by
:func:`factorization_check`).  It is the batched engine's oracle: it states
no rule of its own, reading the package's acceptance rules,
``assigned_card`` and the hand law, and it draws its hands two uniforms a
step through ``hands_from_uniforms``.
"""
from __future__ import annotations

import copy
import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from _reference import hand_probability, probability
from biased_shuffle.chain_core import BiasProfile, hands_from_uniforms, make_bias_profile
from biased_shuffle.exact_analysis import encode_many
from biased_shuffle.marking import (
    assigned_card,
    default_step_cap,
    mark_threshold,
    mixed_rule,
    pair_rule,
    phase1_rule,
)


def evolve(op, dist: np.ndarray, t: int) -> np.ndarray:
    """Advance a distribution t steps of ``op.apply`` (t = 0 returns a copy)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    out = dist.copy()
    for _ in range(t):
        out = op.apply(out)
    return out


# Largest exact_bytes estimate that lehmer_operator accepts: deck 10 needs
# about 1.3 GB, deck 12 about 220 GB.
EXACT_BYTE_BUDGET = 2 * 1024**3


def all_perms(deck: int) -> np.ndarray:
    """All permutations of 0..deck-1 in rank order, one per row."""
    return np.array(list(itertools.permutations(range(deck))), dtype=np.int8)


def exact_bytes(deck: int) -> int:
    """Estimated peak bytes of :func:`lehmer_operator` for a deck.

    Per state: the listed permutation as a Python tuple plus its int8 row,
    its int32 entry in every neighbour table row and a few float64
    distribution entries.
    """
    pairs = deck * (deck - 1) // 2
    return math.factorial(deck) * (56 + 9 * deck + 4 * pairs + 8 * 4)


@dataclass
class LehmerOperator:
    """Matrix-free one-step operator of the walk on S_N, states in Lehmer rank order.

    It has the orbit operator's attributes, each state holding one
    permutation, so ``distance_scan``, ``mixing_time`` and ``cutoff_profile``
    read it as they read the orbit operator.
    """

    profile: BiasProfile
    stay: float                 # mass on the identity move
    weights: np.ndarray         # (T,) unordered transposition masses 2 p_i p_j
    table: np.ndarray           # (T, N!) image state under each transposition
    sizes: np.ndarray           # (N!,) ones
    scanned: list = field(default_factory=list, init=False, repr=False)
    scan_head: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def state_count(self) -> int:
        return self.table.shape[1]

    def apply(self, dist: np.ndarray) -> np.ndarray:
        out = self.stay * dist
        term = np.empty_like(dist)
        # every transposition row is an involution on states, so gather
        # equals scatter; every image is a state, so "clip" never acts
        for image, w in zip(self.table, self.weights):
            np.take(dist, image, out=term, mode="clip")
            term *= w
            out += term
        return out


def lehmer_operator(profile: BiasProfile) -> LehmerOperator:
    """The neighbour table on all permutations of the deck in ``profile``."""
    deck = profile.deck_size
    need = exact_bytes(deck)
    if need > EXACT_BYTE_BUDGET:
        raise ValueError(f"the Lehmer operator for a deck of {deck} cards needs about "
                         f"{need / 1e9:.3g} GB, over the byte budget")
    perms = all_perms(deck)
    hand = profile.weights() / deck
    pairs = list(itertools.combinations(range(deck), 2))
    table = np.empty((len(pairs), perms.shape[0]), dtype=np.int32)
    weights = np.empty(len(pairs))
    for col, (i, j) in enumerate(pairs):
        relabel = np.arange(deck, dtype=np.int8)
        relabel[i], relabel[j] = j, i
        table[col] = encode_many(relabel[perms])
        weights[col] = 2.0 * hand[i] * hand[j]
    stay = float(np.sum(hand * hand))
    return LehmerOperator(profile=profile, stay=stay, weights=weights, table=table,
                          sizes=np.ones(perms.shape[0], dtype=np.int64))


class DeckState:
    """Mutable permutation state.

    ``card_at[pos]`` is the card at a position, ``pos_of[card]`` its inverse.
    Both are plain lists; the walk only ever swaps two entries at a time.
    """

    __slots__ = ("n", "card_at", "pos_of")

    def __init__(self, n: int):
        self.n = n
        self.card_at = list(range(2 * n))
        self.pos_of = list(range(2 * n))

    @property
    def deck_size(self) -> int:
        return 2 * self.n

    def swap_cards(self, c1: int, c2: int) -> None:
        """Exchange the positions of two cards (no-op when c1 == c2)."""
        p1, p2 = self.pos_of[c1], self.pos_of[c2]
        self.pos_of[c1], self.pos_of[c2] = p2, p1
        self.card_at[p1], self.card_at[p2] = c2, c1


class MarkingState:
    """Scalar state of one marking trajectory.

    Tracks the deck, the marked set with per-type counts and the phi/psi
    factorization.  Confined to a single trajectory; not thread safe.
    """

    def __init__(self, profile: BiasProfile, c1: float, always_mark: bool = False):
        deck = profile.deck_size
        self.profile = profile
        self.threshold = mark_threshold(deck, c1)
        self.always_mark = always_mark
        self.deck = DeckState(profile.n)
        self.marked = [False] * deck
        self.k = 0
        self.ka = 0
        self.t = 0
        self.phi = list(range(deck))
        self.phi_inv = list(range(deck))
        self.psi = list(range(deck))
        # mark_times[k] is the step at which the marked count first hit k.
        self.mark_times: list[int | None] = [0] + [None] * deck

    @property
    def done(self) -> bool:
        return self.k == self.profile.deck_size

    @property
    def kb(self) -> int:
        return self.k - self.ka

    @property
    def phase2(self) -> bool:
        # marks only add to k, so phase two starts for good at the threshold
        return self.k >= self.threshold

    def _accept(self, rule: tuple[float, float], rng: np.random.Generator) -> bool:
        """Coin for an acceptance ``rule``'s (numerator, denominator)."""
        num, den = rule
        p = num / den
        if p > 1.0 + 1e-12:
            raise AssertionError(f"acceptance probability {p} above one")
        return True if self.always_mark else rng.random() < p

    def _psi_swap(self, i: int, j: int) -> None:
        psi = self.psi
        psi[i], psi[j] = psi[j], psi[i]

    def _phi_swap(self, i: int, j: int) -> None:
        phi, inv = self.phi, self.phi_inv
        phi[i], phi[j] = phi[j], phi[i]
        inv[phi[i]] = i
        inv[phi[j]] = j

    def _both_swap(self, i: int, j: int) -> None:
        self._phi_swap(i, j)
        self._psi_swap(i, j)

    def apply_walk_move(self, rng: np.random.Generator) -> tuple[int, int]:
        """Draw the (right, left) hands, swap them in the deck, advance the clock."""
        right, left = hands_from_uniforms(self.profile, rng.random(2)).tolist()
        self.deck.swap_cards(right, left)
        self.t += 1
        return right, left

    def _record_mark(self, card: int) -> None:
        self.marked[card] = True
        self.k += 1
        self.ka += int(card < self.profile.n)
        self.mark_times[self.k] = self.t

    # -- phase two bookkeeping helpers ------------------------------------

    def _move_update(self, right: int, left: int) -> None:
        """Fold an applied deck move into psi (phi untouched)."""
        if right != left:
            self._psi_swap(self.phi_inv[right], self.phi_inv[left])

    def _mark_phase2(self, right: int, left: int, new_card: int) -> None:
        self._move_update(right, left)
        slot = self.k
        self._both_swap(slot, self.phi_inv[new_card])
        self._record_mark(new_card)

    def _move_mark(self, right: int, left: int, src: int, dst: int) -> None:
        self._move_update(right, left)
        self._both_swap(self.phi_inv[src], self.phi_inv[dst])
        self.marked[src] = False
        self.marked[dst] = True
        n = self.profile.n
        self.ka += int(dst < n) - int(src < n)


def phase1_step(ms: MarkingState, right: int, left: int,
                rng: np.random.Generator) -> None:
    """Marking decision for an applied move while in phase one."""
    a, w = ms.profile.a, ms.profile.weights().tolist()
    if (not ms.marked[right] and not ms.marked[left]
            and ms._accept(phase1_rule(a, w[right], w[left]), rng)):
        slot = ms.k
        r_slot = ms.phi_inv[right]
        l_slot = ms.phi_inv[left]
        ms._psi_swap(slot, l_slot)
        if r_slot == slot or l_slot == slot or r_slot == l_slot:
            ms._phi_swap(slot, r_slot)
        else:
            ms._phi_swap(slot, r_slot)
            ms._phi_swap(r_slot, l_slot)
        ms._record_mark(right)
    else:
        ms._move_update(right, left)


def phase2_step(ms: MarkingState, right: int, left: int,
                rng: np.random.Generator) -> None:
    """Marking decision for an applied move while in phase two."""
    a, w = ms.profile.a, ms.profile.weights().tolist()
    m_right, m_left = ms.marked[right], ms.marked[left]
    if right == left:
        if not m_right and ms._accept(mixed_rule(a, w[right]), rng):
            ms._mark_phase2(right, left, right)
        return
    if not m_right and m_left:
        if ms._accept(mixed_rule(a, w[left]), rng):
            ms._mark_phase2(right, left, right)
        else:
            ms._move_mark(right, left, src=left, dst=right)
        return
    if m_right and not m_left:
        if ms._accept(mixed_rule(a, w[right]), rng):
            ms._mark_phase2(right, left, left)
        else:
            ms._move_mark(right, left, src=right, dst=left)
        return
    if m_right and m_left:
        u = int(assigned_card(ms.marked, ms.profile.n, right, left))
        if u >= 0 and ms._accept(pair_rule(a, w[u], w[right], w[left]), rng):
            ms._mark_phase2(right, left, u)
        else:
            ms._move_update(right, left)
        return
    # both hands on distinct unmarked cards: phase two never marks here
    ms._move_update(right, left)


def factorization_check(ms: MarkingState) -> int:
    """Number of slots where the deck disagrees with phi o psi^{-1}.

    Zero means the factorization invariant holds exactly: the card at
    position psi[i] is phi[i] for every slot i.
    """
    card_at = ms.deck.card_at
    return sum(1 for i in range(ms.profile.deck_size)
               if card_at[ms.psi[i]] != ms.phi[i])


@dataclass
class MarkingRunRecord:
    """Outcome of one trajectory run to full marking."""

    t_phase1: int
    t_full: int
    mark_times: list[int]
    deck: DeckState
    transitions: list[tuple[tuple[int, int], tuple[int, int]]] | None = None


def run_to_full_marking(profile: BiasProfile, c1: float, rng: np.random.Generator,
                        *, always_mark: bool = False,
                        record_transitions: bool = False) -> MarkingRunRecord:
    """Drive one trajectory until every card is marked.

    Checks the factorization after every step and raises AssertionError at
    the first step where it fails.
    """
    ms = MarkingState(profile, c1, always_mark=always_mark)
    cap = default_step_cap(profile.deck_size)
    transitions: list | None = [] if record_transitions else None
    while not ms.done:
        right, left = ms.apply_walk_move(rng)
        pre_phase2 = ms.phase2
        pre = (ms.ka, ms.kb)
        if pre_phase2:
            phase2_step(ms, right, left, rng)
        else:
            phase1_step(ms, right, left, rng)
        if record_transitions and pre_phase2:
            transitions.append((pre, (ms.ka, ms.kb)))
        if factorization_check(ms) != 0:
            raise AssertionError(f"factorization broke at step {ms.t}")
        if ms.t > cap:
            raise RuntimeError(
                f"marking did not finish within {cap} steps "
                f"(k={ms.k}/{profile.deck_size}); check c1 and the profile")
    return MarkingRunRecord(
        t_phase1=int(ms.mark_times[ms.threshold]),
        t_full=int(ms.mark_times[profile.deck_size]),
        mark_times=[int(x) for x in ms.mark_times],
        deck=ms.deck,
        transitions=transitions,
    )


B_UP, A_UP, MOVE, STAY = 0, 1, 2, 3

# a phase-two step's kind by its (d ka, d k): the type-count chain's jumps
# (ka, kb) -> (ka, kb), (ka, kb + 1), (ka + 1, kb - 1) and (ka + 1, kb)
PHASE2_KIND = np.array([[STAY, B_UP], [MOVE, A_UP]])


@dataclass
class MarkingCensus:
    """Per-cell step statistics of batched marking runs, from (k, ka) alone.

    Passed to ``bulk_marking_runs(..., census=...)``, it is told each row's
    marked count k and marked type-A count ka before and after every step.
    A phase-one step (k < threshold) counts in ``phase1_steps`` and, when k
    rises, in ``phase1_marks``; a phase-two step of an unfinished run counts
    under its jump in ``phase2_counts``.  Cells are flat (ka, kb) indices.
    Every step must be a legal jump: d k in {0, 1} in phase one, d ka and
    d k both in {0, 1} in phase two; anything else raises AssertionError.
    """

    n: int
    phase1_steps: np.ndarray = field(init=False)
    phase1_marks: np.ndarray = field(init=False)
    phase2_counts: np.ndarray = field(init=False)

    def __post_init__(self):
        cells = (self.n + 1) * (self.n + 1)
        self.phase1_steps = np.zeros(cells, dtype=np.int64)
        self.phase1_marks = np.zeros(cells, dtype=np.int64)
        self.phase2_counts = np.zeros((cells, 4), dtype=np.int64)

    def cell(self, ka, kb):
        """Flat cell index of (ka, kb), for ints or arrays."""
        return ka * (self.n + 1) + kb

    def record(self, threshold: int, k0, ka0, k1, ka1) -> None:
        dk, dka = k1 - k0, ka1 - ka0
        cells = self.cell(ka0, k0 - ka0)
        one = k0 < threshold
        two = ~one & (k0 < 2 * self.n)
        dk_ok = (dk == 0) | (dk == 1)
        if not dk_ok[one].all():
            raise AssertionError("a phase-one step changed k by other than 0 or 1")
        if not (dk_ok & ((dka == 0) | (dka == 1)))[two].all():
            raise AssertionError("a phase-two step made no jump of the type-count chain")
        size = self.phase1_steps.size
        self.phase1_steps += np.bincount(cells[one], minlength=size)
        self.phase1_marks += np.bincount(cells[one & (dk == 1)], minlength=size)
        kind = PHASE2_KIND[dka[two], dk[two]]
        self.phase2_counts += np.bincount(cells[two] * 4 + kind,
                                          minlength=4 * size).reshape(size, 4)


class _FixedCoin:
    """Stand-in rng whose random() returns a preset value."""

    def __init__(self, value: float):
        self.value = value

    def random(self) -> float:
        return self.value


def phase1_path_distribution(a: float, steps: int, deck: int = 4):
    """Exact joint law of (deck, marked, phi, psi, k) after phase-one steps.

    Enumerates every hand pair and coin branch with its probability, driving
    the real scalar engine, so the engine's phi/psi bookkeeping is exercised
    on every path.
    """
    n = deck // 2
    profile = make_bias_profile(n, a)
    probs = [hand_probability(profile, c) for c in range(deck)]
    w = profile.weights().tolist()
    dist: dict[tuple, float] = defaultdict(float)

    def rec(ms: MarkingState, depth: int, mass: float) -> None:
        if depth == steps:
            key = (tuple(ms.deck.card_at), tuple(sorted(
                c for c in range(deck) if ms.marked[c])),
                tuple(ms.phi), tuple(ms.psi), ms.k)
            dist[key] += mass
            return
        for r in range(deck):
            for l in range(deck):
                base = mass * probs[r] * probs[l]
                if not ms.marked[r] and not ms.marked[l]:
                    acc = probability(phase1_rule(a, w[r], w[l]))
                    branches = [(acc, 0.0), (1.0 - acc, 1.0 - 1e-12)]
                else:
                    branches = [(1.0, 0.5)]
                for weight, coin in branches:
                    if weight <= 0.0:
                        continue
                    child = copy.deepcopy(ms)
                    child.deck.swap_cards(r, l)
                    child.t += 1
                    phase1_step(child, r, l, _FixedCoin(coin))
                    rec(child, depth + 1, base * weight)

    # c1 close to one keeps every enumerated step inside phase one
    rec(MarkingState(profile, 1.0 - 1e-9), 0, 1.0)
    return dist
