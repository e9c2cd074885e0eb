"""Absorbing chain over (marked type-A count, marked type-B count).

During the second marking phase the pair (k_a, k_b) moves on a triangular
grid: a b-card gets marked, an a-card gets marked, or a mark migrates from a
b-card to an a-card.  The exact per-step probabilities of those moves depend
only on (n, a, k_a, k_b), which makes expected absorption times and bound
tables computable by one backward sweep.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .chain_core import CapacityError, check_bias, stream_rng, STREAM_TYPECHAIN

# Largest n whose (n + 1)^2 grid the tables are built on.  A table holds about
# 64 bytes per cell while it is built: at n = 1024 it takes about 0.5 s and
# 64 MiB on a 2-core host, at n = 2048 about 2 s and 250 MB.
MAX_GRID_N = 1024


class TransitionRow(NamedTuple):
    """One-step law of the type-count chain at a given state."""

    p_b_up: float   # (ka, kb) -> (ka, kb + 1)
    p_a_up: float   # (ka, kb) -> (ka + 1, kb)
    p_move: float   # (ka, kb) -> (ka + 1, kb - 1)
    p_stay: float


def _check_state(n: int, a: float, ka, kb) -> None:
    check_bias(a)
    if n < 1:
        raise ValueError("n must be positive")
    if not np.all((0 <= ka) & (ka <= n) & (0 <= kb) & (kb <= n)):
        raise ValueError(f"(ka, kb) = ({ka}, {kb}) outside the 0..{n} grid")


def check_grid(n: int) -> None:
    """Raise CapacityError if the (n + 1)^2 grid is larger than MAX_GRID_N allows."""
    if n > MAX_GRID_N:
        raise CapacityError(f"the type-count grid for n = {n} is over the budget of "
                            f"n = {MAX_GRID_N}")


def check_c1(c1: float) -> None:
    if not 0.5 < c1 < 1.0:
        raise ValueError("c1 must lie strictly between 1/2 and 1")


def _jump_law(n, a, ka, kb):
    """Probabilities (p_b_up, p_a_up, p_move) at (ka, kb), for ints or arrays."""
    b = 2.0 - a
    denom = (2 * n) ** 2
    k1 = ka + kb + 1
    p_b_up = 2.0 * a * b * (n - kb) * k1 / denom
    p_a_up = 2.0 * a * a * (n - ka) * k1 / denom
    p_move = 2.0 * a * (b - a) * (n - ka) * kb / denom
    return p_b_up, p_a_up, p_move


def transition_row(n: int, a: float, ka, kb) -> TransitionRow:
    """Exact move probabilities of the type-count chain at (ka, kb), for ints
    or for int arrays of states, each field then an array of their shape."""
    _check_state(n, a, ka, kb)
    p_b_up, p_a_up, p_move = _jump_law(n, a, ka, kb)
    return TransitionRow(p_b_up=p_b_up, p_a_up=p_a_up, p_move=p_move,
                         p_stay=1.0 - p_b_up - p_a_up - p_move)


def _backward_sweep(w_b, w_a, w_m) -> np.ndarray:
    """Solve T[ka, kb] = (1 + sum w T[next]) / sum w with T[n, n] = 0.

    ``w_b``, ``w_a`` and ``w_m`` are (n + 1, n + 1) weights of the b-mark,
    a-mark and mark-move jumps.  The sweep runs over the diagonals k = ka + kb,
    descending.  The b-mark and a-mark terms read diagonal k + 1 of a
    zero-padded table as arrays, a zero weight adding exactly 0.0; the
    mark-move target (ka + 1, kb - 1) lies on diagonal k, so that term is a
    scalar recurrence in descending ka, added only where its weight is nonzero.
    """
    n = len(w_b) - 1
    den = w_b + w_a + w_m
    table = np.zeros((n + 2, n + 2))
    for k in range(2 * n - 1, -1, -1):
        ka = np.arange(min(n, k), max(0, k - n) - 1, -1)
        kb = k - ka
        acc = 1.0 + w_b[ka, kb] * table[ka, kb + 1]
        acc += w_a[ka, kb] * table[ka + 1, kb]
        line, prev = [], 0.0
        for value, wm, total in zip(acc.tolist(), w_m[ka, kb].tolist(), den[ka, kb].tolist()):
            prev = (value + wm * prev if wm else value) / total
            line.append(prev)
        table[ka, kb] = line
    return table[:-1, :-1].copy()


def expected_absorption(n: int, a: float) -> np.ndarray:
    """Expected steps to reach (n, n) from every grid state, exact."""
    _check_state(n, a, 0, 0)
    check_grid(n)
    return _backward_sweep(*_jump_law(n, a, *np.indices((n + 1, n + 1))))


def absorption_bound_table(n: int, a: float) -> np.ndarray:
    """Normalised worst-case absorption recurrence on the type-count grid.

    The table solves the jump recurrence with weights b (n - kb) for a b-mark,
    a (n - ka) for an a-mark and (b - 1)(n - ka) for a mark move; the value at
    a state times n / (a (2 c1 - 1)) upper-bounds the true expected absorption
    time inside the k >= 2 n c1 regime.  On the kb = 0 boundary (outside that
    regime) the move term has no target and is dropped.
    """
    _check_state(n, a, 0, 0)
    check_grid(n)
    b = 2.0 - a
    ka, kb = np.indices((n + 1, n + 1))
    return _backward_sweep(b * (n - kb), a * (n - ka), (b - 1.0) * (n - ka) * (kb >= 1))


def phase2_time_scale(n: int, a: float, c1: float) -> float:
    """Prefactor n / (a (2 c1 - 1)) restoring step units to the bound table."""
    check_bias(a)
    check_c1(c1)
    return n / (a * (2.0 * c1 - 1.0))


def harmonic_number(m: int) -> float:
    return sum(1.0 / i for i in range(1, m + 1))


def harmonic_probe(n: int, c1: float, a: float) -> dict:
    """Binomially weighted start average of the bound table vs a harmonic sum.

    Starts sit on the diagonal ka + kb = 2 n c1 with weights
    C(d, n - ka) 2^-d where d = 2 n (1 - c1) < n must be an integer.  The
    probe only reports the comparison with H(d); nothing is asserted.
    """
    check_c1(c1)
    d_real = 2 * n * (1.0 - c1)
    d = round(d_real)
    if abs(d_real - d) > 1e-9 or d < 1:
        raise ValueError("2 n (1 - c1) must be a positive integer for the probe")
    table = absorption_bound_table(n, a)
    k = 2 * n - d
    weighted = 0.0
    for ka in range(n - d, n + 1):
        kb = k - ka
        weighted += math.comb(d, n - ka) * 0.5 ** d * table[ka, kb]
    harmonic = harmonic_number(d)
    return {
        "n": n,
        "c1": c1,
        "a": a,
        "diagonal": d,
        "weighted_sum": float(weighted),
        "harmonic": harmonic,
        "ratio": float(weighted / harmonic),
    }


def simulate_absorption(n: int, a: float, start: tuple[int, int],
                        trials: int, seed: int) -> np.ndarray:
    """Monte Carlo absorption step counts via the jump chain.

    Sojourn lengths are geometric with the state's total move probability, so
    each trajectory needs at most 2n draws.  The live trajectories stay
    compacted, each with its trial index, and a trajectory's step count is
    written out when it reaches (n, n).  Deterministic for (seed, trials).
    """
    ka0, kb0 = start
    _check_state(n, a, ka0, kb0)
    if trials < 1:
        raise ValueError("trials must be positive")
    rng = stream_rng(seed, STREAM_TYPECHAIN)
    out = np.zeros(trials, dtype=np.int64)
    trial = np.arange(trials if ka0 + kb0 < 2 * n else 0)
    ka = np.full(trial.size, ka0, dtype=np.int64)
    kb = np.full(trial.size, kb0, dtype=np.int64)
    steps = np.zeros(trial.size, dtype=np.int64)
    while trial.size:
        p_b, p_a, p_m = _jump_law(n, a, ka, kb)
        q = p_b + p_a + p_m
        steps += rng.geometric(q)
        u = rng.random(trial.size) * q
        go_b = u < p_b
        go_a = ~go_b & (u < p_b + p_a)
        go_m = ~go_b & ~go_a
        kb += go_b
        kb -= go_m
        ka += go_a | go_m
        done = ka + kb == 2 * n
        if done.any():
            out[trial[done]] = steps[done]
            live = ~done
            trial, ka, kb, steps = trial[live], ka[live], kb[live], steps[live]
    return out
