"""Simulation and verification lab for the biased random transposition shuffle.

A deck of 2n cards is shuffled by repeatedly picking two cards with a
type-dependent bias and swapping them.  The package provides exact
small-deck distance computations, a batched engine for the two-phase
strong-uniform-time marking scheme, the absorbing type-count chain that
governs the marking tail, and coupon-collector lower-bound tooling, all behind a
reproducible command line.
"""

__version__ = "0.1.0"

from .chain_core import (
    BiasProfile,
    DEFAULT_SEED,
    hands_from_uniforms,
    make_bias_profile,
    stream_rng,
)
from .exact_analysis import (
    CapacityError,
    TransitionOperator,
    build_operator,
    cutoff_profile,
    mixing_time,
    point_mass,
    separation_distance,
    theory_time,
    tv_distance,
)
from .marking import (
    bulk_marking_runs,
    expected_full_marking_time,
    expected_phase1_time,
    mark_threshold,
    uniformity_test,
)
from .type_chain import (
    TransitionRow,
    absorption_bound_table,
    expected_absorption,
    harmonic_probe,
    phase2_time_scale,
    transition_row,
    variance_bound,
)
from .bounds import (
    coupon_expectation,
    lower_bound_sweep,
    simulate_walks,
    uniform_fixed_mass,
    uniform_fixed_pmf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
