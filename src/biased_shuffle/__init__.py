"""Simulation and verification lab for the biased random transposition shuffle.

A deck of 2n cards is shuffled by repeatedly picking two cards with a
type-dependent bias and swapping them.  The package provides exact
small-deck distance computations, a batched engine for the two-phase
strong-uniform-time marking scheme, the absorbing type-count chain that
governs the marking tail, and coupon-collector lower-bound tooling, all behind a
reproducible command line.
"""

__version__ = "0.3.0"
