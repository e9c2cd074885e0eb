"""Test-only helpers that drive the library's fast paths.

``_reference.py`` must stay an oracle independent of the code it checks;
helpers that call that code live here instead.
"""
from __future__ import annotations

import numpy as np


def evolve(op, dist: np.ndarray, t: int) -> np.ndarray:
    """Advance a distribution t steps of ``op.apply`` (t = 0 returns a copy)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    out = dist.copy()
    for _ in range(t):
        out = op.apply(out)
    return out
