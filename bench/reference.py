"""Reference kernel that gauges how fast the host runs at a given moment.

The host shares its cores with other tenants.  Their load makes the same
code run at one of two speeds, about 1.7x apart, switching every few tenths
of a second, and the share of time spent slow drifts over minutes.  The
slowdown shows in CPU time as much as in wall time, so it cannot be
subtracted, but a fixed piece of similar work slows down by nearly the same
factor.  :class:`Gauge` runs that reference before and after every timing in
a run.  The mean reference over the run estimates the run's mean slowdown,
the same quantity a mean of the run's timings carries, so
``mean timing * nominal / mean reference`` is the timing at the host's
nominal speed.  Means, not medians: a median of samples from two speeds
jumps between them as the slow share crosses one half.

The references use numpy and the standard library, never the package, so a
change to the package cannot move them.  In-process parts are gauged with
:func:`kernel`, a walk-like numpy loop over small arrays (the shape of the
package's engines).  Fresh interpreters are gauged with a fresh interpreter that
does what a CLI child does, at a smaller size: it starts, imports numpy and
a set of pure-Python standard-library packages, and runs the kernel
(``python3 bench/reference.py``).  Start-up and imports respond to load
differently from warm numpy loops, so they need a reference of their own.

Usage as a script: ``python3 bench/reference.py`` does the imports and runs
the kernel once.
"""
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# Roughly the references' wall times on an idle 2-core Xeon host.  They only
# set the scale: a gauged time is in seconds at about that host's idle speed.
KERNEL_NOMINAL_S = 0.018
CHILD_NOMINAL_S = 0.25
# A timing that starts less than this long after the last reference gets
# no reference of its own before it.
REUSE_S = 0.2
CHILD_TIMEOUT_S = 60


def kernel(batch: int = 1000, deck: int = 256, steps: int = 250) -> int:
    """Random transpositions on ``batch`` decks with fancy indexing, then an argsort."""
    rng = np.random.default_rng(12345)
    rows = np.arange(batch)
    pos = np.tile(np.arange(deck, dtype=np.int16), (batch, 1))
    fixed = np.zeros(batch, dtype=np.int16)
    for _ in range(steps):
        u = rng.random((batch, 2))
        right = (u[:, 0] * deck).astype(np.int64)
        left = (u[:, 1] * deck).astype(np.int64)
        p_r = pos[rows, right]
        p_l = pos[rows, left]
        fixed += (p_r == right).astype(np.int16) - (p_l == left).astype(np.int16)
        pos[rows, right] = p_l
        pos[rows, left] = p_r
    order = np.argsort(pos[:, :64], axis=1, kind="stable")
    return int(fixed.sum()) + int(order[0, 0])


def _kernel_s() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _child_s() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve())], check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


class Gauge:
    """Times calls between reference runs; ``scale`` maps a run's mean timing to nominal speed."""

    def __init__(self, child: bool):
        self.sample = _child_s if child else _kernel_s
        self.nominal = CHILD_NOMINAL_S if child else KERNEL_NOMINAL_S
        self.references: list[float] = []
        self._last_at = -math.inf

    def _reference(self) -> None:
        self.references.append(self.sample())
        self._last_at = time.perf_counter()

    def timed(self, fn) -> tuple[object, float]:
        """(fn's result, its wall time), with references around the call."""
        if time.perf_counter() - self._last_at >= REUSE_S:
            self._reference()
        start = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - start
        self._reference()
        return out, wall

    def scale(self) -> float:
        """Factor from this run's wall times to times at nominal host speed."""
        return self.nominal / statistics.fmean(self.references)


if __name__ == "__main__":
    # Module loading (unmarshal and module bodies) like the package's own
    # scipy.stats import; none of these modules is used.
    import asyncio  # noqa: F401
    import decimal  # noqa: F401
    import email.mime.multipart  # noqa: F401
    import http.client  # noqa: F401
    import unittest  # noqa: F401
    import xml.dom.minidom  # noqa: F401
    kernel()
