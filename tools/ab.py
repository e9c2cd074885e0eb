"""In-process A/B timing of two source trees of the package.

Usage, from the repository root::

    python3 tools/ab.py PARENT CHANGE --shape NAME [--shape NAME ...] [--pairs N] [--allow-diff]

PARENT and CHANGE are directories that each hold ``src/biased_shuffle``, for
example a ``git archive`` of the parent commit and the working tree.  Both
packages load into one interpreter, each under its own module name, so
neither shadows the other.  For each shape, an untimed warm-up round builds
the cached tables; then each pair runs the shape twice on each side, in the
order A B B A (A the parent) on even pairs and B A A B on odd ones, on the
pair's seed, timed with ``time.process_time``, and keeps each side's faster
call.  Every call's outputs must be byte-equal to the others of its pair,
or the script exits 1 and names the shape.  ``--allow-diff`` times a change
that draws differently: the two sides' outputs may then differ, but each
side's two calls in a pair must still be byte-equal, so a side that is not
deterministic still exits 1.  Pass the same tree twice for an A/A control.

Prints one Markdown table row per shape: the median seconds of each side,
the median change / parent ratio with its quartiles, and the pairs in which
the change was faster.  The seconds are medians over different seeds, so
only the ratio column compares like with like.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import math
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

MODULES = ("chain_core", "marking", "bounds", "type_chain")
C1 = 0.75


def load_tree(root: str, name: str) -> SimpleNamespace:
    """The modules of ``root``'s ``src/biased_shuffle``, loaded as package ``name``."""
    package = Path(root, "src", "biased_shuffle")
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no src/biased_shuffle under {root}")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def marking(deck: int, a: float, runs: int):
    def run(pkg, seed):
        out = pkg.marking.bulk_marking_runs(pkg.chain_core.make_bias_profile(deck // 2, a),
                                            C1, runs, seed)
        return out.decks, out.t_phase1, out.t_full
    return run


def absorption(n: int, a: float, trials: int, start=None):
    """The jump chain from ``start``, by default the phase-two start at C1."""
    start = start or (math.ceil(C1 * 2 * n) // 2,) * 2

    def run(pkg, seed):
        return (pkg.type_chain.simulate_absorption(n, a, start, trials, seed),)
    return run


def marking_deck256_job(pkg, seed):
    """Both marking and both absorption calls of one ``marking-deck256`` job."""
    out = ()
    for a in (0.5, 1.0):
        out += marking(256, a, 200)(pkg, seed) + absorption(128, a, 4000)(pkg, seed)
    return out


def walk(deck: int, a: float, trials: int, multiples=(), touch=None):
    def run(pkg, seed):
        profile = pkg.chain_core.make_bias_profile(deck // 2, a)
        ts = [pkg.chain_core.theory_time(profile, m) for m in multiples] or [1]
        out = pkg.bounds.simulate_walks(profile, ts, trials, seed, touch_threshold=touch)
        return tuple(x for x in out[1:] if x is not None)
    return run


SHAPES = {
    "marking-256x200-a0.5": marking(256, 0.5, 200),
    "marking-256x200-a1": marking(256, 1.0, 200),
    "marking-64x10000": marking(64, 0.5, 10_000),
    "marking-32x10000": marking(32, 0.5, 10_000),
    "marking-12x300": marking(12, 0.5, 300),
    "marking-8x10000": marking(8, 0.5, 10_000),
    "marking-4x120000": marking(4, 0.5, 120_000),
    "job-marking-deck256": marking_deck256_job,
    "walk-1024x500": walk(1024, 0.5, 500, multiples=(0.25, 0.5, 0.8, 1.0, 1.5)),
    "touch-100x5000": walk(100, 0.5, 5000, touch=5),
    "absorption-128x4000": absorption(128, 0.5, 4000),
    "absorption-128x4000-a1": absorption(128, 1.0, 4000),
    # from the origin, as criterion 6 starts; three jumps in four have q >= 1/3
    "absorption-4x30000-a1-origin": absorption(4, 1.0, 30_000, start=(0, 0)),
}


def digest(arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        x = np.ascontiguousarray(x)
        h.update(f"{x.dtype.str}{x.shape}".encode())
        h.update(x.tobytes())
    return h.hexdigest()


def timed(run, pkg, seed) -> tuple[float, str]:
    gc.collect()
    start = time.process_time()
    out = run(pkg, seed)
    return time.process_time() - start, digest(out)


def measure(name: str, sides, pairs: int, allow_diff: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair seconds of (parent, change); exits 1 when any call's outputs
    differ, or with ``allow_diff`` when one side's two calls differ.

    A pair runs the sides in the order A B B A, or B A A B on odd pairs, and
    each side's time is the smaller of its two calls.
    """
    run = SHAPES[name]
    secs = np.full((pairs, 2), np.inf)
    for pair in range(-1, pairs):  # pair -1 is the untimed warm-up
        seed = max(pair, 0)
        first = pair % 2
        digests = (set(), set())
        for side in (first, 1 - first, 1 - first, first):
            t, out = timed(run, sides[side], seed)
            digests[side].add(out)
            if pair >= 0:
                secs[pair, side] = min(secs[pair, side], t)
        if len(digests[0]) > 1 or len(digests[1]) > 1 or (
                digests[0] != digests[1] and not allow_diff):
            raise SystemExit(f"error: outputs differ on shape {name} at seed {seed}")
    return secs[:, 0], secs[:, 1]


def table_row(name: str, parent: np.ndarray, change: np.ndarray) -> str:
    ratio = change / parent
    q1, median, q3 = np.percentile(ratio, [25, 50, 75])
    return (f"| {name} | {ratio.size} | {np.median(parent):.3f} | {np.median(change):.3f} "
            f"| {median:.3f} ({q1:.3f}–{q3:.3f}) | {int((ratio < 1).sum())}/{ratio.size} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="tree holding src/biased_shuffle, the baseline")
    parser.add_argument("change", help="tree holding src/biased_shuffle, the change")
    parser.add_argument("--shape", action="append", required=True, choices=sorted(SHAPES),
                        help="shape to time; repeat for more")
    parser.add_argument("--pairs", type=int, default=15, help="timed pairs per shape")
    parser.add_argument("--allow-diff", action="store_true",
                        help="let the two sides' outputs differ; each side's own "
                             "calls must still agree")
    ns = parser.parse_args(argv)
    if ns.pairs < 1:
        parser.error("--pairs must be positive")
    sides = (load_tree(ns.parent, "ab_parent"), load_tree(ns.change, "ab_change"))
    print("| shape | pairs | parent s | change s | ratio, median (quartiles) | change faster |")
    print("| --- | --- | --- | --- | --- | --- |")
    for name in ns.shape:
        print(table_row(name, *measure(name, sides, ns.pairs, ns.allow_diff)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
