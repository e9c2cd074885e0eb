"""Span recorder that wraps the library's public functions from outside.

The wrappers replace each traced function wherever the package's modules
hold a reference to it, so ``from .chain_core import hands_from_uniforms``
in ``marking`` and ``bounds`` is traced as well as direct module calls.
Spans stay in memory as ``[name, start, end, parent, counters]`` lists;
:func:`aggregate` turns them into per-name call counts, total and self
times (self time is a span's duration minus the duration of its children)
and summed counters.
"""
from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("chain_core", "marking", "exact_analysis", "type_chain", "bounds", "cli")


def _draws(args, kwargs, result):
    return {"draws": int(np.size(args[1]))}


def _marking_counts(args, kwargs, result):
    t_full = result.t_full.astype(np.int64)
    return {"row_steps": int(t_full.sum()),
            "phase2_row_steps": int((t_full - result.t_phase1).sum()),
            "loop_steps": int(t_full.max())}


def _operator_counts(args, kwargs, result):
    return {"states": int(result.state_count), "table_bytes": int(result.table.nbytes)}


def _apply_counts(args, kwargs, result):
    return {"states": int(np.size(args[1]))}


def _absorption_counts(args, kwargs, result):
    return {"trials": int(np.size(result))}


def walk_row_steps(result, block_size: int | None = None) -> int:
    """Trial x step count a ``simulate_walks`` call advanced.

    Each block of trials steps until its last checkpoint and, when touch
    times are tracked, until its slowest trial's touch step.
    """
    from biased_shuffle import bounds
    t_max = max(result.t_values, default=0)
    if result.touch_steps is None:
        return result.counts.shape[0] * t_max
    block = block_size or bounds.DEFAULT_BLOCK_SIZE
    steps = result.touch_steps
    return sum(steps[i:i + block].size * max(t_max, int(steps[i:i + block].max()))
               for i in range(0, steps.size, block))


def _walk_counts(args, kwargs, result):
    return {"row_steps": walk_row_steps(result, kwargs.get("block_size"))}


# (module, attribute path, counter function or None)
TARGETS = (
    ("chain_core", "hands_from_uniforms", _draws),
    ("marking", "bulk_marking_runs", _marking_counts),
    ("marking", "uniformity_test", None),
    ("exact_analysis", "build_operator", _operator_counts),
    ("exact_analysis", "TransitionOperator.apply", _apply_counts),
    ("exact_analysis", "cutoff_profile", None),
    ("exact_analysis", "mixing_time", None),
    ("exact_analysis", "encode_many", None),
    ("type_chain", "simulate_absorption", _absorption_counts),
    ("type_chain", "expected_absorption", None),
    ("type_chain", "harmonic_probe", None),
    ("bounds", "simulate_walks", _walk_counts),
    ("bounds", "lower_bound_sweep", None),
    ("cli", "main", None),
)


class Tracer:
    """Records nested spans while ``active`` is true; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, 0.0, 0.0, parent, None]
            self.spans.append(span)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                span[1] = start
                self._stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Patch every traced function in every module of the package."""
        modules = [importlib.import_module("biased_shuffle")]
        modules += [importlib.import_module(f"biased_shuffle.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for module_name, path, count in TARGETS:
            owner = by_name[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{module_name}.{path}", original, count)
            setattr(owner, attr, wrapper)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)


def aggregate(spans, into: dict | None = None) -> tuple[dict, float]:
    """Per-name {calls, total_s, self_s, counters...} and the summed top-level time."""
    stats = {} if into is None else into
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    top = 0.0
    for i, (name, start, end, parent, counters) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child[i]
        for key, value in (counters or {}).items():
            entry[key] = entry.get(key, 0) + value
        if parent < 0:
            top += end - start
    return stats, top
