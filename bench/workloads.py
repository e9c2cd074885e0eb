"""The benchmark's workloads: what one job runs, what it counts and how it is checked.

Every workload is a closed loop with a single client: the harness runs one
job, waits for it, and starts the next.  A job is a fixed list of parts,
each one library call or one CLI process; ``parts(seed)`` lists them as
(label, callable) pairs so the harness can time each part.  ``row_steps``
counts a part's useful Monte Carlo row-steps (trial x step actually
advanced, read from the returned result) and ``digest`` hashes its output.
``check`` compares the pooled outputs of a run with the exact half of the
lab; ``expectations`` computes those exact values, so a test can feed the
checks a wrong expectation and see them fail.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import ClassVar, NamedTuple

import numpy as np
from scipy import stats

import biased_shuffle
from biased_shuffle import bounds, cli, marking, type_chain
from biased_shuffle.chain_core import make_bias_profile
from biased_shuffle.exact_analysis import theory_time
from spans import walk_row_steps

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
CHILD_TIMEOUT_S = 150


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


class Part(NamedTuple):
    """One timed part of a job and what it returned."""

    label: str
    out: object
    wall_s: float


def job_seed(seed: int, job: int) -> int:
    """Input seed of job ``job`` in a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, job]).generate_state(1)[0])


def sha256(*arrays) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def summarize(workload, parts: list[Part]) -> tuple[int, dict]:
    """A job's row-steps and its digests, keyed by label (``label#i`` for repeats)."""
    digests, seen = {}, Counter()
    for part in parts:
        key = f"{part.label}#{seen[part.label]}" if seen[part.label] else part.label
        seen[part.label] += 1
        digests[key] = workload.digest(part.label, part.out)
    return sum(workload.row_steps(p.label, p.out) for p in parts), digests


def outputs(jobs: list[list[Part]], label: str) -> list:
    """Every output with ``label`` across the jobs of a run."""
    return [part.out for parts in jobs for part in parts if part.label == label]


def mean_within_sigmas(name: str, samples, expected: float, sigmas: float = 4.0) -> Check:
    x = np.concatenate([np.asarray(s, dtype=float).ravel() for s in samples])
    sem = x.std(ddof=1) / math.sqrt(x.size)
    z = (x.mean() - expected) / sem
    return Check(name, bool(abs(z) < sigmas),
                 f"mean {x.mean():.3f} vs exact {expected:.3f}: {z:+.2f} sigma (limit {sigmas})")


def child_env() -> dict:
    """Environment for fresh interpreters: the package from ``src``, BLAS pinned by the caller."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class CliRun(NamedTuple):
    argv: list
    code: int
    stdout: bytes
    trace: dict | None   # {"import_s", "spans"} written by cli_child.py


def spawn_cli(argv: list, trace_file: Path | None = None) -> CliRun:
    """Run one CLI job in a fresh interpreter and wait for it."""
    if trace_file is None:
        cmd = [sys.executable, "-m", "biased_shuffle.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH / "cli_child.py"), str(trace_file), *argv]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    trace = None
    if trace_file is not None and trace_file.exists():
        trace = json.loads(trace_file.read_text())
        trace_file.unlink()
    return CliRun(argv, proc.returncode, proc.stdout, trace)


@dataclass
class MarkingDeck256:
    """Bulk marking at deck 256, then the type-chain tail from the phase-two start."""

    name: ClassVar[str] = "marking-deck256"
    in_process: ClassVar[bool] = True
    # The cheaper a = 1 half is rerun for the determinism check.
    REPEAT: ClassVar[tuple] = ("marking a=1.0", "absorption a=1.0")
    deck: int = 256
    c1: float = 0.75
    a_values: tuple = (0.5, 1.0)
    trials: int = 200
    absorb_trials: int = 4000

    @property
    def absorb_start(self) -> tuple[int, int]:
        half = math.ceil(self.c1 * self.deck) // 2
        return half, half

    def warm_up(self) -> None:
        for a in self.a_values:
            marking.bulk_marking_runs(make_bias_profile(4, a), self.c1, 4, seed=0)
            type_chain.simulate_absorption(4, a, (3, 3), 4, seed=0)

    def _marking(self, a: float, seed: int):
        return marking.bulk_marking_runs(make_bias_profile(self.deck // 2, a), self.c1,
                                         self.trials, seed)

    def _absorption(self, a: float, seed: int):
        return type_chain.simulate_absorption(self.deck // 2, a, self.absorb_start,
                                              self.absorb_trials, seed)

    def parts(self, seed: int, trace_dir: Path | None = None) -> list:
        out = []
        for a in self.a_values:
            out.append((f"marking a={a}", partial(self._marking, a, seed)))
            out.append((f"absorption a={a}", partial(self._absorption, a, seed)))
        return out

    def row_steps(self, label: str, out) -> int:
        return int(out.t_full.astype(np.int64).sum()) if label.startswith("marking") else 0

    def digest(self, label: str, out) -> str:
        if label.startswith("marking"):
            return sha256(out.decks, out.t_phase1, out.t_full)
        return sha256(out)

    def expectations(self) -> dict:
        n = self.deck // 2
        out = {}
        for a in self.a_values:
            profile = make_bias_profile(n, a)
            out[a] = {
                "t_phase1": marking.expected_phase1_time(profile, self.c1),
                "t_full": marking.expected_full_marking_time(profile, self.c1),
                "absorption": float(type_chain.expected_absorption(n, a)[self.absorb_start]),
            }
        return out

    def check(self, jobs: list[list[Part]], expect) -> list[Check]:
        checks = []
        for a in self.a_values:
            results = outputs(jobs, f"marking a={a}")
            checks.append(mean_within_sigmas(
                f"a={a} mean t_phase1", [r.t_phase1 for r in results], expect[a]["t_phase1"]))
            checks.append(mean_within_sigmas(
                f"a={a} mean t_full", [r.t_full for r in results], expect[a]["t_full"]))
            checks.append(mean_within_sigmas(
                f"a={a} mean absorption from {self.absorb_start}",
                outputs(jobs, f"absorption a={a}"), expect[a]["absorption"]))
        return checks


@dataclass
class WalkDeck1024:
    """Coupled TV lower-bound sweep at deck 1024, then touch times at deck 100."""

    name: ClassVar[str] = "walk-deck1024"
    in_process: ClassVar[bool] = True
    REPEAT: ClassVar[tuple] = ("sweep a=1.0", "touch")
    deck: int = 1024
    a_values: tuple = (0.5, 1.0)
    threshold: int = 6
    multiples: tuple = (0.25, 0.5, 0.8, 1.0, 1.5)
    trials: int = 500
    touch_deck: int = 100
    touch_a: float = 0.5
    touch_threshold: int = 5
    touch_trials: int = 5000

    def checkpoints(self, profile) -> list[int]:
        return [theory_time(profile, m) for m in self.multiples]

    def warm_up(self) -> None:
        profile = make_bias_profile(4, self.touch_a)
        bounds.lower_bound_sweep(profile, self.checkpoints(profile), 1, 4, seed=0)
        bounds.simulate_walks(profile, [1], 4, seed=0, touch_threshold=1)

    def _sweep(self, a: float, seed: int):
        profile = make_bias_profile(self.deck // 2, a)
        return bounds.lower_bound_sweep(profile, self.checkpoints(profile), self.threshold,
                                        self.trials, seed)

    def _touch(self, seed: int):
        return bounds.simulate_walks(
            make_bias_profile(self.touch_deck // 2, self.touch_a), [1],
            self.touch_trials, seed, touch_threshold=self.touch_threshold)

    def parts(self, seed: int, trace_dir: Path | None = None) -> list:
        return [(f"sweep a={a}", partial(self._sweep, a, seed)) for a in self.a_values] + [
            ("touch", partial(self._touch, seed))]

    def row_steps(self, label: str, out) -> int:
        if label == "touch":
            return walk_row_steps(out)
        return self.trials * max(row.t for row in out)

    def digest(self, label: str, out) -> str:
        if label == "touch":
            return sha256(out.counts, out.touch_steps, out.touch_picks)
        return sha256(np.array(out, dtype=float))

    def expectations(self) -> dict:
        return {"bound_cap": 0.2,
                "touch_picks": bounds.coupon_expectation(
                    self.touch_deck // 2, self.touch_threshold, self.touch_a)}

    def check(self, jobs: list[list[Part]], expect) -> list[Check]:
        checks = []
        for a in self.a_values:
            for job, rows in enumerate(outputs(jobs, f"sweep a={a}")):
                last = rows[-1]
                checks.append(Check(
                    f"job {job} a={a} bound at t={last.t}", last.bound <= expect["bound_cap"],
                    f"{last.bound:.4f} <= {expect['bound_cap']}"))
        picks = np.concatenate([t.touch_picks for t in outputs(jobs, "touch")]).astype(float)
        rel = abs(picks.mean() - expect["touch_picks"]) / expect["touch_picks"]
        checks.append(Check("touch-pick mean", bool(rel < 0.01),
                            f"{picks.mean():.3f} vs {expect['touch_picks']:.3f}: "
                            f"rel. err {rel:.4%} (< 1%)"))
        return checks


@dataclass
class SmallDeckCli:
    """Fresh-interpreter CLI jobs, one after another."""

    name: ClassVar[str] = "small-deck-cli"
    in_process: ClassVar[bool] = False
    # The cheapest job whose output depends on the seed, for the determinism check.
    REPEAT: ClassVar[tuple] = ("marking_runs",)
    version_probes: int = 1
    exact_deck: int = 8
    uniformity_trials: int = 120_000
    runs_trials: int = 2000
    typechain_n: int = 200
    conjecture_n: str = "4,8,16"

    def jobs(self, seed: int) -> list[tuple[str, list]]:
        """The round's CLI jobs, with the ``--version`` probes spread evenly among them."""
        s = str(seed)
        work = [
            ("exact", ["exact", "--deck", str(self.exact_deck), "-a", "0.5"]),
            ("marking_uniformity", ["marking", "--mode", "uniformity", "--deck", "4",
                                    "-a", "0.5", "--c1", "0.6",
                                    "--trials", str(self.uniformity_trials), "--seed", s]),
            ("marking_runs", ["marking", "--deck", "6", "--trials", str(self.runs_trials),
                              "--seed", s]),
            ("typechain", ["typechain", "--mode", "absorption", "--n",
                           str(self.typechain_n), "-a", "0.5"]),
            ("conjecture", ["conjecture", "--n-list", self.conjecture_n]),
        ]
        every = math.ceil(len(work) / self.version_probes)
        out = []
        for i, job in enumerate(work):
            if i % every == 0 and i // every < self.version_probes:
                out.append(("version", ["--version"]))
            out.append(job)
        return out

    def warm_up(self) -> None:
        cli.build_parser()

    def parts(self, seed: int, trace_dir: Path | None = None) -> list:
        return [(label, partial(spawn_cli, argv, trace_dir and trace_dir / f"{i}.json"))
                for i, (label, argv) in enumerate(self.jobs(seed))]

    def row_steps(self, label: str, out: CliRun) -> int:
        if out.code != 0:
            return 0
        body = out.stdout.decode()
        if label == "marking_uniformity":
            report = json.loads(body.split("\n", 1)[1])
            return round(report["trials"] * report["mean_t_full"])
        if label == "marking_runs":
            return sum(int(line.split(",")[2]) for line in body.splitlines()[3:])
        return 0

    def digest(self, label: str, out: CliRun) -> str:
        return hashlib.sha256(out.stdout).hexdigest()

    def expectations(self) -> dict:
        return {"version": biased_shuffle.__version__, "p_min": 0.001}

    def check(self, jobs: list[list[Part]], expect) -> list[Check]:
        checks, chi2 = [], []
        for job, parts in enumerate(jobs):
            for label, run, _ in parts:
                tag = f"job {job} {label}"
                checks.append(Check(f"{tag} exit code", run.code == 0, f"exit {run.code}"))
                if run.code != 0:
                    continue
                lines = run.stdout.decode().splitlines()
                if label == "version":
                    checks.append(Check(f"{tag} output", lines == [expect["version"]],
                                        repr(lines[:1])))
                    continue
                text = lines[0][len("# config "):]
                try:
                    params = cli.parse_header(lines[0])
                    ok = json.dumps(params, sort_keys=True) == text
                except ValueError as exc:
                    params, ok = {}, False
                    text = str(exc)
                checks.append(Check(f"{tag} header round-trip",
                                    ok and params.get("command") == run.argv[0], text))
                if label == "exact":
                    result = json.loads(lines[1][len("# result "):])
                    tv, sep = result["mixing_time_tv"], result["mixing_time_separation"]
                    checks.append(Check(f"{tag} mixing_time_tv <= mixing_time_separation",
                                        tv <= sep, f"{tv} <= {sep}"))
                elif label == "marking_uniformity":
                    report = json.loads("\n".join(lines[1:]))
                    chi2.append((report["statistic"], report["dof"]))
        if chi2:
            # Rounds are independent, so their chi-square statistics add up.
            statistic, dof = map(sum, zip(*chi2))
            p = float(stats.chi2.sf(statistic, dof))
            checks.append(Check(f"uniformity p_value over {len(chi2)} rounds",
                                p > expect["p_min"], f"{p:.4g} > {expect['p_min']}"))
        return checks


WORKLOADS = {w.name: w for w in (MarkingDeck256, WalkDeck1024, SmallDeckCli)}
