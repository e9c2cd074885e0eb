"""Benchmark of the biased-shuffle lab.

Usage, from the repository root::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see ``workloads.py`` and ``README.md``) as a closed loop
with a single client for about S seconds, checks its outputs against the
exact half of the lab and prints, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
jobs and reports the per-layer metrics.  Earlier lines carry the provenance
block, per-job digests and every check; the same record is written to
``.bench_out/`` under the repository root.
"""
import os

# Pin BLAS pools before numpy loads; children inherit the environment.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
# Fresh-interpreter samples (set-up, start-up, import time) are taken after a
# job when this many seconds have passed since the last ones, so they spread
# over the whole run; then they are topped up to MIN_SAMPLES of each kind.
SAMPLE_EVERY_S = 10.0
MIN_SAMPLES = 3


def spread(values) -> dict:
    """Sample count, min, median and max of a list of timings."""
    if not values:
        return {"n": 0}
    return {"n": len(values), "min": min(values), "median": statistics.median(values),
            "max": max(values)}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if ".ns_per_" in name:
        return "ns"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def provenance(args) -> dict:
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    cpu_model = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        tag = f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches[tag] = (index / "size").read_text().strip()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def setup_probe(name: str) -> float:
    """Set-up time of ``probe.py`` in a fresh interpreter."""
    from workloads import CHILD_TIMEOUT_S, child_env
    proc = subprocess.run([sys.executable, str(BENCH / "probe.py"), name], env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def import_probe() -> tuple[float, float]:
    """(import biased_shuffle.cli, scipy.stats part of it) in seconds, from -X importtime."""
    from workloads import CHILD_TIMEOUT_S, child_env
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import biased_shuffle.cli"],
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    cli_us, stats_rows = 0, []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        module = name.strip()
        if module == "biased_shuffle.cli":
            cli_us = int(cumulative)
        elif module == "scipy.stats" or module.startswith("scipy.stats."):
            stats_rows.append((len(name) - len(name.lstrip()), int(cumulative)))
    # scipy.stats submodules at the outermost nesting level are the ones the
    # package import pulled in directly; their cumulative times add up.
    top = min((depth for depth, _ in stats_rows), default=0)
    stats_us = sum(us for depth, us in stats_rows if depth == top)
    return cli_us / 1e6, stats_us / 1e6


def closed_loop(step, seconds: float) -> list:
    """Call step(0), step(1), ... back to back until about ``seconds`` have passed."""
    records, start = [], time.perf_counter()
    while True:
        records.append(step(len(records)))
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(records) >= seconds:
            return records


def timed(fn) -> tuple[object, float]:
    start = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - start


def run_parts(parts, gauge=None) -> list:
    """Run a job's parts in order, timing each; a gauge also takes references around each."""
    from workloads import Part
    return [Part(label, *(gauge.timed(fn) if gauge else timed(fn))) for label, fn in parts]


def mean_job_s(jobs: list) -> float:
    """A job's wall time: the sum over its parts of each part's mean over the jobs."""
    walls = {}
    for part in (part for job in jobs for part in job["out"]):
        walls.setdefault(part.label, []).append(part.wall_s)
    return sum(statistics.fmean(walls[part.label]) for part in jobs[0]["out"])


class Harness:
    """Runs a workload's jobs, optionally traced, and keeps what the metrics need."""

    def __init__(self, workload, seed: int, trace: bool):
        from reference import Gauge
        from spans import Tracer
        self.wl = workload
        self.seed = seed
        # Jobs are gauged like their parts run: in this process or in fresh
        # interpreters.  Fresh-interpreter probes always use a child gauge.
        self.gauge = Gauge(child=not workload.in_process)
        self.probe_gauge = Gauge(child=True) if workload.in_process else self.gauge
        self.tracer = None
        self.stats: dict = {}
        self.cli_walls: dict = {}
        self.cli_imports: list = []
        self.cli_bytes = 0
        self.accounted = 0.0
        self.samples = {"import": []} if trace else {"setup_s": [], "startup_s": []}
        if trace and workload.in_process:
            self.tracer = Tracer()
            self.tracer.install()

    def job(self, k: int, traced: bool, trace_dir: Path | None = None) -> dict:
        from spans import aggregate
        from workloads import job_seed, summarize
        seed = job_seed(self.seed, k)
        if self.tracer is not None:
            self.tracer.active = traced
        parts = run_parts(self.wl.parts(seed, trace_dir if traced else None), self.gauge)
        if self.tracer is not None:
            self.tracer.active = False
        if traced and self.tracer is not None:
            _, top = aggregate(self.tracer.spans, into=self.stats)
            self.accounted += top
            self.tracer.spans.clear()
        elif traced:
            for part in parts:
                self.cli_walls.setdefault(part.label, []).append(part.wall_s)
                self.cli_bytes += len(part.out.stdout)
                if part.out.trace is not None:
                    _, top = aggregate(part.out.trace["spans"], into=self.stats)
                    self.cli_imports.append(part.out.trace["import_s"])
                    self.accounted += top + part.out.trace["import_s"]
        row_steps, digests = summarize(self.wl, parts)
        return {"job": k, "seed": seed, "traced": traced,
                "wall_s": sum(part.wall_s for part in parts),
                "parts_s": [part.wall_s for part in parts],
                "row_steps": row_steps, "digests": digests, "out": parts}


def layer_metrics(h: Harness, traced_jobs: list, plain_jobs: list) -> dict:
    from workloads import SmallDeckCli
    n = len(traced_jobs)

    def total(name, key):
        return h.stats.get(name, {}).get(key, 0)

    def per_job(name, key):
        return total(name, key) / n

    def ns_per(name, count_key, time_key="self_s"):
        count = total(name, count_key)
        return 1e9 * total(name, time_key) / count if count else 0.0

    m = {}
    hands = "chain_core.hands_from_uniforms"
    for key in ("calls", "draws", "self_s"):
        m[f"{hands}.{key}"] = per_job(hands, key)
    m[f"{hands}.ns_per_draw"] = ns_per(hands, "draws")
    bulk = "marking.bulk_marking_runs"
    for key in ("self_s", "row_steps", "phase2_row_steps", "loop_steps"):
        m[f"{bulk}.{key}"] = per_job(bulk, key)
    m[f"{bulk}.ns_per_row_step"] = ns_per(bulk, "row_steps")
    build = "exact_analysis.build_operator"
    m[f"{build}.s"] = per_job(build, "total_s")
    m[f"{build}.states"] = per_job(build, "states")
    m[f"{build}.table_bytes"] = per_job(build, "table_bytes")
    apply = "exact_analysis.TransitionOperator.apply"
    m[f"{apply}.calls"] = per_job(apply, "calls")
    m[f"{apply}.self_s"] = per_job(apply, "self_s")
    m[f"{apply}.ns_per_state"] = ns_per(apply, "states")
    absorb = "type_chain.simulate_absorption"
    m[f"{absorb}.self_s"] = per_job(absorb, "self_s")
    m[f"{absorb}.ns_per_trial"] = ns_per(absorb, "trials")
    walks = "bounds.simulate_walks"
    for key in ("self_s", "row_steps"):
        m[f"{walks}.{key}"] = per_job(walks, key)
    m[f"{walks}.ns_per_row_step"] = ns_per(walks, "row_steps")
    for name in ("marking.uniformity_test", "exact_analysis.cutoff_profile",
                 "exact_analysis.mixing_time", "exact_analysis.encode_many",
                 "type_chain.expected_absorption", "type_chain.harmonic_probe",
                 "bounds.lower_bound_sweep", "cli.main"):
        m[f"{name}.self_s"] = per_job(name, "self_s")

    imports = h.samples["import"]
    m["cli.import_s"] = min(cli_s for cli_s, _ in imports)
    m["cli.import.scipy_stats_s"] = min(stats_s for _, stats_s in imports)
    m["cli.child_import_s"] = min(h.cli_imports, default=0.0)
    m["cli.out_bytes"] = h.cli_bytes / n
    for label in dict(SmallDeckCli().jobs(0)):
        walls = h.cli_walls.get(label)
        m[f"cli.job.{label}_s"] = statistics.fmean(walls) * h.gauge.scale() if walls else 0.0

    traced_wall = mean_job_s(traced_jobs) * h.gauge.scale()
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - mean_job_s(plain_jobs) * h.gauge.scale()
    m["trace.accounted_frac"] = h.accounted / sum(j["wall_s"] for j in traced_jobs)
    return m


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: returns (metrics, record with jobs, checks and samples)."""
    from workloads import Check, spawn_cli, summarize
    h = Harness(workload, seed, trace)

    def setup():
        return h.probe_gauge.timed(lambda: setup_probe(workload.name))[0]

    def startup():
        return h.probe_gauge.timed(lambda: spawn_cli(["--version"]))[1]

    probes = {"import": [import_probe],
              "setup_s": [setup],
              # Start-up is short and noisy, so it gets two samples each time.
              "startup_s": [startup] * 2}
    sampled_at = [-SAMPLE_EVERY_S]

    def take_samples():
        for kind, values in h.samples.items():
            values.extend(probe() for probe in probes[kind])
        sampled_at[0] = time.perf_counter()

    if workload.in_process:
        workload.warm_up()
    OUT_DIR.mkdir(exist_ok=True)
    trace_dir = Path(tempfile.mkdtemp(prefix="spans-", dir=OUT_DIR))
    try:
        def step(k):
            if trace:
                order = (False, True) if k % 2 == 0 else (True, False)
                done = [h.job(k, traced, trace_dir) for traced in order]
            else:
                done = [h.job(k, False)]
            if time.perf_counter() - sampled_at[0] >= SAMPLE_EVERY_S:
                take_samples()
            return done
        jobs = [job for done in closed_loop(step, seconds) for job in done]
    finally:
        shutil.rmtree(trace_dir, ignore_errors=True)
    while min(len(v) for v in h.samples.values()) < MIN_SAMPLES:
        take_samples()
    plain = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]

    checks = []
    first = plain[0]
    _, again = summarize(workload, run_parts(
        (label, fn) for label, fn in workload.parts(first["seed"])
        if label in workload.REPEAT))
    for key, digest in again.items():
        checks.append(Check(f"repeat digest {key}", digest == first["digests"][key], digest))
    for job in traced:
        twin = next(j for j in plain if j["job"] == job["job"])
        checks.append(Check(f"job {job['job']} traced digests equal untraced",
                            job["digests"] == twin["digests"], ""))
    checks += workload.check([j["out"] for j in plain], workload.expectations())
    failed = sum(not c.ok for c in checks)

    if trace:
        metrics = layer_metrics(h, traced, plain)
    else:
        # Every timing is scaled to nominal host speed (see reference.py), so
        # it does not follow the load other tenants put on the host.
        wall = mean_job_s(plain) * h.gauge.scale()
        startup = h.samples["startup_s"] + [
            p.wall_s for j in plain for p in j["out"] if p.label == "version"]
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.fmean(h.samples["setup_s"]) * h.probe_gauge.scale(),
            "row_steps_per_s": statistics.fmean(j["row_steps"] for j in plain) / wall,
            "cli_startup_s": statistics.fmean(startup) * h.probe_gauge.scale(),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "checks_passed_frac": (len(checks) - failed) / len(checks),
        }
    timings = {"job_wall_s": [j["wall_s"] for j in plain],
               "traced_job_wall_s": [j["wall_s"] for j in traced],
               "reference_s": h.gauge.references}
    if h.probe_gauge is not h.gauge:
        timings["child_reference_s"] = h.probe_gauge.references
    timings.update((k, v) for k, v in h.samples.items() if k != "import")
    record = {"samples": h.samples,
              "summary": {k: spread(v) for k, v in timings.items()},
              "jobs": [{k: v for k, v in j.items() if k != "out"} for j in jobs],
              "checks": [c._asdict() for c in checks]}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1729)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "biased_shuffle" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    info = provenance(args)
    print("# provenance " + json.dumps(info, sort_keys=True), flush=True)
    metrics, record = measure(WORKLOADS[args.workload](), args.seed, args.seconds,
                              bool(args.trace))
    for job in record["jobs"]:
        print("# job " + json.dumps(job, sort_keys=True))
    print("# summary " + json.dumps(record["summary"], sort_keys=True))
    for check in record["checks"]:
        print(("# check PASS " if check["ok"] else "# check FAIL ")
              + f"{check['name']}: {check['detail']}")
    failed = sum(not c["ok"] for c in record["checks"])
    result = {"correct": failed == 0, "attempted": len(record["checks"]), "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"provenance": info, **record, "result": result},
                                   indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
