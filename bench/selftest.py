"""Quick self-test of the benchmark at tiny sizes.

Usage, from the repository root: ``python3 bench/selftest.py``

For every workload it makes one untraced and one traced measurement at tiny
sizes and asserts that each metric named in ``BENCHMARK.json`` appears with
its unit, that end-to-end metrics are never 0, that the layers a workload
drives report work, and that all checks pass.  It then feeds each
workload's checks a deliberately wrong expectation and asserts they fail.
"""
import json
import sys

import run

sys.path.insert(0, str(run.ROOT / "src"))

from workloads import MarkingDeck256, SmallDeckCli, WalkDeck1024, job_seed  # noqa: E402

TINY = (
    MarkingDeck256(deck=16, trials=20, absorb_trials=200),
    WalkDeck1024(deck=32, trials=50, touch_deck=20, touch_threshold=2, touch_trials=20_000),
    SmallDeckCli(version_probes=1, exact_deck=4, uniformity_trials=2400, runs_trials=50,
                 typechain_n=10, conjecture_n="4"),
)

# Per-layer metric prefixes that must be non-zero on each workload.
ACTIVE = {
    "marking-deck256": ("chain_core.", "marking.bulk_marking_runs.",
                        "type_chain.simulate_absorption.", "trace.wall_s", "cli.import"),
    "walk-deck1024": ("chain_core.", "bounds.", "trace.wall_s", "cli.import"),
    "small-deck-cli": ("exact_analysis.", "marking.", "type_chain.expected_absorption.",
                       "type_chain.harmonic_probe.", "cli.", "trace.wall_s"),
}


def wrong_expectations(wl, expect: dict) -> tuple[dict, object]:
    """A deliberately wrong expectation and which checks it must fail."""
    if isinstance(wl, MarkingDeck256):
        bad = {a: {k: 1.5 * v for k, v in row.items()} for a, row in expect.items()}
        return bad, lambda name: True
    if isinstance(wl, WalkDeck1024):
        return {"bound_cap": -0.2, "touch_picks": 1.05 * expect["touch_picks"]}, lambda name: True
    return ({"version": "0.0.0", "p_min": 1.0},
            lambda name: "version output" in name or "p_value" in name)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    run.MIN_SAMPLES = 1
    for wl in TINY:
        for trace in (0, 1):
            metrics, record = run.measure(wl, seed=1, seconds=0.1, trace=bool(trace))
            units = {name: run.unit_of(name) for name in metrics}
            assert units == declared[trace], (wl.name, trace, set(units) ^ set(declared[trace]))
            failed = [c for c in record["checks"] if not c["ok"]]
            assert not failed, (wl.name, failed)
            if trace:
                idle = [n for n, v in metrics.items()
                        if n.startswith(ACTIVE[wl.name]) and not v]
                assert not idle, (wl.name, idle)
                assert 0.5 < metrics["trace.accounted_frac"] <= 1.0, metrics["trace.accounted_frac"]
            else:
                assert all(v > 0 for v in metrics.values()), (wl.name, metrics)
        parts = run.run_parts(wl.parts(job_seed(1, 0)))
        expect = wl.expectations()
        assert all(c.ok for c in wl.check([parts], expect)), wl.name
        bad, must_fail = wrong_expectations(wl, expect)
        checks = wl.check([parts], bad)
        should = {c.name for c in checks if must_fail(c.name)}
        did = {c.name for c in checks if not c.ok}
        assert should and did == should, (wl.name, should ^ did)
        print(f"{wl.name}: ok ({len(checks)} checks, {len(did)} fail on wrong expectations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
