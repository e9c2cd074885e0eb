"""Command line front end.

Subcommands map one-to-one onto the library layers: ``exact`` for small-deck
distance curves, ``simulate`` for walk samples of the fixed-count
observable, ``marking`` for the two-phase marking engine, ``typechain``
for the type-count chain tables, ``lowerbound`` for the coupon-collector
TV bound, and ``conjecture`` for the weighted-diagonal harmonic probe.
Nothing heavier than argparse and json loads before the arguments parse;
each subcommand then imports numpy and only the modules its path runs.

Every output starts with a one-line reproducibility header::

    # config {"a": 0.5, "command": "exact", ...}

holding the full effective parameter set as canonical JSON, so a run can be
reproduced from its output alone (``parse_header`` round-trips it).  Some
commands add a second ``# result {...}`` line with derived summary values.
Outputs are plain CSV after the comment lines, or indented JSON for the
report-style modes.  Reruns with identical parameters produce identical
bytes.

Flags are the only settings.  ``--out`` names the output file; omitted or
``-``, output goes to stdout.

Exit codes: 0: success; 2: usage error; 3: state space too large; 4: a run
exceeded its step cap.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import nullcontext

from . import __version__

DEFAULT_SEED = 1729  # seed used by the command line tools when none is given

# CSV rows formatted at a time, which bounds the writer's memory
EMIT_BLOCK_ROWS = 1 << 16


def _list(value: str, cast) -> list:
    """The items of a comma-separated string, each through ``cast``; at least one."""
    items = [cast(part) for part in value.split(",") if part.strip()]
    if not items:
        raise ValueError(f"no items in the list {value!r}")
    return items


def _profile_from(ns) -> "BiasProfile":
    from .chain_core import make_bias_profile
    if ns.deck < 2 or ns.deck % 2:
        raise ValueError("deck size must be a positive even number")
    return make_bias_profile(ns.deck // 2, ns.a)


def _header_params(ns) -> dict:
    params = {k: v for k, v in vars(ns).items() if k not in {"out", "func"}}
    params["version"] = __version__
    return params


def _emit(ns, names=(), columns=(), result=None, payload=None) -> None:
    """Write header line, optional result line, then equal-length CSV columns or a JSON payload."""
    import numpy as np
    ctx = nullcontext(sys.stdout) if ns.out in (None, "-") else open(ns.out, "w", newline="")
    with ctx as fh:
        fh.write("# config " + json.dumps(_header_params(ns), sort_keys=True) + "\n")
        if result is not None:
            fh.write("# result " + json.dumps(result, sort_keys=True) + "\n")
        if payload is not None:
            fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
            return
        # every field is a number or a plain column name, so no CSV quoting
        fh.write(",".join(names) + "\n")
        for start in range(0, len(columns[0]), EMIT_BLOCK_ROWS):
            # tolist() gives Python ints and floats; str of a float is its repr
            cells = [map(str, np.asarray(column[start:start + EMIT_BLOCK_ROWS]).tolist())
                     for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def parse_header(line: str) -> dict:
    """Recover the parameter dict from an output's first line."""
    prefix = "# config "
    if not line.startswith(prefix):
        raise ValueError("not a config header line")
    return json.loads(line[len(prefix):])


# --------------------------------------------------------------------------
# Subcommand bodies
# --------------------------------------------------------------------------

def cmd_exact(ns) -> int:
    from .exact_analysis import (build_operator, check_eps, check_scan_steps,
                                 cutoff_profile, mixing_time, theory_time)
    profile = _profile_from(ns)
    t_max = ns.t_max if ns.t_max is not None else 2 * theory_time(profile)
    if t_max < 0:
        raise ValueError("t-max must be nonnegative")
    check_scan_steps(profile, t_max)
    eps = check_eps(ns.eps)
    op = build_operator(profile)
    rows = cutoff_profile(op, range(t_max + 1))
    result = {
        "theory_time": theory_time(profile),
        "mixing_time_tv": mixing_time(op, eps, metric="tv"),
        "mixing_time_separation": mixing_time(op, eps, metric="separation"),
    }
    _emit(ns, ("t", "tv", "separation"), tuple(zip(*rows)), result=result)
    return 0


def cmd_simulate(ns) -> int:
    import numpy as np
    from . import bounds
    profile = _profile_from(ns)
    res = bounds.simulate_walks(profile, [ns.t], ns.trials, ns.seed)
    counts = res.counts[:, 0]
    _emit(ns, ("trial", "count"), (np.arange(counts.size), counts),
          result={"mean_count": float(counts.mean()), "t": ns.t})
    return 0


def cmd_marking(ns) -> int:
    import numpy as np
    from . import marking
    profile = _profile_from(ns)
    c1, trials, seed = ns.c1, ns.trials, ns.seed
    if ns.mode == "uniformity":
        report = marking.uniformity_test(profile, c1, trials, seed,
                                         always_mark=ns.always_mark)
        _emit(ns, payload=report)
    elif ns.mode == "gaps":
        if ns.always_mark:
            raise ValueError("--always-mark applies to --mode runs and "
                             "uniformity only")
        report = marking.gap_correlation_report(profile, c1, trials, seed)
        _emit(ns, payload=report)
    else:
        # the exact means first: the type-count grid's cap refuses a deck
        # before any run starts
        result = {
            "expected_t_phase1": marking.expected_phase1_time(profile, c1),
            "expected_t_full": marking.expected_full_marking_time(profile, c1),
        }
        res = marking.bulk_marking_runs(profile, c1, trials, seed,
                                        always_mark=ns.always_mark)
        result["mean_t_phase1"] = float(res.t_phase1.mean())
        result["mean_t_full"] = float(res.t_full.mean())
        _emit(ns, ("trial", "t_phase1", "t_full"),
              (np.arange(res.t_full.size), res.t_phase1, res.t_full), result=result)
    return 0


def cmd_typechain(ns) -> int:
    import numpy as np
    from . import type_chain
    n, a = ns.n, ns.a
    if n < 1:
        raise ValueError("n must be positive")
    type_chain.check_c1(ns.c1)
    type_chain.check_grid(n)
    ka, kb = np.indices((n + 1, n + 1)).reshape(2, -1)
    if ns.mode == "rows":
        row = type_chain.transition_row(n, a, ka, kb)
        _emit(ns, ("k_a", "k_b", "p_b_up", "p_a_up", "p_move", "p_stay"), (ka, kb, *row))
    elif ns.mode == "absorption":
        table = type_chain.expected_absorption(n, a).ravel()
        _emit(ns, ("k_a", "k_b", "expected_steps"), (ka, kb, table))
    else:
        scale = type_chain.phase2_time_scale(n, a, ns.c1)
        table = type_chain.absorption_bound_table(n, a).ravel()
        _emit(ns, ("k_a", "k_b", "s_tilde", "bound"), (ka, kb, table, scale * table),
              result={"scale": scale})
    return 0


def cmd_lowerbound(ns) -> int:
    from . import bounds
    from .chain_core import theory_time
    profile = _profile_from(ns)
    threshold = ns.threshold if ns.threshold is not None \
        else bounds.suggested_threshold(profile.n)
    if ns.t_list is not None:
        ts = _list(ns.t_list, int)
    else:
        multiples = _list(ns.multiples, float)
        if not all(0 < m < math.inf for m in multiples):
            raise ValueError("multiples must be positive and finite")
        star = theory_time(profile)
        ts = sorted({max(1, round(m * star)) for m in multiples})
    rows = bounds.lower_bound_sweep(profile, ts, threshold, ns.trials, ns.seed)
    _emit(ns, ("t", "threshold", "estimate", "stderr", "uniform_mass", "bound"),
          tuple(zip(*rows)), result={"theory_time": theory_time(profile)})
    return 0


def cmd_conjecture(ns) -> int:
    from . import type_chain
    rows = []
    for n in _list(ns.n_list, int):
        for c1 in _list(ns.c1_list, float):
            probe = type_chain.harmonic_probe(n, c1, ns.a)
            rows.append((n, c1, ns.a, probe["weighted_sum"],
                         probe["harmonic"], probe["ratio"]))
    _emit(ns, ("n", "c1", "a", "weighted_sum", "harmonic", "ratio"), tuple(zip(*rows)))
    return 0


# --------------------------------------------------------------------------
# Parser assembly
# --------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="biased-shuffle",
        description="Simulation and verification lab for the biased "
                    "transposition shuffle.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, help_text):
        p = subs.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", default=None,
                       help="output path ('-' or omitted: stdout)")
        return p

    p = sub("exact", cmd_exact, "exact distance curve for a small deck")
    p.add_argument("--deck", type=int, default=4)
    p.add_argument("-a", type=float, default=1.0, dest="a")
    p.add_argument("--t-max", type=int, default=None)
    p.add_argument("--eps", type=float, default=0.25)

    p = sub("simulate", cmd_simulate, "sample the in-place count along the walk")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--deck", type=int, default=12)
    p.add_argument("-a", type=float, default=0.5, dest="a")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=10000)

    p = sub("marking", cmd_marking, "two-phase marking runs and checks")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--deck", type=int, default=4)
    p.add_argument("-a", type=float, default=0.5, dest="a")
    p.add_argument("--c1", type=float, default=0.75)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--mode", choices=("runs", "uniformity", "gaps"),
                   default="runs")
    p.add_argument("--always-mark", action="store_true",
                   help="skip acceptance coins (negative control)")

    p = sub("typechain", cmd_typechain, "type-count chain tables")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("-a", type=float, default=0.5, dest="a")
    p.add_argument("--c1", type=float, default=0.75)
    p.add_argument("--mode", choices=("rows", "absorption", "bound"),
                   default="rows")

    p = sub("lowerbound", cmd_lowerbound, "coupon-collector TV lower bound")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--deck", type=int, default=12)
    p.add_argument("-a", type=float, default=0.5, dest="a")
    p.add_argument("--threshold", type=int, default=None)
    checkpoints = p.add_mutually_exclusive_group()
    checkpoints.add_argument("--t-list", default=None,
                             help="comma separated checkpoint steps")
    checkpoints.add_argument("--multiples", default="0.25,0.5,0.75,1.0,1.25",
                             help="checkpoints as multiples of the theory time")
    p.add_argument("--trials", type=int, default=20000)

    p = sub("conjecture", cmd_conjecture, "weighted diagonal harmonic probe")
    p.add_argument("--n-list", default="4,8,16", dest="n_list")
    p.add_argument("--c1-list", default="0.75", dest="c1_list")
    p.add_argument("-a", type=float, default=0.5, dest="a")

    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    from .chain_core import CapacityError  # numpy loads only once the arguments parse
    try:
        return ns.func(ns)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
