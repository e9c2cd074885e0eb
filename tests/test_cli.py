"""Command line front end: smoke runs, headers, option inventory, exit codes."""
import argparse
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import biased_shuffle
from biased_shuffle import exact_analysis, marking, type_chain
from biased_shuffle.chain_core import MIN_BIAS, make_bias_profile
from biased_shuffle.cli import build_parser, main, parse_header


def read_header(path):
    with open(path) as fh:
        return parse_header(fh.readline().rstrip("\n"))


def run_to_file(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


def read_output(path):
    lines = path.read_text().splitlines()
    header = parse_header(lines[0])
    result = None
    body_start = 1
    if len(lines) > 1 and lines[1].startswith("# result "):
        result = json.loads(lines[1][len("# result "):])
        body_start = 2
    return header, result, lines[body_start:]


class TestSmoke:
    def test_exact(self, tmp_path):
        code, out = run_to_file(tmp_path, "exact.csv",
                                ["exact", "--deck", "4", "-a", "1.0"])
        assert code == 0
        header, result, body = read_output(out)
        assert header["command"] == "exact"
        assert header["deck"] == 4 and header["a"] == 1.0
        assert "version" in header
        assert result == {"theory_time": 3, "mixing_time_tv": 3,
                          "mixing_time_separation": 4}
        assert body[0] == "t,tv,separation"
        assert len(body) == 1 + 7  # t = 0 .. 2 * theory_time
        t1 = body[2].split(",")
        assert float(t1[1]) == pytest.approx(17 / 24, abs=1e-12)
        assert float(t1[2]) == pytest.approx(1.0, abs=1e-12)

    def test_simulate(self, tmp_path):
        code, out = run_to_file(tmp_path, "sim.csv",
                                ["simulate", "--deck", "6", "--t", "5",
                                 "--trials", "50"])
        assert code == 0
        header, result, body = read_output(out)
        assert body[0] == "trial,count"
        assert len(body) == 51
        assert 0.0 <= result["mean_count"] <= 3.0

    def test_marking_runs(self, tmp_path):
        code, out = run_to_file(tmp_path, "mark.csv",
                                ["marking", "--deck", "4", "--trials", "300"])
        assert code == 0
        header, result, body = read_output(out)
        assert result["expected_t_phase1"] == pytest.approx(244 / 9)
        assert result["expected_t_full"] == pytest.approx(280 / 9)
        assert len(body) == 301

    def test_marking_uniformity(self, tmp_path):
        code, out = run_to_file(tmp_path, "uni.json",
                                ["marking", "--mode", "uniformity",
                                 "--deck", "4", "--trials", "2400"])
        assert code == 0
        header, result, body = read_output(out)
        payload = json.loads("\n".join(body))
        assert payload["cells"] == 24
        assert 0.0 <= payload["p_value"] <= 1.0

    def test_marking_gaps(self, tmp_path):
        code, out = run_to_file(tmp_path, "gaps.json",
                                ["marking", "--mode", "gaps", "--deck", "8",
                                 "--c1", "0.6", "--trials", "400"])
        assert code == 0
        _, _, body = read_output(out)
        payload = json.loads("\n".join(body))
        assert payload["gap_count"] == 3

    def test_typechain_modes(self, tmp_path):
        code, out = run_to_file(tmp_path, "rows.csv",
                                ["typechain", "--n", "2", "--mode", "rows"])
        assert code == 0
        _, _, body = read_output(out)
        assert body[0] == "k_a,k_b,p_b_up,p_a_up,p_move,p_stay"
        assert len(body) == 10
        code, out = run_to_file(tmp_path, "abs.csv",
                                ["typechain", "--n", "2", "--mode", "absorption"])
        assert code == 0
        code, out = run_to_file(tmp_path, "bound.csv",
                                ["typechain", "--n", "2", "--mode", "bound",
                                 "--c1", "0.75"])
        assert code == 0
        _, result, body = read_output(out)
        assert result["scale"] == pytest.approx(8.0)
        assert body[0] == "k_a,k_b,s_tilde,bound"

    def test_lowerbound(self, tmp_path):
        code, out = run_to_file(tmp_path, "lb.csv",
                                ["lowerbound", "--deck", "6", "--trials", "2000",
                                 "--t-list", "1,3"])
        assert code == 0
        header, result, body = read_output(out)
        assert result["theory_time"] == 11
        assert body[0] == "t,threshold,estimate,stderr,uniform_mass,bound"
        assert len(body) == 3
        assert body[1].split(",")[1] == "3"  # default threshold ceil(sqrt(6))

    def test_lowerbound_default_threshold_at_deck_2(self, tmp_path):
        # ceil(sqrt(2)) = 2 is capped at the deck's one type-A card
        code, out = run_to_file(tmp_path, "lb2.csv",
                                ["lowerbound", "--deck", "2", "--trials", "200",
                                 "--t-list", "1"])
        assert code == 0
        _, _, body = read_output(out)
        assert body[1].split(",")[1] == "1"

    def test_conjecture(self, tmp_path):
        code, out = run_to_file(tmp_path, "conj.csv",
                                ["conjecture", "--n-list", "4,8",
                                 "--c1-list", "0.75", "-a", "0.5"])
        assert code == 0
        _, _, body = read_output(out)
        assert body[0] == "n,c1,a,weighted_sum,harmonic,ratio"
        assert len(body) == 3
        for line in body[1:]:
            ratio = float(line.split(",")[-1])
            assert ratio == pytest.approx(1.0, abs=1e-9)

    def test_stdout_mode(self, capsys, tmp_path):
        assert main(["typechain", "--n", "1", "--mode", "rows"]) == 0
        omitted = capsys.readouterr().out
        assert omitted.startswith("# config ")
        assert main(["typechain", "--n", "1", "--mode", "rows", "--out", "-"]) == 0
        assert capsys.readouterr().out == omitted
        # 66,049 rows span more than one of the writer's blocks
        argv = ["typechain", "--n", "256", "--mode", "rows"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "rows.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert len(stdout.splitlines()) == 2 + 257 ** 2
        assert out.read_bytes() == stdout.encode()

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "sub.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "biased_shuffle.cli", "exact",
             "--deck", "4", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert read_header(str(out))["command"] == "exact"


# Imports the CLI, runs ``main`` on the JSON argument list (if not null), and
# prints the exit code, the package modules loaded, whether numpy is loaded
# and the scipy modules loaded.
FOOTPRINT = """
import json, sys
import biased_shuffle.cli
argv, code = json.loads(sys.argv[1]), None
if argv is not None:
    try:
        code = biased_shuffle.cli.main(argv)
    except SystemExit as exc:  # --help, --version and usage errors
        code = exc.code
top = lambda name: sorted(m for m in sys.modules if m.split(".")[0] == name)
print(json.dumps([code, top("biased_shuffle"), "numpy" in sys.modules, top("scipy")]))
"""

OUT = ["--out", os.devnull]
CLI_ONLY = {"biased_shuffle", "biased_shuffle.cli"}
CORE = CLI_ONLY | {"biased_shuffle.chain_core"}
TYPE_CHAIN = CORE | {"biased_shuffle.type_chain"}
MARKING = TYPE_CHAIN | {"biased_shuffle.marking"}
BOUNDS = CORE | {"biased_shuffle.bounds"}
EXACT = CORE | {"biased_shuffle.exact_analysis"}


class TestStartup:
    # (argv, exit code, package modules, numpy loaded, scipy loaded): nothing
    # but the CLI loads before the arguments parse, each job loads only the
    # modules its path runs, and scipy loads only for the uniformity test
    @pytest.mark.parametrize("argv,code,modules,numpy,scipy", [
        pytest.param(None, None, CLI_ONLY, False, False, id="import"),
        pytest.param(["--version"], 0, CLI_ONLY, False, False, id="version"),
        pytest.param(["--help"], 0, CLI_ONLY, False, False, id="help"),
        pytest.param(["marking", "--deck", "x"], 2, CLI_ONLY, False, False, id="usage-error"),
        pytest.param(["exact", "--deck", "4", *OUT], 0, EXACT, True, False, id="exact"),
        pytest.param(["typechain", "--n", "3", *OUT], 0, TYPE_CHAIN, True, False,
                     id="typechain"),
        pytest.param(["conjecture", "--n-list", "4", *OUT], 0, TYPE_CHAIN, True, False,
                     id="conjecture"),
        pytest.param(["marking", "--deck", "4", "--trials", "20", *OUT], 0, MARKING, True,
                     False, id="marking-runs"),
        pytest.param(["marking", "--mode", "uniformity", "--deck", "2", "--trials", "200",
                      *OUT], 0, MARKING | EXACT, True, True, id="marking-uniformity"),
        pytest.param(["simulate", "--deck", "4", "--t", "3", "--trials", "10", *OUT], 0,
                     BOUNDS, True, False, id="simulate"),
        pytest.param(["lowerbound", "--deck", "4", "--trials", "100", *OUT], 0, BOUNDS,
                     True, False, id="lowerbound"),
    ])
    def test_loaded_modules(self, argv, code, modules, numpy, scipy):
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        got_code, got_modules, got_numpy, got_scipy = json.loads(proc.stdout.splitlines()[-1])
        assert (got_code, set(got_modules), got_numpy) == (code, modules, numpy)
        if scipy:
            assert "scipy.special" in got_scipy and "scipy.stats" not in got_scipy
        else:
            assert got_scipy == []


class TestReproducibility:
    @pytest.mark.parametrize("args", [
        ["exact", "--deck", "4", "-a", "0.5"],
        ["marking", "--deck", "4", "--trials", "200"],
        ["lowerbound", "--deck", "6", "--trials", "1000", "--t-list", "2,4"],
    ])
    def test_identical_bytes_across_runs(self, tmp_path, args):
        _, first = run_to_file(tmp_path, "first.csv", args)
        _, second = run_to_file(tmp_path, "second.csv", args)
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        base = ["marking", "--deck", "4", "--trials", "200"]
        _, first = run_to_file(tmp_path, "a.csv", base + ["--seed", "1"])
        _, second = run_to_file(tmp_path, "b.csv", base + ["--seed", "2"])
        assert first.read_bytes() != second.read_bytes()

    def test_package_version_matches_pyproject(self):
        # every config header carries the version a run was made with
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == biased_shuffle.__version__

    def test_header_holds_full_parameter_set(self, tmp_path):
        _, out = run_to_file(tmp_path, "h.csv",
                             ["exact", "--deck", "6", "-a", "0.5",
                              "--eps", "0.1", "--t-max", "4"])
        header = read_header(str(out))
        assert header == {"command": "exact", "deck": 6, "a": 0.5,
                          "eps": 0.1, "t_max": 4, "version": header["version"]}


# Every option each subcommand takes, help aside; a new knob must be added here.
OPTIONS = {
    None: {"--version"},
    "exact": {"--out", "--deck", "-a", "--t-max", "--eps"},
    "simulate": {"--out", "--seed", "--deck", "-a", "--t", "--trials"},
    "marking": {"--out", "--seed", "--deck", "-a", "--c1", "--trials", "--mode",
                "--always-mark"},
    "typechain": {"--out", "--n", "-a", "--c1", "--mode"},
    "lowerbound": {"--out", "--seed", "--deck", "-a", "--threshold", "--t-list",
                   "--multiples", "--trials"},
    "conjecture": {"--out", "--n-list", "--c1-list", "-a"},
}


def test_option_inventory():
    def options(parser):
        return {flag for action in parser._actions
                if not isinstance(action, argparse._HelpAction)
                for flag in action.option_strings}

    parser = build_parser()
    [subs] = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    found = {name: options(sub) for name, sub in subs.choices.items()}
    assert {None: options(parser), **found} == OPTIONS


def _refuse_listing(monkeypatch):
    """Make listing the orbits of a deck raise, so no exact work runs."""
    class Listed(Exception):
        pass

    def listed(profile):
        raise Listed(profile)
    monkeypatch.setattr(exact_analysis, "list_orbits", listed)
    return Listed


class TestExitCodes:
    def test_capacity(self, monkeypatch):
        # the size cap, MAX_EXACT_DECK = 18, admits deck 18, which reaches the listing
        listed = _refuse_listing(monkeypatch)
        with pytest.raises(listed):
            main(["exact", "--deck", "18"])

    def test_capacity_over_orbit_budget(self, monkeypatch, capsys):
        # the size cap refuses deck 20 before any orbit is listed
        _refuse_listing(monkeypatch)
        start = time.perf_counter()
        assert main(["exact", "--deck", "20"]) == 3
        assert time.perf_counter() - start < 1.0
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--eps", "2"], ["--eps", "0"],
                                       ["--t-max", "-1"]])
    def test_exact_rejects_bad_input_before_building(self, monkeypatch, capsys, flags):
        _refuse_listing(monkeypatch)
        assert main(["exact", "--deck", "8"] + flags) == 2
        assert "error:" in capsys.readouterr().err

    def test_exact_refuses_t_max_past_the_scan_cap_before_building(self, capsys):
        # a range of 10**6 steps once went into a set before the scan's cap,
        # 277 steps at deck 4 and a = 1, refused it
        tracemalloc.start()
        try:
            code = main(["exact", "--deck", "4", "--t-max", "1000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 4
        assert peak < 4 * 2 ** 20
        assert "distance scan exceeded 277 steps" in capsys.readouterr().err

    def test_marking_refuses_runs_past_the_byte_budget_before_allocating(self, capsys):
        # 10**8 runs at deck 256 once asked numpy for 47.7 GiB of start
        # positions and ended in a traceback with exit 1
        tracemalloc.start()
        try:
            code = main(["marking", "--deck", "256", "-a", "0.5", "--trials", "100000000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 4 * 2 ** 20
        out = capsys.readouterr()
        assert out.out == "" and "budget" in out.err

    @pytest.mark.parametrize("argv", [
        ["lowerbound", "--deck", "12", "--trials", "1000000000"],
        ["simulate", "--deck", "12", "--t", "5", "--trials", "1000000000"],
    ])
    def test_walks_refuse_trials_past_the_byte_budget_before_allocating(self, capsys, argv):
        # these once asked numpy for 9.31 and 1.86 GiB of int16 counts and
        # ended in a traceback with exit 1
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert peak < 4 * 2 ** 20
        out = capsys.readouterr()
        assert out.out == "" and "budget" in out.err

    def test_exact_scan_stops_below_the_float_floor(self, capsys):
        # TV at deck 8, a = 0.5 never falls below about 5e-16, so no crossing
        # of 1e-20 comes and the scan stops at 100 times the theory time
        start = time.perf_counter()
        assert main(["exact", "--deck", "8", "-a", "0.5", "--eps", "1e-20"]) == 4
        assert time.perf_counter() - start < 10.0
        assert "exceeded 1664 steps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["exact", "typechain", "conjecture"])
    def test_unseeded_commands_reject_seed(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "3"])
        assert exc.value.code == 2

    def test_usage_odd_deck(self):
        assert main(["exact", "--deck", "5"]) == 2

    def test_usage_deck_past_int16_labels(self, capsys):
        assert main(["marking", "--deck", "32768", "--trials", "1"]) == 2
        assert "32767" in capsys.readouterr().err

    def test_usage_bad_model_parameters(self, capsys):
        assert main(["marking", "--deck", "4", "--c1", "0.4",
                     "--trials", "10"]) == 2
        # the defaults leave one phase-two gap, so no pair to correlate
        assert main(["marking", "--mode", "gaps", "--trials", "10"]) == 2
        assert main(["exact", "--deck", "4", "-a", "1.5"]) == 2
        assert main(["conjecture", "--n-list", "4", "--c1-list", "0.7"]) == 2
        capsys.readouterr()
        for a in ("0", "-1", "1.5", "nan"):
            for mode in ("rows", "absorption", "bound"):
                assert main(["typechain", "--n", "2", "-a", a, "--mode", mode]) == 2
                assert "a must lie in (0, 1]" in capsys.readouterr().err
            assert main(["conjecture", "--n-list", "4", "-a", a]) == 2
            assert "a must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "exact --deck 4 -a 1e-320",
        "lowerbound --deck 4 -a 1e-320",
        "marking --deck 4 --trials 2 -a 1e-200",
        "typechain --mode absorption --n 2 -a 1e-320",
        "typechain --mode bound --n 2 -a 1e-320",
        "simulate --deck 4 --t 2 --trials 2 -a 1e-320",
    ], ids=["exact", "lowerbound", "marking", "typechain-absorption", "typechain-bound",
            "simulate"])
    def test_biases_below_the_floor_are_refused_before_any_engine_runs(self, capsys, argv):
        # each of these once overflowed, divided by zero or printed inf and nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv.split()) == 2
        out = capsys.readouterr()
        assert out.out == "" and f"at least {MIN_BIAS:.3g}" in out.err

    def test_gaps_refuse_undefined_correlations(self, monkeypatch, capsys):
        argv = ["marking", "--mode", "gaps", "--deck", "10", "--c1", "0.6"]
        assert main(argv + ["--trials", "1"]) == 2
        out = capsys.readouterr()
        assert "NaN" not in out.out and "two trials" in out.err
        bulk = marking.bulk_marking_runs

        def last_gap_constant(*args, **kwargs):
            result = bulk(*args, **kwargs)
            result.mark_times[:, -1] = result.mark_times[:, -2] + 1
            return result
        monkeypatch.setattr(marking, "bulk_marking_runs", last_gap_constant)
        assert main(argv + ["--trials", "50"]) == 2
        out = capsys.readouterr()
        assert "NaN" not in out.out and "gap 4 takes one value" in out.err

    @pytest.mark.parametrize("mode", ["rows", "absorption", "bound"])
    def test_typechain_checks_c1_in_every_mode(self, capsys, mode):
        for c1 in ("5", "-3", "0.5", "1", "nan"):
            assert main(["typechain", "--n", "2", "--c1", c1, "--mode", mode]) == 2
            out = capsys.readouterr()
            assert out.out == "" and "c1 must lie strictly between" in out.err

    @pytest.mark.parametrize("mode", ["rows", "absorption", "bound"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_typechain_checks_n_in_every_mode(self, capsys, mode, n):
        assert main(["typechain", "--n", n, "--mode", mode]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "n must be positive" in out.err

    @pytest.mark.parametrize("mode", ["rows", "absorption", "bound"])
    def test_typechain_caps_the_grid_in_every_mode(self, capsys, mode):
        # n = 10**7 would ask numpy for a 1.4 PiB grid; the cap refuses it first
        for n in (type_chain.MAX_GRID_N + 1, 10_000_000):
            assert main(["typechain", "--n", str(n), "--mode", mode]) == 3
            out = capsys.readouterr()
            assert out.out == "" and "budget" in out.err

    def test_marking_runs_refuse_decks_past_the_grid_cap(self, monkeypatch, capsys):
        # the result line's exact mean reads the grid, so no run starts
        def refuse(*args, **kwargs):
            raise AssertionError("marking runs started")

        monkeypatch.setattr(marking, "bulk_marking_runs", refuse)
        deck = 2 * (type_chain.MAX_GRID_N + 1)
        assert main(["marking", "--deck", str(deck), "--trials", "1"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "budget" in out.err

    @pytest.mark.parametrize("deck", ["22", "2048"])
    def test_uniformity_refuses_decks_past_the_exact_cap(self, monkeypatch, capsys, deck):
        # 100 N! once had too many digits to print at deck 1600, and the int64
        # Lehmer ranks overflow past deck 20; the cap refuses both before any run
        def refuse(*args, **kwargs):
            raise AssertionError("marking runs started")

        monkeypatch.setattr(marking, "bulk_marking_runs", refuse)
        assert main(["marking", "--mode", "uniformity", "--deck", deck,
                     "--trials", "1000"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and "exact budget of 18 cards" in out.err

    @pytest.mark.parametrize("argv", [
        ["lowerbound", "--deck", "4", "--trials", "10", "--t-list", ","],
        ["lowerbound", "--deck", "4", "--trials", "10", "--multiples", ","],
        ["conjecture", "--n-list", ","],
        ["conjecture", "--c1-list", ", ,"],
    ])
    def test_empty_lists_are_refused(self, capsys, argv):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "no items in the list" in out.err

    # 1e308 times the theory time is inf, which round() once met with an
    # OverflowError traceback and exit 1
    @pytest.mark.parametrize("multiples", ["-1", "0", "nan", "inf", "0.5,-0.25", "0.5,1e308"])
    def test_lowerbound_refuses_nonpositive_multiples(self, capsys, multiples):
        assert main(["lowerbound", "--deck", "4", "--trials", "10",
                     "--multiples", multiples]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "multiples must be positive and finite" in out.err

    def test_gaps_refuse_always_mark(self, capsys):
        # the gap report flips its coins, so the flag would be recorded and ignored
        assert main(["marking", "--mode", "gaps", "--deck", "10", "--c1", "0.6",
                     "--trials", "50", "--always-mark"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "--always-mark" in out.err

    def test_lowerbound_checkpoint_flags_exclude_each_other(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lowerbound", "--deck", "4", "--trials", "10",
                  "--t-list", "1,2", "--multiples", "9"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "not allowed with argument" in out.err

    @pytest.mark.parametrize("threshold,code", [("-1", 2), ("0", 2), ("1", 0), ("2", 0),
                                                ("3", 2), ("99", 2)])
    def test_lowerbound_threshold_range(self, capsys, threshold, code):
        assert main(["lowerbound", "--deck", "4", "--threshold", threshold,
                     "--trials", "10"]) == code
        out = capsys.readouterr()
        if code:
            assert out.out == "" and "threshold must lie in 1..2" in out.err

    def test_step_cap_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr(marking, "default_step_cap", lambda deck: 2)
        assert main(["marking", "--deck", "4", "--trials", "10"]) == 4
        assert "exceeded 2 steps" in capsys.readouterr().err

    @pytest.mark.parametrize("short", [1, 0])
    def test_step_cap_counts_each_runs_whole_trajectory(self, monkeypatch, capsys, short):
        # deck 20 runs the inline step; one step short of the largest t_full
        # every run has finished phase one, so only phase-two steps reach the cap
        argv = "marking --deck 20 -a 0.25 --c1 0.6 --trials 40 --seed 8".split()
        res = marking.bulk_marking_runs(make_bias_profile(10, 0.25), 0.6, 40, 8)
        cap = int(res.t_full.max()) - short
        assert res.t_phase1.max() < cap
        monkeypatch.setattr(marking, "default_step_cap", lambda deck: cap)
        assert main(argv) == (4 if short else 0)
        assert (f"exceeded {cap} steps" in capsys.readouterr().err) == bool(short)

    def test_argparse_rejects_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["exact", "--bogus"])
        assert exc.value.code == 2

    def test_parse_header_rejects_other_lines(self):
        with pytest.raises(ValueError):
            parse_header("t,tv,separation")


# The argv grammar of the property test below: per subcommand, each option's
# values as (values that may run, values that must be refused), where None
# leaves the option out and True gives a bare flag.  Refused values lie at a
# cap + 1 or a boundary past it, or are huge, non-finite or malformed.  Values
# that run stay cheap in any combination: a run at a cap can take a minute
# (exact --deck 18, the deck-8 uniformity minimum), so caps are drawn only for
# the walks' deck, with one or two walks of at most five steps.
HUGE = ("1000000000", "1000000000000000000")
NOT_AN_INT = ("1e9", "1.5", "nan", "inf", "x", "")
NOT_A_FLOAT = ("nan", "inf", "-inf", "x", "")
SEED = ((None, "0", "1", *HUGE), ("-1", *NOT_AN_INT))
BIAS = ((None, "1", "0.5"), ("0", "5e-324", "1e-320", "1e-200", "-1", "1.0000001", "1e18",
                            *NOT_A_FLOAT))
C1 = ((None, "0.6", "0.75"), ("0.5", "1", "-1", "1e18", *NOT_A_FLOAT))
TRIALS = ((None, "1", "2", "50"), ("0", "-1", *HUGE, *NOT_AN_INT))
WALK_DECK = ((None, "2", "4", "12"), ("0", "1", "-1", "3", "32768", *HUGE, *NOT_AN_INT))
# 32766 is the largest even deck that int16 labels hold
AT_CAP = {"--deck": (("32766",), ()), "--trials": (("1", "2"), ())}
ARGV_GRAMMAR = {
    "exact": {"--deck": ((None, "2", "4", "6"), ("0", "-1", "19", "20", *HUGE, *NOT_AN_INT)),
              "-a": BIAS,
              "--t-max": ((None, "0", "1"), ("-1", *HUGE, *NOT_AN_INT)),
              "--eps": ((None, "0.5"), ("0", "1", "-1", "1e18", *NOT_A_FLOAT))},
    "simulate": {"--seed": SEED, "--deck": WALK_DECK, "-a": BIAS,
                 "--t": (("0", "1", "5"), (None, "-1", *NOT_AN_INT)), "--trials": TRIALS},
    "simulate at cap": {"--seed": SEED, "-a": BIAS, **AT_CAP, "--t": (("0", "5"), ())},
    "marking": {"--seed": SEED,
                "--deck": ((None, "2", "4", "6", "10"),
                           ("0", "-1", "3", "32768", *HUGE, *NOT_AN_INT)),
                "-a": BIAS, "--c1": C1, "--trials": TRIALS,
                "--mode": ((None, "runs", "uniformity", "gaps"), ("x",)),
                "--always-mark": ((None, True), ())},
    "typechain": {"--n": ((None, "1", "2"), ("0", "-1", "1025", *HUGE, *NOT_AN_INT)),
                  "-a": BIAS, "--c1": C1,
                  "--mode": ((None, "rows", "absorption", "bound"), ("x",))},
    "lowerbound": {"--seed": SEED, "--deck": WALK_DECK, "-a": BIAS,
                   "--threshold": ((None, "1"), ("0", "-1", *HUGE, *NOT_AN_INT)),
                   "--t-list": ((None, "0", "3", "1,5"), ("", ",", "-1", "x", "nan")),
                   "--multiples": ((None, "0.5", "0.5,1"),
                                   ("", ",", "0", "-1", "1e308", "nan", "inf", "x")),
                   "--trials": TRIALS},
    "lowerbound at cap": {"--seed": SEED, "-a": BIAS, **AT_CAP,
                          "--t-list": (("0", "1,5"), ())},
    "conjecture": {"--n-list": ((None, "4", "4,8"),
                                ("", ",", "0", "-1", "1025", *HUGE, "x", "nan")),
                   "--c1-list": ((None, "0.75", "0.75,0.875"),
                                 ("", "0.5", "1", "nan", "inf", "x")),
                   "-a": BIAS},
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_drawn_argv_exits_with_a_documented_code(tmp_path, data):
    """Any argv of the grammar above exits 0, 2, 3 or 4, and nothing else escapes.

    At most one option takes a refused value, so that no other option's
    refusal hides it, and then the exit code is not 0.  Walk checkpoints
    (--t, --t-list, --multiples) have no step cap, so they are drawn small
    and never huge.
    """
    grammar = data.draw(st.sampled_from(sorted(ARGV_GRAMMAR)), label="grammar")
    options = ARGV_GRAMMAR[grammar]
    refused = data.draw(st.sampled_from([None, *(f for f, (_, bad) in options.items() if bad)]),
                        label="refused option")
    argv = [grammar.split()[0], "--out", str(tmp_path / "out")]
    for flag, (ok, bad) in options.items():
        value = data.draw(st.sampled_from(bad if flag == refused else ok), label=flag)
        if value is not None:
            argv += [flag] if value is True else [flag, value]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses malformed values
        code = exc.code
    assert code in (0, 2, 3, 4), argv
    assert code != 0 or refused is None, argv
