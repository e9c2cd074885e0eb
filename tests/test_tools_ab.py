"""The in-process A/B harness ``tools/ab.py``: equal trees pass; differing outputs fail
unless ``--allow-diff`` is given, and a side whose own calls differ fails even then."""
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHAPE = "marking-12x300"


def copy_tree(tmp_path, name):
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tree


def run_ab(parent, change, *flags):
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(parent), str(change),
         "--shape", SHAPE, "--pairs", "2", *flags],
        capture_output=True, text=True, timeout=120)


def mutant(tmp_path, old, new):
    tree = copy_tree(tmp_path, "mutant")
    source = tree / "src" / "biased_shuffle" / "marking.py"
    text = source.read_text()
    assert text.count(old) == 1
    source.write_text(text.replace(old, new))
    return tree


def test_ab_passes_a_copy_of_the_tree_with_one_row(tmp_path):
    proc = run_ab(ROOT, copy_tree(tmp_path, "copy"))
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[2:]
    assert len(rows) == 1 and rows[0].startswith(f"| {SHAPE} | 2 |")


def test_ab_fails_and_names_the_shape_when_outputs_differ(tmp_path):
    # compacting earlier changes the take sizes, and so every later draw
    tree = mutant(tmp_path, "done * 8 >= batch", "done * 4 >= batch")
    proc = run_ab(ROOT, tree)
    assert proc.returncode == 1
    assert f"outputs differ on shape {SHAPE}" in proc.stderr
    proc = run_ab(ROOT, tree, "--allow-diff")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()[2:]) == 1


def test_ab_allow_diff_still_fails_a_side_whose_own_calls_differ(tmp_path):
    # a clock in the seed gives every call of the mutant its own stream
    tree = mutant(tmp_path, "stream_rng(seed, STREAM_MARKING)",
                  "stream_rng(seed + __import__('time').perf_counter_ns(), STREAM_MARKING)")
    proc = run_ab(ROOT, tree, "--allow-diff")
    assert proc.returncode == 1
    assert f"outputs differ on shape {SHAPE}" in proc.stderr
