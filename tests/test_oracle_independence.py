"""The reference oracles must not import the fast paths they check."""
import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("_reference.py")

# Fast paths that tests/_reference.py stands in for as an oracle.
FAST_PATHS = frozenset({
    "assigned_card",
    "bulk_marking_runs",
    "hands_from_uniforms",
    "HandStream",
    "build_operator",
    "list_orbits",
    "TransitionOperator",
    "lehmer_operator",
    "expected_absorption",
    "absorption_bound_table",
    "simulate_absorption",
    "simulate_walks",
    "MarkingState",
    "phase1_step",
    "phase2_step",
    "factorization_check",
    "run_to_full_marking",
})


def fast_paths_used(source: str) -> set[str]:
    """Fast-path names a module imports or reaches as a module attribute."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                used.update(alias.name.split("."))
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used & FAST_PATHS


def test_checker_flags_fast_path_imports():
    assert fast_paths_used("from biased_shuffle.marking import assigned_card") == {
        "assigned_card"}
    assert fast_paths_used("import biased_shuffle.type_chain as tc\n"
                           "tc.expected_absorption(2, 0.5)") == {"expected_absorption"}
    assert fast_paths_used("from biased_shuffle.marking import phase1_rule") == set()


def test_reference_imports_no_fast_path():
    assert fast_paths_used(REFERENCE.read_text()) == set()
