"""The reference oracles must not import the fast paths they check."""
import ast
from pathlib import Path

REFERENCE = Path(__file__).with_name("_reference.py")
HELPERS = Path(__file__).with_name("_helpers.py")

# Fast paths that tests/_reference.py stands in for as an oracle.
FAST_PATHS = frozenset({
    "assigned_card",
    "bulk_marking_runs",
    "step_table",
    "_step_rules",
    "hands_from_uniforms",
    "hand_table",
    "uniforms_from_words",
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


def test_scalar_engine_states_the_step_without_the_batched_rules():
    # the scalar engine in tests/_helpers.py is the oracle that the step
    # table is checked against row by row, so it must not reach the table
    # or the batched statement of the step that the table is built from
    assert fast_paths_used(HELPERS.read_text()) & {"step_table", "_step_rules"} == set()


ROOT = Path(__file__).resolve().parents[1]

# Paper bounds that only the acceptance gate reads, criteria 7i and 7ii.
# They stay in src/ as the package's statement of the paper's bounds next
# to the chain they bound, rather than moving into the test oracles.
READ_BY_TESTS_ONLY = frozenset({"variance_bound", "phase2_upper_bound"})


def public_definitions(source: str) -> set[str]:
    """Public names a module binds at its top level."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(leaf.id for target in targets for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name))
    return {name for name in names if not name.startswith("_")}


def names_read(source: str) -> set[str]:
    """Names a module reads: loads, attributes and dotted-name strings.

    An import alone is not a read, so a re-export does not count.  Strings
    count because the benchmark reaches the functions it wraps by name.
    """
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                read.update(parts)
    return read


def unread_names(defining: list[str], reading: list[str]) -> set[str]:
    """Public names defined in ``defining`` that no source in ``reading`` reads."""
    defined = set().union(*map(public_definitions, defining))
    return defined - set().union(*map(names_read, reading))


def package_unread_names() -> set[str]:
    package = [path.read_text() for path in sorted((ROOT / "src" / "biased_shuffle").glob("*.py"))]
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    return unread_names(package, package + bench)


def test_checker_flags_unread_names():
    module = "LIMIT = 3\n_HIDDEN = 1\ndef used():\n    return LIMIT\ndef spare():\n    pass\n"
    assert unread_names([module], [module]) == {"used", "spare"}
    assert unread_names([module], [module, "from m import spare\nused()"]) == {"spare"}
    assert unread_names([module], [module, "m.used", "TARGETS = ('m', 'spare')"]) == set()


def test_every_package_name_is_read_by_the_package_or_the_benchmark():
    # a name only the tests read belongs in tests/_helpers.py or tests/_reference.py
    assert package_unread_names() - READ_BY_TESTS_ONLY == set()


def test_allowlist_holds_only_unread_names():
    assert READ_BY_TESTS_ONLY <= package_unread_names()


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def sibling_private_reads(source: str) -> set[str]:
    """Underscore names a package module takes from another package module.

    Counts ``from .m import _x`` and ``m._x`` where ``m`` was bound by
    ``from . import m``; the absolute ``biased_shuffle`` spellings count too.
    """
    tree = ast.parse(source)
    siblings, reads = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "biased_shuffle"):
            own = node.module in (None, "biased_shuffle")
            for alias in node.names:
                if own:
                    siblings.add(alias.asname or alias.name)
                elif _private(alias.name):
                    reads.add(f"{node.module.split('.')[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            reads.add(f"{node.value.id}.{node.attr}")
    return reads


def test_checker_flags_sibling_private_reads():
    assert sibling_private_reads("from . import type_chain\ntype_chain._check(1)") == {
        "type_chain._check"}
    assert sibling_private_reads("from .marking import _chisquare, mark_threshold") == {
        "marking._chisquare"}
    assert sibling_private_reads("from biased_shuffle import marking as m\nm._x") == {"m._x"}
    assert sibling_private_reads("import numpy as np\n_y = 1\nnp._z\n_y") == set()


def test_no_package_module_reads_another_modules_private_name():
    reads = {(path.name, name)
             for path in sorted((ROOT / "src" / "biased_shuffle").glob("*.py"))
             for name in sibling_private_reads(path.read_text())}
    assert reads == set()
