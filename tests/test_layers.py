"""Module layering: ``reports`` alone serializes and writes files, ``bench`` only
computes, and no module imports scipy, so numpy is the only runtime dependency.
Each argument rule (an integer of at least N, a finite read-only array, +1/-1
labels) is written once, in ``states``.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finitekernels"


def imported_modules(path: Path) -> set[str]:
    """Every module a file imports, at any depth; relative imports keep their dots."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            names.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    return names


def importers(top: str) -> set[str]:
    """Files of the package that import ``top`` or any of its submodules."""
    return {
        path.name
        for path in PACKAGE.glob("*.py")
        if any(name.split(".")[0] == top for name in imported_modules(path))
    }


def writes_files(path: Path) -> bool:
    """Whether a file calls ``open``, ``write_text`` or ``write_bytes``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("open", "write_text", "write_bytes"):
                return True
    return False


def scoped_nodes(path: Path):
    """Every node of a file, with the dotted name of the defs and classes around it."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            yield from visit(child, inner)

    yield from visit(ast.parse(path.read_text()), "")


def sites(predicate) -> list[str]:
    """``file:scope`` of every node of the package that ``predicate`` holds for, once per node."""
    return sorted(
        f"{path.name}:{scope}"
        for path in PACKAGE.glob("*.py")
        for scope, node in scoped_nodes(path)
        if predicate(node)
    )


def test_only_reports_imports_json():
    assert importers("json") == {"reports.py"}


def test_bench_imports_nothing_from_reports():
    names = imported_modules(PACKAGE / "bench.py")
    assert not any(name.split(".")[-1] == "reports" or ".reports." in name for name in names)


def test_runtime_imports_no_scipy():
    assert importers("scipy") == set()


def test_only_reports_opens_or_writes_files():
    assert {path.name for path in PACKAGE.glob("*.py") if writes_files(path)} == {"reports.py"}


def test_only_states_frozen_array_makes_arrays_read_only():
    def freezes(node):
        if isinstance(node, ast.Assign):
            return any(getattr(target, "attr", None) == "writeable" for target in node.targets)
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags"

    assert sites(freezes) == ["states.py:_frozen_array"]


def test_integer_rule_is_applied_by_as_int_and_the_bounded_checks_alone():
    def calls_is_int(node):
        return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_is_int"

    # the optics checks carry their bound or their allowed set in the message
    assert sites(calls_is_int) == sorted([
        "states.py:_as_int",
        "optics.py:input_state",
        "optics.py:build_feature_unitary",
        "optics.py:ShotNoiseConfig.__post_init__",
        "optics.py:ShotNoiseConfig.__post_init__",
    ])


def test_retired_argument_helpers_are_gone():
    for path in PACKAGE.glob("*.py"):
        text = path.read_text()
        assert "_check_gamma" not in text and "_as_length" not in text, path.name


def test_label_rule_is_written_once_in_states():
    def states_the_rule(node):
        return isinstance(node, ast.Constant) and node.value == "labels must be +1 or -1"

    def calls_isin(node):
        return isinstance(node, ast.Attribute) and node.attr == "isin"

    assert sites(states_the_rule) == ["states.py:_check_signs"]
    assert sites(calls_isin) == []
