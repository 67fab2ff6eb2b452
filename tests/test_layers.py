"""Module layering: ``reports`` alone serializes and writes files, ``bench`` only
computes, and no module imports scipy, so numpy is the only runtime dependency.
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


def test_only_reports_imports_json():
    assert importers("json") == {"reports.py"}


def test_bench_imports_nothing_from_reports():
    names = imported_modules(PACKAGE / "bench.py")
    assert not any(name.split(".")[-1] == "reports" or ".reports." in name for name in names)


def test_runtime_imports_no_scipy():
    assert importers("scipy") == set()


def test_only_reports_opens_or_writes_files():
    assert {path.name for path in PACKAGE.glob("*.py") if writes_files(path)} == {"reports.py"}
