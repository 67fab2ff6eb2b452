"""Module layering: ``reports`` alone serializes, and ``bench`` only computes."""

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


def test_only_reports_imports_json():
    importers = {
        path.name
        for path in PACKAGE.glob("*.py")
        if any(name.split(".")[0] == "json" for name in imported_modules(path))
    }
    assert importers == {"reports.py"}


def test_bench_imports_nothing_from_reports():
    names = imported_modules(PACKAGE / "bench.py")
    assert not any(name.split(".")[-1] == "reports" or ".reports." in name for name in names)
