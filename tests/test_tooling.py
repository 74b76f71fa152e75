"""Guards on the package source itself, checked without importing it."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aspi"


def _imported_roots(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_runtime_imports_are_stdlib_numpy_or_package_relative():
    # numpy is the only runtime dependency; anything else (scipy included)
    # may appear in tests only
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    offenders = [
        f"{path.name}:{lineno} imports {root}"
        for path in files
        for lineno, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert not offenders, offenders
