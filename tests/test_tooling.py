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


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def test_every_export_is_defined_at_module_top_level():
    # a name deleted from a module but left in its __all__ breaks
    # `from aspi.module import *` only when that import runs
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    stale = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        defined = set(_top_level_names(tree))
        stale += [f"{path.name}: {name}" for name in _exports(tree) if name not in defined]
    assert not stale, stale
    assert _exports(ast.parse((SRC / "__init__.py").read_text()))


def _loaded_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_private_top_level_name_is_used_in_its_module():
    # a private helper or constant that its own module no longer reads
    # (say, a block size left behind when its loop went) is dead code
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            for name in _top_level_names(ast.Module(body=[stmt], type_ignores=[])):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(name in _loaded_names(other) for other in tree.body if other is not stmt):
                    unused.append(f"{path.name}: {name}")
    assert not unused, unused


PERFBENCH = SRC.parents[1] / "perfbench" / "run.py"


def _package_attributes(tree):
    # X of self.aspi.X, prog.aspi.X, and a.X where a = self.aspi
    def is_package(node):
        return isinstance(node, ast.Attribute) and node.attr == "aspi"

    aliases = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and is_package(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and (is_package(node.value)
                 or isinstance(node.value, ast.Name) and node.value.id in aliases)}


def test_every_name_the_benchmark_reads_off_the_package_is_exported():
    # the benchmark's set-up calls names that src/ itself may no longer
    # call (synthesize_mask, say); deleting one would break the benchmark
    used = _package_attributes(ast.parse(PERFBENCH.read_text(), str(PERFBENCH)))
    assert {"synthesize_mask", "run_cli", "SENTINEL", "PatternSpec"} <= used
    exported = set(_exports(ast.parse((SRC / "__init__.py").read_text())))
    assert sorted(used - exported) == []
