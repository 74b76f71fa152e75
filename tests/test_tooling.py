"""Guards on the package source, checked without importing it, on its README, and on the
GEMM pins of OpenBLAS cores other than the one this CPU picks."""

import ast
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import blas_core, python

SRC = Path(__file__).resolve().parents[1] / "src" / "aspi"
README = SRC.parents[1] / "README.md"
PYPROJECT = SRC.parents[1] / "pyproject.toml"


def _sources():
    """Every source file of the package, subpackages included, and its dotted module name."""
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    return [(path, ".".join(path.relative_to(SRC).with_suffix("").parts)) for path in files]


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
    offenders = [
        f"{module}:{lineno} imports {root}"
        for path, module in _sources()
        for lineno, root in _imported_roots(ast.parse(path.read_text(), str(path)))
        if root not in allowed
    ]
    assert not offenders, offenders


def _top_level_names(tree, imports: bool = True):
    """The names a module binds at its top level; by def, class or assignment only unless imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _package_exports():
    # aspi/__init__ builds __all__ from _EXPORTS, which names the module
    # each exported name is looked up in on first use
    tree = ast.parse((SRC / "__init__.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)):
            return ast.literal_eval(node.value)
    return {}


def test_every_export_is_defined_at_module_top_level():
    # a name deleted from a module but left in its __all__ breaks
    # `from aspi.module import *` only when that import runs, and one left
    # in the package's map breaks `aspi.name` only when it is first read.
    # Defined means by def, class or assignment: an imported name listed
    # again would give it a second home, and the map names each one's home
    stale, defined = [], {}
    for path, module in _sources():
        tree = ast.parse(path.read_text(), str(path))
        defined[module] = set(_top_level_names(tree, imports=False))
        if module != "__init__":
            stale += [f"{module}: {name}" for name in _exports(tree)
                      if name not in defined[module]]
    package = _package_exports()
    assert package
    stale += [f"__init__.py: {module}.{name}" for module, names in package.items()
              for name in names if name not in defined.get(module, ())]
    assert not stale, stale
    names = [name for names in package.values() for name in names]
    assert len(names) == len(set(names)), "a name is exported from two modules"


def _loaded_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_every_private_top_level_name_is_used_in_its_module():
    # a private helper or constant that its own module no longer reads
    # (say, a block size left behind when its loop went) is dead code
    unused = []
    for path, module in _sources():
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            for name in _top_level_names(ast.Module(body=[stmt], type_ignores=[])):
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if not any(name in _loaded_names(other) for other in tree.body if other is not stmt):
                    unused.append(f"{module}: {name}")
    assert not unused, unused


# what starts a thread or a process, made by name or as an attribute
_THREAD_STARTERS = {"Thread", "Timer", "ThreadPoolExecutor", "ProcessPoolExecutor", "Process",
                    "Pool", "start_new_thread"}


def test_one_thread_pool_in_the_package():
    # every threaded path runs through errors.run_ahead and its worker
    # Threads; a second start site (a writer thread, a pool per command) is
    # a second mechanism, and concurrent.futures is not needed
    sites, futures = [], []
    for path, module in _sources():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            where = f"{module}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in _THREAD_STARTERS:
                    sites.append(where)
            elif isinstance(node, ast.Import):
                futures += [where for a in node.names if a.name.startswith("concurrent")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("concurrent"):
                futures.append(where)
    assert len(sites) == 1 and sites[0].startswith("errors:"), sites
    assert futures == [], futures


def test_only_the_mask_model_reads_the_signed_shear():
    # imaging_model turns the rig into mask positions; any other reader of
    # the shear holds a second copy of that geometry
    readers = sorted(
        f"{module}:{node.lineno}"
        for path, module in _sources()
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "signed_shear"
        and module not in ("rig", "imaging_model"))
    assert readers == [], readers


def test_sources_of_subpackages_are_scanned():
    # the checks above walk subpackages too, so code moved into one stays checked
    assert "commands.depthmap" in {module for _, module in _sources()}


def test_the_aspi_script_runs_the_module_that_pins_blas():
    tomllib = pytest.importorskip("tomllib")
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["aspi"]
    assert target == "aspi.__main__:main"
    # there the pin runs before the module imports anything of the package
    body = ast.parse((SRC / "__main__.py").read_text()).body
    pin = next(i for i, node in enumerate(body)
               if isinstance(node, ast.If) and "OPENBLAS_NUM_THREADS" in ast.unparse(node))
    first = next(i for i, node in enumerate(body)
                 if isinstance(node, ast.ImportFrom) and node.level > 0)
    assert pin < first


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
    exported = {name for names in _package_exports().values() for name in names}
    assert sorted(used - exported) == []


def test_readme_library_example_runs():
    # the block exactly as written, so the documented API cannot drift unseen
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert names["volume"].sections.shape == (60, 64, 256)
    # the one layer lies at section 20
    assert np.nanmedian(names["depth"].depth) == 20.0


TESTS = Path(__file__).resolve().parent
# the tests that pin GEMM bytes per OpenBLAS core (conftest.blas_core)
PIN_TESTS = [f"{TESTS / 'test_reconstructor.py'}::test_gemm_volumes_keep_their_pinned_bytes",
             f"{TESTS / 'test_cli.py'}::TestBench::test_checksum_of_the_float32_volume_is_pinned"]


def _runs_avx2():
    try:
        flags = Path("/proc/cpuinfo").read_text().split()
    except OSError:
        return False
    return platform.machine() == "x86_64" and "avx2" in flags


@pytest.mark.skipif(not _runs_avx2(), reason="needs an x86-64 CPU with avx2 in /proc/cpuinfo")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_gemm_pins_hold_on_other_openblas_cores(monkeypatch, core):
    # an AVX2 CPU runs the kernels of both cores, so both pins are checked
    # here, not only those of the core OpenBLAS picks for this CPU
    if blas_core() is None:
        pytest.skip("numpy bundles no OpenBLAS")
    monkeypatch.setenv("OPENBLAS_CORETYPE", core)
    proc = python("-c", f"import sys; sys.path.insert(0, {str(TESTS)!r})\n"
                        "from conftest import blas_core; print(blas_core())")
    assert proc.stdout.split() == [core], proc.stderr
    proc = python("-m", "pytest", "-q", "-p", "no:cacheprovider", *PIN_TESTS)
    assert proc.returncode == 0, proc.stdout
    assert "8 passed" in proc.stdout, proc.stdout
