"""The package runs on numpy alone, and exports nothing only tests use.

Every import in ``src/boat`` must be from the standard library, numpy or
boat itself, including imports inside functions. scipy is installed as a
test oracle, so a stray import of it in the package would pass every
other test and fail only where scipy is missing.

Every name in a boat module's ``__all__`` must be read somewhere in the
package, the demos or the benchmark, outside a definition of that name.
An ``__all__`` entry, an import line, a string or a test file is not a
use, so a helper that only its tests call is reported.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boat"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "boat"}


def foreign_imports(source: str) -> list[str]:
    """'line: module' for each absolute import outside ALLOWED, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{node.lineno}: {m}" for m in modules if m.split(".")[0] not in ALLOWED]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_numpy_or_boat(path):
    assert foreign_imports(path.read_text()) == []


def test_guard_sees_nested_and_dotted_imports():
    source = (
        "import os, numpy.linalg\n"
        "from . import nuts\n"
        "from .prob_core import sigmoid\n"
        "def f():\n"
        "    import scipy.stats\n"
        "class C:\n"
        "    def g(self):\n"
        "        from pandas import DataFrame\n"
        "        import json, numba\n"
    )
    assert foreign_imports(source) == ["5: scipy.stats", "8: pandas", "9: numba"]


def _reads(node, inside=frozenset()):
    """(name, names of the enclosing defs) for each name or attribute read."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id, inside
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr, inside
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, inside)


def _exported(source: str) -> list[str]:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def unused_exports(modules: dict, sources: list) -> list[str]:
    """'module.name' for each ``__all__`` entry of ``modules`` ({name:
    source}) that no source reads outside a definition of that name."""
    read = {name for source in sources for name, inside in _reads(ast.parse(source))
            if name not in inside}
    return [f"{module}.{name}" for module, source in modules.items()
            for name in _exported(source) if name not in read]


def test_every_exported_name_has_a_use_outside_tests():
    modules = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    sources = [p.read_text() for folder in (PACKAGE, ROOT / "demos", ROOT / "perfbench")
               for p in sorted(folder.rglob("*.py")) if not p.name.startswith("test_")]
    assert unused_exports(modules, sources) == []


def test_export_guard_ignores_definitions_all_entries_imports_and_strings():
    module = (
        '__all__ = ["used", "annotated", "recursive", "named", "imported", "LIMIT"]\n'
        "LIMIT = 3\n"
        "def used(): pass\n"
        "class annotated: pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def named(): pass\n"
        "def imported(): pass\n"
    )
    caller = (
        "from m import imported, used\n"
        "import m\n"
        "def f(x: m.annotated):\n"
        '    return m.used(), "named"\n'
    )
    assert unused_exports({"m": module}, [module, caller]) == [
        "m.recursive", "m.named", "m.imported", "m.LIMIT"]
