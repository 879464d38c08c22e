"""The package runs on numpy alone.

Every import in ``src/boat`` must be from the standard library, numpy or
boat itself, including imports inside functions. scipy is installed as a
test oracle, so a stray import of it in the package would pass every
other test and fail only where scipy is missing.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "boat"
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
