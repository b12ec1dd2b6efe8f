"""The public names of each package and the import edges between layers."""

import ast
import importlib
from pathlib import Path

import pytest


@pytest.mark.parametrize("name", ["crtasep", "crtasep.algebra", "crtasep.oracles"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises on a stale entry


SRC = Path(__file__).resolve().parent.parent / "src"


def crtasep_imports(path: Path) -> set[str]:
    """The crtasep modules a source file imports anywhere in its body,
    relative imports resolved, read with ``ast`` without importing it."""
    package = path.relative_to(SRC).with_suffix("").parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package[: len(package) + 1 - node.level]) if node.level else ""
            if node.module is None:  # from . import name: name is a module
                found.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                found.add(f"{base}.{node.module}" if base else node.module)
    return {name for name in found if name == "crtasep" or name.startswith("crtasep.")}


def test_low_layers_import_only_lower_layers():
    # algebra stands alone; combinatorics needs only Z[q, t] for its table G
    algebra = SRC / "crtasep" / "algebra"
    for path in sorted(algebra.glob("*.py")):
        outside = {m for m in crtasep_imports(path) if not m.startswith("crtasep.algebra.")}
        assert outside <= {"crtasep.errors"}, (path.name, outside)
    assert crtasep_imports(SRC / "crtasep" / "combinatorics.py") <= {"crtasep.algebra.poly", "crtasep.errors"}


def test_oracles_and_tableau_sums_meet_only_in_verify():
    # the oracles check the tableau sums, so neither side reads the other
    oracles = SRC / "crtasep" / "oracles"
    below = ("crtasep.algebra", "crtasep.combinatorics", "crtasep.errors", "crtasep.oracles.")
    for path in sorted(oracles.glob("*.py")):
        outside = {m for m in crtasep_imports(path) if not m.startswith(below)}
        assert outside == set(), (path.name, outside)
    weights = crtasep_imports(SRC / "crtasep" / "weights.py")
    assert {m for m in weights if m == "crtasep" or m.startswith("crtasep.oracles")} == set()
