"""Public-API hygiene: exports resolve, are documented, stay stable, and
every module-level function or class is used somewhere."""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import repro
import repro.datalog
import repro.flocks
import repro.relational
import repro.workloads


PACKAGES = [repro, repro.datalog, repro.flocks, repro.relational, repro.workloads]
ROOT = Path(__file__).resolve().parents[1]


class TestExports:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_names_resolve(self, package):
        for name in package.__all__:
            assert hasattr(package, name), f"{package.__name__}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_all_sorted(self, package):
        # A tidy __all__ is easy to diff; enforce sorted order.
        assert list(package.__all__) == sorted(package.__all__)

    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_package_docstring(self, package):
        assert package.__doc__ and len(package.__doc__.strip()) > 20


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
    def test_every_public_item_documented(self, package):
        undocumented = []
        for name in package.__all__:
            item = getattr(package, name)
            if inspect.isfunction(item) or inspect.isclass(item):
                doc = inspect.getdoc(item)
                if not doc or len(doc.strip()) < 10:
                    undocumented.append(f"{package.__name__}.{name}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_public_classes_document_methods(self):
        """Spot-check the main workhorse classes: every public method
        carries a docstring."""
        from repro.flocks import DynamicEvaluator, FlockOptimizer, SQLiteBackend
        from repro.relational import Database, Relation

        missing = []
        for cls in (Relation, Database, FlockOptimizer, DynamicEvaluator,
                    SQLiteBackend):
            for name, member in inspect.getmembers(cls):
                if name.startswith("_") or not callable(member):
                    continue
                if not inspect.getdoc(member):
                    missing.append(f"{cls.__name__}.{name}")
        assert not missing, f"undocumented methods: {missing}"


class TestVersion:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


def test_every_module_level_definition_is_named_elsewhere():
    """A module-level function or class of ``src/repro`` must be named
    besides its own definition: again in its own module, or in a
    non-``__init__`` file under ``src/``, ``tests/``, ``benchmarks/`` or
    ``examples/`` (a re-export alone keeps nothing alive).  Module
    dunders are exempt."""
    words = {
        path: Counter(re.findall(r"\w+", path.read_text(encoding="utf-8")))
        for top in ("src", "tests", "benchmarks", "examples")
        for path in (ROOT / top).rglob("*.py")
    }
    files_naming = Counter(
        name
        for path, counts in words.items()
        if path.name != "__init__.py"
        for name in counts
    )
    unused = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            # files_naming counts the defining file unless it is an __init__.
            others = files_naming[name] - (path.name != "__init__.py")
            if words[path][name] > 1 or others > 0:
                continue
            unused.append(f"{path.relative_to(ROOT)}::{name}")
    assert not unused, f"defined but never named: {unused}"
