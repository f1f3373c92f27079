"""Every name imported into a module of the package is used there."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "doubleshuffle"
PERFBENCH = SRC.parent.parent / "perfbench"

# bound only so that the benchmark tracer can wrap them (perfbench/spans.py)
ALLOWED_UNUSED = {("double_shuffle", "full_rank_certificate"),
                  ("odd_mzv", "rank_bareiss")}


def unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # the allowed names must stay imported: the tracer wraps them by name
    allowed = {name for module, name in ALLOWED_UNUSED if module == path.stem}
    assert unused_imports(path) == allowed


def test_no_dead_private_helpers():
    # every module-level _helper is referenced somewhere in the package
    # outside its own definition
    helpers, referenced = set(), set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                if own.startswith("_") and not own.startswith("__"):
                    helpers.add(own)
            referenced.update(
                name for node in ast.walk(stmt)
                for name in (getattr(node, "id", None),
                             getattr(node, "attr", None))
                if name and name != own)
    assert helpers <= referenced, sorted(helpers - referenced)


def test_benchmark_names_resolve(monkeypatch):
    # the benchmark tracer (perfbench/spans.py) wraps and reads package
    # names by string; a deleted or renamed one fails its pass, not a test
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    modules = {path.stem: importlib.import_module(f"doubleshuffle.{path.stem}")
               for path in SRC.glob("*.py") if path.name != "__init__.py"}
    wrapped = {(module, attr) for module, attr, _ in spans.WRAPPED}
    missing = {(module, attr) for module, attr in wrapped
               if not hasattr(modules.get(module), attr)}
    assert not missing, sorted(missing)
    assert type(spans.cache_entries(modules)) is int
    # the allowlist above lasts only as long as the tracer wraps the name
    assert ALLOWED_UNUSED <= wrapped
