"""Every name imported into a module of the package is used there."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "doubleshuffle"
PERFBENCH = SRC.parent.parent / "perfbench"
TESTS = Path(__file__).resolve().parent

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


def definitions_and_references(paths):
    """The module-level function and class names defined in ``paths``, and
    every name read there (as a name or an attribute) outside the
    definition of the same name."""
    defined, referenced = set(), set()
    for path in paths:
        for stmt in ast.parse(path.read_text()).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = stmt.name
                defined.add(own)
            referenced.update(
                name for node in ast.walk(stmt)
                for name in (getattr(node, "id", None),
                             getattr(node, "attr", None))
                if name and name != own)
    return defined, referenced


def test_no_dead_private_helpers():
    # every module-level _helper is referenced somewhere in the package
    # outside its own definition
    defined, referenced = definitions_and_references(SRC.glob("*.py"))
    helpers = {name for name in defined
               if name.startswith("_") and not name.startswith("__")}
    assert helpers <= referenced, sorted(helpers - referenced)


def test_no_dead_public_names():
    # every public module-level function or class of the package is read
    # somewhere in the package, the tests or the benchmark, outside its own
    # definition; an export from __init__ is not a reader
    defined, _ = definitions_and_references(SRC.glob("*.py"))
    public = {name for name in defined if not name.startswith("_")}
    _, referenced = definitions_and_references(
        [*SRC.glob("*.py"), *TESTS.rglob("*.py"), *PERFBENCH.rglob("*.py")])
    assert public <= referenced, sorted(public - referenced)


def package_modules():
    return {path.stem: importlib.import_module(f"doubleshuffle.{path.stem}")
            for path in SRC.glob("*.py") if path.name != "__init__.py"}


def test_benchmark_names_resolve(monkeypatch):
    # the benchmark tracer (perfbench/spans.py) wraps and reads package
    # names by string; a deleted or renamed one fails its pass, not a test
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    modules = package_modules()
    wrapped = {(module, attr) for module, attr, _ in spans.WRAPPED}
    missing = {(module, attr) for module, attr in wrapped
               if not hasattr(modules.get(module), attr)}
    assert not missing, sorted(missing)
    assert type(spans.cache_entries(modules)) is int
    # the allowlist above lasts only as long as the tracer wraps the name
    assert ALLOWED_UNUSED <= wrapped


@pytest.mark.parametrize("target", ["ls", "odd", "full-t1"])
def test_bk_check_prediction_is_traced(monkeypatch, capsys, target):
    # every bk-check target reads its prediction through a name the
    # benchmark tracer wraps, so that it counts in series.s
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    modules = package_modules()
    tracer = spans.Tracer("test")
    tracer.install(modules)
    try:
        code = modules["cli"].main(["bk-check", "--target", target,
                                    "--max-weight", "9", "--max-depth", "3"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert "series.bk_series" in {span[0] for span in tracer.spans}
