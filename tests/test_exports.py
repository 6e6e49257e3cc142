"""The public names of the package and of each module resolve, each is used
outside the tests, and the package imports no third-party module beyond the
ones it needs."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

import rscgc

MODULES = ["rscgc"] + [f"rscgc.{m.name}" for m in pkgutil.iter_modules(rscgc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A stale __all__ entry would otherwise fail only on a star import."""
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def _rscgc_bindings(tree):
    """Names a file binds by importing rscgc, a module of it or a name from
    one, relative imports included."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                      if alias.name.split(".")[0] == "rscgc"}
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "rscgc"):
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound


def _root(node):
    """The name an attribute chain x.a.b starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _loaded_names(path):
    """Names read in a file as a Name, or as the attribute of a chain rooted
    at a name the file imports from rscgc, each top-level definition's own
    name left out of its body. An attribute of another object, such as
    numpy.__version__, reads no rscgc name."""
    tree = ast.parse(path.read_text())
    bound = _rscgc_bindings(tree)
    loaded = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and _root(node.value) in bound):
                name = node.attr
            else:
                continue
            if name != own:
                loaded.add(name)
    return loaded


def test_every_exported_name_is_used_outside_the_tests():
    """The library holds what the solver, the CLI and perfbench call: each
    public name is read somewhere in src/rscgc/ besides its own definition,
    or in perfbench/."""
    package = Path(rscgc.__file__).parent
    perfbench = package.parents[1] / "perfbench"
    files = sorted(package.glob("*.py")) + sorted(perfbench.glob("*.py"))
    loaded = set().union(*map(_loaded_names, files))
    exported = {n for name in MODULES for n in importlib.import_module(name).__all__}
    assert sorted(exported - loaded) == []


def test_third_party_imports_are_numpy_and_scipy_sparse_and_linalg():
    """The runtime dependencies are numpy and scipy's sparse matrices, sparse
    LU and dense LAPACK wrappers: every absolute import in src/rscgc/ of a
    module outside the standard library, nested ones included, is one of
    these four."""
    imported = set()
    for path in Path(rscgc.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module)
    third_party = {name for name in imported
                   if name.split(".")[0] not in sys.stdlib_module_names}
    assert third_party == {"numpy", "scipy.sparse", "scipy.sparse.linalg", "scipy.linalg"}
