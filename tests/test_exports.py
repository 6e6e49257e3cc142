"""The public names of the package and of each module resolve."""

import importlib
import pkgutil

import pytest

import rscgc

MODULES = ["rscgc"] + [f"rscgc.{m.name}" for m in pkgutil.iter_modules(rscgc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    """A stale __all__ entry would otherwise fail only on a star import."""
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
