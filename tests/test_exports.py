"""Every name a jostspec module lists in __all__ resolves."""

import importlib
import pkgutil

import pytest

import jostspec

MODULES = sorted(info.name for info in pkgutil.iter_modules(jostspec.__path__))


def test_modules_found():
    assert {"transfer", "jost", "measures"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"jostspec.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"jostspec.{name}.__all__ lists missing names {missing}"
