"""Every name a jostspec module lists in __all__ resolves, and the README's
library quick start runs."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["rho"] > 0 and namespace["green"].imag > 0
    assert namespace["entropy"] < 0 and namespace["report"].passed
