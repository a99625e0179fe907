"""Every name a jostspec module lists in __all__ resolves, the README names
only what exists, and the README's library quick start runs."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import jostspec
from jostspec import cli

MODULES = sorted(info.name for info in pkgutil.iter_modules(jostspec.__path__))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_modules_found():
    assert {"transfer", "jost", "measures"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(f"jostspec.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"jostspec.{name}.__all__ lists missing names {missing}"


def test_readme_quick_start_runs():
    readme = README.read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], "README.md", "exec"), namespace)
    assert namespace["rho"] > 0 and namespace["green"].imag > 0
    assert namespace["entropy"] < 0 and namespace["report"].passed


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_readme_config_example_runs(tmp_path, experiment):
    # the config reader reads an inline "# ..." as part of the value, so
    # each comment of the example must stand on its own line
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    assert len(blocks) == 1
    config = tmp_path / "config.ini"
    config.write_text(blocks[0], encoding="utf-8")
    assert cli.main([experiment, "--config", str(config), "--out", str(tmp_path)]) == 0
    assert (tmp_path / f"{experiment}.csv").exists()


def readme_names(text):
    """The backticked tokens outside code blocks that name code: module.name,
    with or without the jostspec. prefix, and bare lowercase identifiers
    that contain an underscore."""
    prose = re.sub(r"```.*?```", "", text, flags=re.S)
    for token in re.findall(r"`([^`\n]+)`", prose):
        name = token.removeprefix("jostspec.")
        if re.fullmatch(r"[A-Za-z_]\w*\.[A-Za-z_]\w*", name) or re.fullmatch(r"[a-z_][a-z0-9_]*", name) and "_" in name:
            yield name


def resolves(name):
    """Whether name is an attribute of jostspec or of one of its submodules,
    a config key of cli._SECTIONS, or a field of a dataclass jostspec exports."""
    if "." in name:
        module, attr = name.split(".")
        return module in MODULES and hasattr(importlib.import_module(f"jostspec.{module}"), attr)
    modules = [jostspec, *(importlib.import_module(f"jostspec.{m}") for m in MODULES)]
    keys = {key for table in cli._SECTIONS.values() for key in table}
    fields = {
        f.name for value in vars(jostspec).values() if dataclasses.is_dataclass(value) for f in dataclasses.fields(value)
    }
    return any(hasattr(m, name) for m in modules) or name in keys or name in fields


def test_readme_names_resolve():
    names = set(readme_names(README.read_text(encoding="utf-8")))
    assert {"transfer.decaying_branch", "log_prefactor", "grid_points", "tail_m_function"} <= names
    missing = sorted(name for name in names if not resolves(name))
    assert not missing, f"README names {missing}, which jostspec does not have"


@pytest.mark.parametrize(
    "stale", ["floquet_eigenvalue", "product_representation", "entropy_integral", "measures._tail_closure"]
)
def test_readme_name_check_catches_deleted_names(stale):
    assert list(readme_names(f"prose naming `{stale}`, also as `jostspec.{stale}`")) == [stale, stale]
    assert not resolves(stale)
