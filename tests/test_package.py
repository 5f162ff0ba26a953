"""The package root: `__all__`, star import, the objects it re-exports and its console script."""

import importlib.metadata
import sys
from pathlib import Path
from types import ModuleType

import pytest

import smoothntt
import smoothntt.cli

# Public names that alias an object defined outside the package.
ALIAS_HOMES = {"FieldElement": "smoothntt.field"}


def test_all_is_sorted_public_and_module_free():
    assert smoothntt.__all__ == sorted(set(smoothntt.__all__))
    for name in smoothntt.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(smoothntt, name), ModuleType), name


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from smoothntt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == smoothntt.__all__


def test_each_public_name_is_the_object_its_submodule_defines():
    assert smoothntt.fft_twiddle is smoothntt.transform.fft_twiddle
    for name in smoothntt.__all__:
        obj = getattr(smoothntt, name)
        home = sys.modules[ALIAS_HOMES.get(name, obj.__module__)]
        assert home.__name__.startswith("smoothntt."), name
        assert getattr(home, name) is obj, name


def test_console_script_is_cli_main(capsys):
    # The installed `smoothntt` command calls what this entry point loads and
    # hands its return value to sys.exit, so main must return the int exit code.
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"smoothntt": "smoothntt.cli:main"}
    entry = importlib.metadata.EntryPoint(
        name="smoothntt", value=scripts["smoothntt"], group="console_scripts"
    )
    main = entry.load()
    assert main is smoothntt.cli.main
    code = main(["generator", "65537"])
    assert type(code) is int and code == 0
    assert capsys.readouterr().out == "3 2^16\n"
