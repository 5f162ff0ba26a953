"""The package root: `__all__`, star import and the objects it re-exports."""

import sys
from types import ModuleType

import smoothntt

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
