"""The public surface: every name a module lists in __all__ exists."""

import importlib
import pkgutil

import pytest

import pvilab

MODULES = sorted(m.name for m in pkgutil.iter_modules(pvilab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves_every_public_name(name):
    # a stale __all__ entry makes the star import raise AttributeError
    namespace = {}
    exec(f"from pvilab.{name} import *", namespace)
    public = getattr(importlib.import_module(f"pvilab.{name}"), "__all__", ())
    assert [n for n in public if n not in namespace] == []
