"""The public names of each package."""

import importlib

import pytest


@pytest.mark.parametrize("name", ["crtasep", "crtasep.algebra", "crtasep.oracles"])
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)  # raises on a stale entry
