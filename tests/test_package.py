import importlib

import pytest

import mshe


@pytest.mark.parametrize("module", mshe.__all__)
def test_all_names_resolve(module):
    # every public name a module lists is defined in it
    mod = importlib.import_module(f"mshe.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
