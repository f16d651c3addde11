"""Every name a module lists in ``__all__`` exists, so that
``from wavebound.<module> import *`` keeps working."""

import importlib

import pytest

MODULES = ("geometry", "bounds", "variational", "modematch", "fdm_oracle", "analysis")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"wavebound.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
