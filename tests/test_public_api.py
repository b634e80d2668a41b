"""Every name a ``repro`` module exports in ``__all__`` exists on it."""

import importlib
import pkgutil

import pytest

import repro


def _modules():
    yield repro.__name__
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name


@pytest.mark.parametrize("name", sorted(_modules()))
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
