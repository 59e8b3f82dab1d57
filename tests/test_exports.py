"""Every public ``__all__`` in the ``repro`` package names something real.

A stale entry (a name deleted from its module but left in ``__all__``)
makes ``from module import *`` raise ``AttributeError``; this walks every
module so such drift fails here instead of in a user's import.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if not info.name.endswith(".__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists undefined names: {missing}"
