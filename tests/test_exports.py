"""Every name that a bcvgeo module lists in `__all__` must resolve, so that
`from bcvgeo.<module> import *` keeps working after a name is deleted."""

import importlib
import pkgutil

import pytest

import bcvgeo

# bcvgeo.__main__ runs the command line on import
MODULES = ["bcvgeo"] + [f"bcvgeo.{m.name}" for m in pkgutil.iter_modules(bcvgeo.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("modname", MODULES)
def test_all_names_resolve(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing, f"{modname}.__all__ lists missing names {missing}"
    exec(f"from {modname} import *", {})
