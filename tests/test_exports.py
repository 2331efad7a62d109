"""Every module of the package imports, and every name in its __all__ exists."""
import importlib
import pkgutil

import pytest

import nematic_hydro

MODULES = sorted(
    info.name
    for info in pkgutil.walk_packages(nematic_hydro.__path__, prefix="nematic_hydro.")
)


def test_every_module_is_listed():
    assert {"nematic_hydro.gci.radial", "nematic_hydro.cli_io.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", ["nematic_hydro", *MODULES])
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
