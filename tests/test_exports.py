"""Every module of the package imports, and every name in its __all__ exists."""
import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_bench_span_bindings_resolve():
    """Every (module, attribute) the benchmark's tracer wraps exists after import.

    The tracer replaces these names for `bench/run.py --trace 1`; a refactor
    that drops one of the imports would otherwise surface only there.
    """
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    bindings = [b for names, _ in spans.LAYERS.values() for b in names]
    missing = [(m, a) for m, a in bindings if not hasattr(importlib.import_module(m), a)]
    assert bindings and not missing, f"unresolved span bindings {missing}"
