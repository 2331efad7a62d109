"""Spans around the calls into each layer, recorded from the benchmark's side.

The program is not changed: each layer function is replaced, for the
duration of a traced run, at every name its callers bind (a module that
did `from .ibm import step` calls `validation.step`, not `ibm.step`), by a
wrapper that records a span (layer, start, end, parent, work size).  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the durations of its direct children; calls are
sequential, so children never overlap.
"""
from __future__ import annotations

import importlib
import json
import statistics
import time
from pathlib import Path

P = "nematic_hydro."
CLI, OUT, VAL, IBM = P + "cli_io.cli", P + "cli_io.output", P + "validation", P + "ibm"

# layer -> (bindings (module, attribute), work size taken from the call's arguments)
LAYERS = {
    "ibm.step": ([(VAL, "step"), (IBM, "step")], lambda a, k: a[0].n_particles),
    "ibm.coarse_grain": ([(VAL, "coarse_grain"), (IBM, "coarse_grain")], None),
    "qtensor.leading_direction": ([(IBM, "leading_direction"), (VAL, "leading_direction")], None),
    "qtensor.qtensor_from_orientations":
        ([(IBM, "qtensor_from_orientations"), (VAL, "qtensor_from_orientations")], None),
    "macro.step": ([(CLI, "macro_step"), (VAL, "macro_step")], lambda a, k: a[0].rho.size),
    # validation imports these two inside particle_vs_macro, from the defining module
    "gci.radial.solve_bundle":
        ([(CLI, "solve_bundle"), (OUT, "solve_bundle"), (P + "gci.radial", "solve_bundle")], None),
    "gci.coefficients.compute_coefficients":
        ([(CLI, "compute_coefficients"), (OUT, "compute_coefficients"),
          (P + "gci.coefficients", "compute_coefficients")], None),
    "gci.coefficients.compute_coefficients_derivation":
        ([(OUT, "compute_coefficients_derivation")], None),
    "kinetic.evolve": ([(P + "kinetic", "evolve")], None),
    "kinetic.relaxation_series": ([(CLI, "relaxation_series")], None),
    "validation.particle_vs_macro": ([(CLI, "particle_vs_macro")], None),
    "validation.ibm_equilibrium_statistics": ([(CLI, "ibm_equilibrium_statistics")], None),
    "cli_io.output": ([(CLI, name) for name in (
        "write_csv", "write_sidecar", "write_json", "write_field_snapshot",
        "write_observation_binary", "emit_coefficient_table")], None),
}

ROOT = "cli_io.cli.main"


class Tracer:
    """Span recorder; install() wraps every binding, uninstall() restores them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent, size, round]
        self.stack: list[int] = []
        self.round = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1,
                          size(args, kwargs) if size else 0, self.round])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        for layer, (bindings, size) in LAYERS.items():
            for module_name, attr in bindings:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original, size))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path: Path) -> None:
        keys = ("layer", "start", "end", "parent", "size", "round")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")

    def round_totals(self, rnd: int) -> dict[str, dict[str, float]]:
        """Per layer: self time, inclusive time, calls and work size in one round."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent, size, r in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (layer, start, end, parent, size, r) in enumerate(self.spans):
            if r != rnd:
                continue
            t = totals.setdefault(layer, {"self": 0.0, "incl": 0.0, "calls": 0, "size": 0})
            t["self"] += end - start - child_time[i]
            t["incl"] += end - start
            t["calls"] += 1
            t["size"] += size
        return totals


def layer_metrics(totals: dict[str, dict[str, float]], output_bytes: int, wall: float) -> dict:
    """The per-layer metrics of one traced round; a layer not called reads 0."""
    def get(layer, key):
        return totals.get(layer, {}).get(key, 0)

    def per_unit(layer, scale):
        size = get(layer, "size")
        return get(layer, "incl") / size * scale if size else 0.0

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (get(layer, "self"), "s")
    m["ibm.step.us_per_particle"] = (per_unit("ibm.step", 1e6), "us")
    m["macro.step.ns_per_node"] = (per_unit("macro.step", 1e9), "ns")
    for layer in ("ibm.step", "qtensor.leading_direction", "macro.step",
                  "gci.radial.solve_bundle", "kinetic.evolve"):
        m[f"{layer}.calls"] = (get(layer, "calls"), "count")
    m["cli_io.output.bytes"] = (output_bytes, "B")
    m["trace.wall_s"] = (wall, "s")
    return m


def median_metrics(rounds: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(r[name][0] for r in rounds), "unit": unit}
        for name, (_, unit) in rounds[0].items()
    }
