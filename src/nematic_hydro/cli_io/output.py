"""Deterministic output writers: CSV tables, binary snapshots, JSON sidecars.

Every data file is byte-identical across reruns of the same config: floats
are written with 17 significant digits ({:.16e}), JSON keys are sorted, and
binary files use explicit little-endian dtypes.  Each data file gets a
`<name>.json` sidecar carrying the config hash and code version; wall-clock
metadata goes to the separate run_meta.json only.
"""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .. import __version__
from ..gci.coefficients import (
    COEFFICIENT_NAMES,
    CoefficientSet,
    compute_coefficients,
    compute_coefficients_derivation,
    max_discrepancy,
)
from ..gci.radial import solve_bundle
from ..macro import MacroField

SNAPSHOT_MAGIC = b"NEMH"
FIELD_MAGIC = b"NEMF"
BINARY_VERSION = 1

_AUX_NAMES = ("aux_k_over_cos", "aux_a_over_kappa", "aux_ke_combination")
_TABLE_NAMES = COEFFICIENT_NAMES + _AUX_NAMES


def format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.16e}"
    return str(value)


def write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def config_hash(config_text: str) -> str:
    return hashlib.sha256(config_text.encode("utf-8")).hexdigest()


def write_sidecar(data_path: Path, cfg_hash: str, extra: Optional[dict] = None) -> None:
    """JSON sidecar `<file>.json` with the config hash and code version."""
    payload = {"config_sha256": cfg_hash, "code_version": __version__}
    if extra:
        payload.update(extra)
    write_json(Path(str(data_path) + ".json"), payload)


def write_json(path: Path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


# ---------------------------------------------------------------------------
# binary formats (documented in the README)


def write_observation_binary(path: Path, n: int, d: int, dt: float, rows: np.ndarray) -> None:
    """Observation trajectory in binary row format.

    Header (little-endian): magic "NEMH", version uint32, N uint64, d uint32,
    dt float64, n_rows uint64, row_width uint32.  Payload: n_rows rows of
    row_width float64 each, C order; row layout matches the CSV columns
    (time, order parameter, Q-tensor entries row-major).
    """
    rows = np.ascontiguousarray(rows, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<IQI", BINARY_VERSION, n, d))
        fh.write(struct.pack("<d", float(dt)))
        fh.write(struct.pack("<QI", rows.shape[0], rows.shape[1]))
        fh.write(rows.tobytes())


def read_observation_binary(path: Path) -> tuple[dict, np.ndarray]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"not an observation file: magic {magic!r}")
        version, n, d = struct.unpack("<IQI", fh.read(16))
        if version != BINARY_VERSION:
            raise ValueError(f"unsupported observation file version {version}")
        (dt,) = struct.unpack("<d", fh.read(8))
        n_rows, width = struct.unpack("<QI", fh.read(12))
        rows = np.frombuffer(fh.read(8 * n_rows * width), dtype="<f8")
    header = {"version": version, "N": n, "d": d, "dt": dt}
    return header, rows.reshape(n_rows, width).copy()


def write_field_snapshot(path: Path, field: MacroField) -> None:
    """Continuum snapshot: header, flat density, flat direction field.

    Header (little-endian): magic "NEMF", version uint32, d uint32,
    grid_n uint32, dx float64, time float64.  Payload: rho as grid_n^d
    float64 (C order), then u as grid_n^d * d float64.
    """
    d = field.spatial_dim
    n = field.rho.shape[0]
    with open(path, "wb") as fh:
        fh.write(FIELD_MAGIC)
        fh.write(struct.pack("<III", BINARY_VERSION, d, n))
        fh.write(struct.pack("<dd", float(field.dx), float(field.time)))
        fh.write(np.ascontiguousarray(field.rho, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(field.u, dtype="<f8").tobytes())


def read_field_snapshot(path: Path) -> MacroField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != FIELD_MAGIC:
            raise ValueError(f"not a field snapshot: magic {magic!r}")
        version, d, n = struct.unpack("<III", fh.read(12))
        if version != BINARY_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        dx, time = struct.unpack("<dd", fh.read(16))
        rho = np.frombuffer(fh.read(8 * n**d), dtype="<f8").reshape((n,) * d)
        u = np.frombuffer(fh.read(8 * n**d * d), dtype="<f8").reshape((n,) * d + (d,))
    return MacroField(rho=rho.copy(), u=u.copy(), dx=dx, time=time)


# ---------------------------------------------------------------------------
# coefficient table


def coefficient_table_rows(
    kappas: Sequence[float], ds: Sequence[int], n: int
) -> tuple[list[str], list[list]]:
    """Header and rows of the two-form coefficient table.

    One row per (kappa, d): status, both coefficient forms side by side, and
    their max per-coefficient discrepancy.  Solver failures land in the
    status column of their row instead of aborting the table.
    """
    header = (
        ["kappa", "d", "status"]
        + [f"theorem_{name}" for name in _TABLE_NAMES]
        + [f"derivation_{name}" for name in _TABLE_NAMES]
        + ["max_discrepancy"]
    )
    rows: list[list] = []
    for kappa in kappas:
        for d in ds:
            row: list = [float(kappa), int(d)]
            try:
                bundle = solve_bundle(float(kappa), int(d), n)
                thm = compute_coefficients(bundle)
                der = compute_coefficients_derivation(bundle)
                row.append("ok")
                row.extend(getattr(thm, name) for name in _TABLE_NAMES)
                row.extend(getattr(der, name) for name in _TABLE_NAMES)
                row.append(max_discrepancy(thm, der))
            except (ValueError, ArithmeticError) as exc:
                row.append(f"error: {exc}".replace(",", ";"))
                row.extend([float("nan")] * (2 * len(_TABLE_NAMES) + 1))
            rows.append(row)
    return header, rows


def emit_coefficient_table(
    kappas: Sequence[float],
    ds: Sequence[int],
    path: Path,
    cfg_hash: str,
    n: int,
) -> None:
    header, rows = coefficient_table_rows(kappas, ds, n)
    write_csv(path, header, rows)
    write_sidecar(path, cfg_hash, {"rows": len(rows)})


def load_coefficient_row(path: Path, kappa: float, d: int) -> CoefficientSet:
    """Theorem-form CoefficientSet from a coefficient table row."""
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    idx = {name: i for i, name in enumerate(header)}
    for line in lines[1:]:
        cells = line.split(",")
        if abs(float(cells[idx["kappa"]]) - kappa) < 1e-12 and int(cells[idx["d"]]) == d:
            if cells[idx["status"]] != "ok":
                raise ValueError(
                    f"row (kappa={kappa}, d={d}) has status {cells[idx['status']]!r}"
                )
            values = {
                name: float(cells[idx[f"theorem_{name}"]]) for name in _TABLE_NAMES
            }
            return CoefficientSet(kappa=float(kappa), d=int(d), **values)
    raise ValueError(f"no row with kappa={kappa}, d={d} in {path}")
