"""Shows that every output check fails on a corrupted copy of what it reads.

    python3 bench/selftest.py

Runs each workload's operations once (seed 0) and the per-run checks, and
requires all checks to pass on the genuine outputs.  Then, for each check,
it corrupts a copy of the output the check reads and requires the check to
report a failure.  Exits 0 when every check passes on the genuine outputs
and catches every corruption.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from nematic_hydro.cli_io.cli import main  # noqa: E402

WORK = ROOT / "bench" / "out" / "selftest"
SEED = 0


def edit_csv(path: Path, row: int, column: str, fn) -> None:
    header, rows = checks.read_csv(path)
    i = header.index(column)
    rows[row][i] = fn(rows[row][i])
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")


def scale_cell(factor: float):
    return lambda cell: f"{float(cell) * factor:.16e}"


def set_cell(value: str):
    return lambda cell: value


def edit_json(path: Path, key: str, fn) -> None:
    payload = json.loads(path.read_text())
    payload[key] = fn(payload[key])
    path.write_text(json.dumps(payload))


def edit_snapshot(path: Path, fn) -> None:
    head, rho, u = checks.read_snapshot(path)
    rho, u = rho.copy(), u.copy()
    fn(rho, u)
    raw = path.read_bytes()[:32]
    path.write_bytes(raw + rho.astype("<f8").tobytes() + u.astype("<f8").tobytes())


def flip_last_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 1
    path.write_bytes(bytes(raw))


def swap_rows(a: int, b: int):
    def fn(path: Path) -> None:
        lines = path.read_text().splitlines()
        lines[a], lines[b] = lines[b], lines[a]
        path.write_text("\n".join(lines) + "\n")
    return fn


def mutate_x2(rho, u):
    rho[5, 7] = np.nextafter(rho[5, 7], 2.0)


def mutate_mass(rho, u):
    rho[3, :] *= 1.0 + 1e-6


def mutate_norm(rho, u):
    u[9, :, :] *= 1.0 + 1e-11


# (label, workload, operation index, file, corruption)
CORRUPTIONS = [
    ("density distance NaN", "cross-scale", 0, "cross_curve.csv",
     lambda p: edit_csv(p, 2, "density_distance", set_cell("nan"))),
    ("density distance 10x", "cross-scale", 0, "cross_curve.csv",
     lambda p: edit_csv(p, 3, "density_distance", scale_cell(10.0))),
    ("checkpoint times out of order", "cross-scale", 0, "cross_curve.csv", swap_rows(1, 2)),
    ("final distance in report", "cross-scale", 0, "cross_report.json",
     lambda p: edit_json(p, "final_density_distance", lambda v: v * (1 + 1e-9))),
    ("KS statistic 0.03", "equilibrium", 0, "equilibrium_report.json",
     lambda p: edit_json(p, "ks_statistic", lambda v: 0.03)),
    ("order parameter +0.02", "equilibrium", 0, "equilibrium_report.json",
     lambda p: edit_json(p, "order_parameter", lambda v: v + 0.02)),
    ("sample count", "equilibrium", 0, "equilibrium_report.json",
     lambda p: edit_json(p, "n_samples", lambda v: v - 1)),
    ("reported KS critical value", "equilibrium", 0, "equilibrium_report.json",
     lambda p: edit_json(p, "ks_critical", lambda v: v * 1.5)),
    ("analytic CDF curve", "equilibrium", 0, "equilibrium_curve.csv",
     lambda p: edit_csv(p, 100, "analytic_cdf", scale_cell(1 + 1e-5))),
    ("one node off x2 invariance", "continuum", 0, "snapshot_00002.bin",
     lambda p: edit_snapshot(p, mutate_x2)),
    ("mass of one row", "continuum", 0, "snapshot_00003.bin",
     lambda p: edit_snapshot(p, mutate_mass)),
    ("|u| of one row", "continuum", 0, "snapshot_00004.bin",
     lambda p: edit_snapshot(p, mutate_norm)),
    ("CSV profile cell", "continuum", 0, "snapshot_00001.csv",
     lambda p: edit_csv(p, 10, "rho", lambda c: f"{np.nextafter(float(c), 9.0):.16e}")),
    ("truncated snapshot", "continuum", 0, "snapshot_00001.bin",
     lambda p: p.write_bytes(p.read_bytes()[:-8])),
    ("row status", "angular", 0, "coefficients.csv",
     lambda p: edit_csv(p, 1, "status", set_cell("error: singular"))),
    ("derivation route", "angular", 0, "coefficients.csv",
     lambda p: edit_csv(p, 2, "derivation_G3", lambda c: f"{float(c) + 1e-7:.16e}")),
    ("max_discrepancy column", "angular", 0, "coefficients.csv",
     lambda p: edit_csv(p, 0, "max_discrepancy", scale_cell(2.0))),
    ("identity H1 = E1 in both routes", "angular", 0, "coefficients.csv",
     lambda p: [edit_csv(p, 3, f"{form}_H1", lambda c: f"{float(c) + 1e-7:.16e}")
                for form in ("theorem", "derivation")]),
    ("positive block sign in both routes", "angular", 0, "coefficients.csv",
     lambda p: [edit_csv(p, 4, f"{form}_C4", scale_cell(-1.0))
                for form in ("theorem", "derivation")]),
    ("missing table row", "angular", 0, "coefficients.csv",
     lambda p: p.write_text("\n".join(p.read_text().splitlines()[:-1]) + "\n")),
    ("entropy rises once", "angular", 1, "relaxation.csv",
     lambda p: edit_csv(p, 20, "quadratic_entropy", scale_cell(1.5))),
    ("entropy rises just above the rounding floor", "angular", 1, "relaxation.csv",
     lambda p: edit_csv(p, -1, "quadratic_entropy",
                        lambda c: f"{checks.read_float_table(p)['quadratic_entropy'][-2] + 1e-12:.16e}")),
    ("positive dissipation", "angular", 2, "relaxation.csv",
     lambda p: edit_csv(p, 30, "dissipation", scale_cell(-1.0))),
    ("sample times", "angular", 3, "relaxation.csv", swap_rows(4, 5)),
]


def report(label: str, fails: list[str]) -> bool:
    print(f"  {'caught' if fails else 'MISSED'}  {label}: {'; '.join(fails)}")
    return bool(fails)


def main_selftest() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    ok = True
    genuine = {}
    for name, make in workloads.WORKLOADS.items():
        wl = make(SEED)
        for j, op in enumerate(wl.ops):
            odir = WORK / name / f"op{j}"
            odir.mkdir(parents=True)
            cfg = odir.parent / f"op{j}.cfg"
            cfg.write_text(op.config)
            if main([*op.argv, "--config", str(cfg), "--out", str(odir)]) != 0:
                print(f"{name} {op.name}: the program failed")
                return 1
            fails = checks.guarded(op.check, odir)
            print(f"{name} {op.name}: genuine output {'passes' if not fails else fails}")
            ok &= not fails
            genuine[(name, j)] = (op, odir)
        fails = wl.run_check(WORK / name)
        print(f"{name}: per-run check {'passes' if not fails else fails}")
        ok &= not fails

    print("corrupted copies:")
    for label, name, j, filename, corrupt in CORRUPTIONS:
        op, odir = genuine[(name, j)]
        copy = odir.with_name(odir.name + "-corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(odir, copy)
        corrupt(copy / filename)
        ok &= report(f"{name}/{filename}: {label}", checks.guarded(op.check, copy))
        shutil.rmtree(copy)

    case = workloads.particle_step_case(SEED)
    i = case["sample"][17]
    for label, key, row, delta in (("orientation 1e-9", "new_orientations", i, 1e-9),
                                   ("position 1e-9", "new_positions", i, 1e-9),
                                   ("norm of an unsampled particle", "new_orientations", 0, 1e-8)):
        bad = dict(case, **{key: case[key].copy()})
        bad[key][row, 0] += delta
        ok &= report(f"cross-scale particle step: {label}", checks.check_particle_step(**bad))

    decay = WORK / "continuum" / "decay"
    for label, filename, corrupt in (
        ("snapshot row 1e-11", "snapshot_00001.bin",
         lambda p: edit_snapshot(p, lambda rho, u: rho.__setitem__(4, rho[4] + 1e-11))),
        ("C2 in the table", "coefficients.csv",
         lambda p: edit_csv(p, 0, "theorem_C2", scale_cell(1 + 1e-9))),
    ):
        copy = decay.with_name("decay-corrupt")
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(decay, copy)
        corrupt(copy / filename)
        amplitude = float(next(line for line in (decay / "macro.cfg").read_text().splitlines()
                               if line.startswith("amplitude")).split("=")[1])
        c = workloads.CONTINUUM
        ok &= report(f"continuum closed-form decay: {label}", checks.check_heun_decay(
            copy / "snapshot_00001.bin", copy / "coefficients.csv",
            c["kappa"], 0.01, amplitude, c["cfl_safety"]))
        shutil.rmtree(copy)

    op, odir = genuine[("continuum", 0)]
    copy = odir.with_name("repro")
    shutil.copytree(odir, copy)
    (copy / "run_meta.json").write_text("{}\n")
    same = checks.digests(copy) == checks.digests(odir)
    print(f"  {'ignored' if same else 'MISSED'}  reproducibility: run_meta.json differs")
    ok &= same
    flip_last_byte(copy / "snapshot_00002.csv.json")
    differ = checks.digests(copy) != checks.digests(odir)
    print(f"  {'caught' if differ else 'MISSED'}  reproducibility: one sidecar byte differs")
    ok &= differ
    shutil.rmtree(WORK)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main_selftest())
