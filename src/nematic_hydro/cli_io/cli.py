"""Command line entry point: five batch subcommands over one config format.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 degenerate-eigenvalue abort.  All data outputs are deterministic for a
fixed config and seed; the only timestamped file is run_meta.json.
"""
from __future__ import annotations

import argparse
import datetime
import math
import sys
from pathlib import Path

import numpy as np

from ..constants import step_count, stream
from ..gci.coefficients import compute_coefficients
from ..gci.corrector import CorrectorInputs, corrector_channel_residuals
from ..gci.radial import solve_bundle
from ..ibm import IbmConfig, coarse_grain, run as ibm_run
from ..kinetic import bump_density, relaxation_series
from ..macro import CflViolation, MacroConfig, MacroField
from ..macro import step as macro_step
from ..qtensor import DegenerateLeadingEigenvalue
from ..validation import (
    AlignedPerturbation,
    aligned_marginal_cdf,
    eps_expansion_study,
    gci_orthogonality_report,
    ibm_equilibrium_statistics,
    particle_vs_macro,
)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .output import (
    config_hash,
    emit_coefficient_table,
    load_coefficient_row,
    write_csv,
    write_field_snapshot,
    write_json,
    write_observation_binary,
    write_sidecar,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nematic-hydro",
        description="Multiscale toolkit for nematically aligning self-propelled particles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNS:
        p = sub.add_parser(name)
        if name == "validate":
            p.add_argument("--config", type=Path, default=None)
            p.add_argument("--suite", choices=tuple(_SUITES), required=True)
        else:
            p.add_argument("--config", type=Path, required=True)
        p.add_argument("--out", type=Path, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "macro":
            p.add_argument("--coeffs", type=Path, default=None)
    return parser


def _load_config(args: argparse.Namespace) -> tuple[RunConfig, str]:
    if args.config is None:
        text = f"[{args.subcommand}]\n"
    else:
        text = Path(args.config).read_text(encoding="utf-8")
    cfg = parse_config(text)
    if cfg.subcommand != args.subcommand:
        raise ConfigError(
            "section", 0,
            f"config section [{cfg.subcommand}] does not match subcommand {args.subcommand!r}",
        )
    cfg = cfg.with_overrides(seed=args.seed, out=args.out)
    # the output location is normalized out of the canonical text so that the
    # same physics and seed hash identically wherever the data is written
    return cfg, serialize_config(cfg.with_overrides(out="."))


def _write_meta(out: Path, cfg_text: str, chash: str, started: str) -> None:
    """The one timestamped file, kept apart from the deterministic data."""
    write_json(out / "run_meta.json", {
        "started_utc": started,
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "canonical_config": cfg_text,
        "config_sha256": chash,
    })


# Every run takes (params, config hash, output directory, parsed arguments).
def _run_coeffs(p: dict, chash: str, out: Path, args: argparse.Namespace) -> None:
    emit_coefficient_table(p["kappas"], p["ds"], out / "coefficients.csv", chash, n=p["n"])


def _run_ibm(p: dict, chash: str, out: Path, args: argparse.Namespace) -> None:
    if p["coarse_grid"] > 0 and not p["coarse_bandwidth"] * p["coarse_bandwidth"] < math.inf:
        # coarse_grain squares the bandwidth; refused before the march, not after it
        raise ConfigError("bad-value", 0, "key 'coarse_bandwidth' has no finite square")
    ibm_cfg = IbmConfig(
        N=p["N"], d=p["d"], nu=p["nu"], D=p["D"], R=p["R"], kernel=p["kernel"],
        box_length=p["box_length"], dt=p["dt"], seed=p["seed"],
    )
    observations, final = ibm_run(ibm_cfg, p["T"], observe_every=p["observe_every"])
    d = p["d"]
    header = ["time", "order_parameter"] + [
        f"q{i}{j}" for i in range(d) for j in range(d)
    ]
    rows = np.array(
        [[ob.time, ob.order_parameter, *ob.qtensor.ravel()] for ob in observations]
    )
    write_csv(out / "observations.csv", header, rows)
    write_sidecar(out / "observations.csv", chash, {"columns": header})
    write_observation_binary(out / "observations.bin", p["N"], d, p["dt"], rows)
    write_sidecar(out / "observations.bin", chash, {"columns": header})
    if p["coarse_grid"] > 0:
        rho_hat, u_hat = coarse_grain(
            final, p["coarse_grid"], p["coarse_bandwidth"], p["box_length"]
        )
        np.save(out / "coarse_rho.npy", rho_hat)
        np.save(out / "coarse_u.npy", u_hat)
        write_sidecar(out / "coarse_rho.npy", chash)
        write_sidecar(out / "coarse_u.npy", chash)


def _run_kinetic(p: dict, chash: str, out: Path, args: argparse.Namespace) -> None:
    f0 = bump_density(p["n"], p["d"], center=p["center"], width=p["width"])
    rows = relaxation_series(
        f0, p["kappa"], p["D"], p["dt"], p["T"],
        n_samples=p["n_samples"], u_policy=p["u_policy"],
    )
    header = ["time", "l1_distance", "dissipation", "quadratic_entropy"]
    write_csv(out / "relaxation.csv", header, rows)
    write_sidecar(out / "relaxation.csv", chash, {"columns": header})


def _initial_macro_field(p: dict) -> MacroField:
    n, d = p["grid_n"], p["d"]
    dx = p["box"] / n
    x1 = (np.arange(n) + 0.5) * dx
    phase = 2.0 * math.pi * x1 / p["box"]
    rho_line = 1.0 + p["amplitude"] * np.sin(phase)
    alpha_line = p["wave"] * np.sin(phase)
    shape = (n,) * d
    rho = np.broadcast_to(rho_line.reshape((n,) + (1,) * (d - 1)), shape).copy()
    u = np.zeros(shape + (d,))
    cos_a = np.cos(alpha_line).reshape((n,) + (1,) * (d - 1))
    sin_a = np.sin(alpha_line).reshape((n,) + (1,) * (d - 1))
    # direction rotates in the (e1, e2) plane around e2 as x1 varies
    u[..., 0] = sin_a
    u[..., 1] = cos_a
    return MacroField(rho=rho, u=u, dx=dx)


def _run_macro(p: dict, chash: str, out: Path, args: argparse.Namespace) -> None:
    kappa, d = p["kappa"], p["d"]
    field = _initial_macro_field(p)
    field.validate()  # a non-positive initial density is a config error
    if args.coeffs is not None:
        coefficients = load_coefficient_row(args.coeffs, kappa, d)
    else:
        coefficients = compute_coefficients(solve_bundle(kappa, d, p["n_profile"]))
    macro_cfg = MacroConfig.at_cfl(coefficients, field.dx, p["cfl_safety"])
    n_steps = step_count(p["T"], macro_cfg.dt)
    snap_at = sorted(set(np.linspace(0, n_steps, p["snapshots"] + 1).round().astype(int)))
    mid = (slice(None),) + (p["grid_n"] // 2,) * (d - 1)
    x1 = (np.arange(p["grid_n"]) + 0.5) * field.dx

    def emit(index: int, fld: MacroField) -> None:
        stem = out / f"snapshot_{index:05d}"
        write_field_snapshot(stem.with_suffix(".bin"), fld)
        write_sidecar(
            stem.with_suffix(".bin"), chash,
            {"time": fld.time, "grid_n": p["grid_n"], "dx": fld.dx, "mass": fld.mass()},
        )
        rows = np.column_stack(
            [x1, fld.rho[mid]] + [fld.u[mid + (i,)] for i in range(d)]
        )
        header = ["x", "rho"] + [f"u{i+1}" for i in range(d)]
        write_csv(stem.with_suffix(".csv"), header, rows)
        write_sidecar(stem.with_suffix(".csv"), chash, {"columns": header})

    emit(0, field)
    done = 0
    for i_snap, target in enumerate(snap_at[1:], start=1):
        while done < target:
            field = macro_step(field, macro_cfg)
            done += 1
        emit(i_snap, field)


# (report, curve header, curve rows) of one validate suite
_SuiteResult = tuple[dict, list[str], "np.ndarray | list[list]"]


def _validate_scaling(p: dict) -> _SuiteResult:
    report = eps_expansion_study(p["kappa"], p["eps"])
    control = eps_expansion_study(p["kappa"], [e / 2 for e in p["eps"]], asymmetry=0.5)
    return {
        "slope": report.slope,
        "asymmetric_control_slope": control.slope,
        "eps": list(map(float, report.eps_values)),
        "errors": list(map(float, report.errors)),
    }, ["eps", "error"], np.column_stack([report.eps_values, report.errors])


def _validate_gci(p: dict) -> _SuiteResult:
    kappa, d = p["kappa"], p["d"]
    h_sol = solve_bundle(kappa, d, p["n"])["h"]
    gen = stream(p["seed"], 0)
    rows = []
    for trial in range(p["trials"]):
        axis = gen.standard_normal(d)
        axis /= np.linalg.norm(axis)
        vecs = gen.standard_normal((2, d))
        field = AlignedPerturbation(
            kappa=kappa, axis=axis, amplitudes=(0.4, -0.2), vectors=vecs, shift=0.3,
        )
        rep = gci_orthogonality_report(field, h_sol, p["D"])
        rows.append([trial, rep["orthogonality"], rep["mass"]])
    rows_arr = np.array(rows)
    return {
        "max_orthogonality": float(rows_arr[:, 1].max()),
        "max_mass": float(rows_arr[:, 2].max()),
        "trials": int(p["trials"]),
    }, ["trial", "orthogonality", "mass"], rows


def _validate_corrector(p: dict) -> _SuiteResult:
    kappa, d = p["kappa"], p["d"]
    u = np.zeros(d)
    u[-1] = 1.0
    grad_u = np.zeros((d, d))
    grad_u[: d - 1, : d - 1] = 0.2
    if d > 2:  # at d = 2 column 1 is the u column, which (grad u) u = 0 keeps zero
        grad_u[0, 1] = -0.1
    grad_u[d - 1, 0] = 0.15  # nonzero (u.grad)u keeps the curvature channel active
    grad_rho = 0.3 * np.ones(d)
    resolutions = (p["n"] // 4, p["n"] // 2, p["n"])
    # the solver checks d before the inputs, which d = 1 cannot make tangent
    bundles = [solve_bundle(kappa, d, n) for n in resolutions]
    inputs = CorrectorInputs(rho=1.1, grad_rho=grad_rho, u=u, grad_u=grad_u)
    rows = []
    for n, bundle in zip(resolutions, bundles):
        channels = corrector_channel_residuals(inputs, bundle)
        rows.append([n, max(channels.values()), *channels.values()])
    names = list(channels)
    return {
        "residual": rows[-1][1],
        "channels": dict(zip(names, rows[-1][2:])),
        "resolutions": list(resolutions),
    }, ["n", "residual", *names], rows


def _validate_equilibrium(p: dict) -> _SuiteResult:
    ibm_cfg = IbmConfig(  # the global kernel reads no radius
        N=p["N"], d=2, nu=p["nu"], D=p["D"], R=math.inf,
        kernel="global", dt=p["dt"], seed=p["seed"],
    )
    stats = ibm_equilibrium_statistics(ibm_cfg, p["T"])
    kappa = p["nu"] / p["D"]
    r = np.linspace(-1.0, 1.0, 201)
    cdf = aligned_marginal_cdf(kappa, 2)(r)
    return {
        "ks_statistic": stats.ks_statistic,
        "ks_critical": stats.ks_critical,
        "n_samples": stats.n_samples,
        "sample_sufficient": stats.sample_sufficient,
        "order_parameter": stats.order_parameter,
    }, ["r", "analytic_cdf"], np.column_stack([r, cdf])


def _validate_cross(p: dict) -> _SuiteResult:
    ibm_cfg = IbmConfig(
        N=p["cross_N"], d=2, nu=p["nu"], D=p["D"], R=p["cross_R"],
        kernel="indicator", box_length=p["cross_box"], dt=p["cross_dt"],
        seed=p["seed"],
    )
    report = particle_vs_macro(ibm_cfg, p["cross_eps"], p["cross_T"], grid_n=p["grid_n"])
    curve = np.column_stack([report.times, report.density_distances, report.direction_distances])
    return {
        "eps": report.eps,
        "final_density_distance": report.final_density_distance,
        "qualitative": True,
        "note": "single-realization comparison; sampling noise, coarse "
                "graining, and finite scale separation all enter the distance",
    }, ["time", "density_distance", "direction_distance"], curve


_SUITES = {
    "scaling": _validate_scaling,
    "gci": _validate_gci,
    "corrector": _validate_corrector,
    "equilibrium": _validate_equilibrium,
    "cross": _validate_cross,
}


def _run_validate(p: dict, chash: str, out: Path, args: argparse.Namespace) -> None:
    """<suite>_report.json and <suite>_curve.csv, each with its sidecar."""
    suite = args.suite
    report, header, rows = _SUITES[suite](p)
    write_json(out / f"{suite}_report.json", {"suite": suite, **report})
    write_csv(out / f"{suite}_curve.csv", header, rows)
    write_sidecar(out / f"{suite}_curve.csv", chash)
    write_sidecar(out / f"{suite}_report.json", chash)


_RUNS = {
    "coeffs": _run_coeffs,
    "ibm": _run_ibm,
    "kinetic": _run_kinetic,
    "macro": _run_macro,
    "validate": _run_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    try:
        cfg, cfg_text = _load_config(args)
        chash = config_hash(cfg_text)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _RUNS[args.subcommand](cfg.params, chash, out, args)
        _write_meta(out, cfg_text, chash, started)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DegenerateLeadingEigenvalue as exc:
        print(f"degenerate eigenvalue: {exc}", file=sys.stderr)
        return 4
    except (CflViolation, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        # invalid parameter combinations and unreadable inputs are
        # configuration problems, not numerics
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
