"""The four workloads: CLI invocations made from a seed, and their checks.

A workload is a round of CLI operations.  Each operation is one call into
`nematic_hydro.cli_io.cli.main` with a config file written from the seed;
its checks read only the files that call wrote.  A per-run check, made once
after the timed rounds, covers what the outputs cannot show (one particle
step recomputed, the closed-form decay of a continuum mode); when it fails,
every operation of the run counts as failed.

Inputs depend on the seed only through `random.Random(seed)`,
`numpy.random.default_rng(seed)` (the state of the particle-step check) and
the program's own `seed` key, so the same seed gives the same inputs
everywhere.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

CROSS = dict(N=50_000, box=math.sqrt(50.0), R=0.1, dt=0.02, eps=0.1, T=0.001, grid_n=32)
EQUILIBRIUM = dict(N=10_000, T=1.0, dt=1e-3, nu=4.0, D=1.0)
CONTINUUM = dict(kappa=4.0, grid_n=128, T=0.0015, snapshots=4, cfl_safety=0.2)
ANGULAR = dict(n_profile=8192, ds=(2, 3, 4), n_kinetic=400, T_kinetic=10.0, d_kinetic=3)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv without --config/--out, and its config text."""

    name: str
    argv: tuple[str, ...]
    config: str
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: list[Op]
    run_check: Callable[[Path], list[str]] = field(default=lambda workdir: [])


def _config(section: str, **params) -> str:
    lines = [f"[{section}]"] + [
        f"{k} = {', '.join(map(str, v)) if isinstance(v, tuple) else v}"
        for k, v in params.items()
    ]
    return "\n".join(lines) + "\n"


def cross_scale(seed: int) -> Workload:
    """Particles (indicator kernel, N/L^2 = 1000, R = 0.1) against the continuum."""
    c = CROSS
    cfg = _config(
        "validate", seed=seed, nu=4.0, D=1.0, grid_n=c["grid_n"], cross_N=c["N"],
        cross_box=repr(c["box"]), cross_R=c["R"], cross_dt=c["dt"],
        cross_eps=c["eps"], cross_T=c["T"],
    )
    op = Op("validate-cross", ("validate", "--suite", "cross"), cfg,
            lambda d: checks.check_cross(d, c["N"], c["grid_n"]))
    return Workload("cross-scale", [op], lambda workdir: _particle_step_check(seed))


def particle_step_case(seed: int) -> dict:
    """A partly aligned state at the workload's size, one ibm.step of it, and
    the sample of particles the reference recomputes."""
    import numpy as np
    from nematic_hydro.ibm import IbmConfig, ParticleState, step

    c = CROSS
    gen = np.random.default_rng(seed)
    positions = gen.random((c["N"], 2)) * c["box"]
    theta = 0.5 * math.pi + 0.6 * gen.standard_normal(c["N"])
    orientations = np.column_stack([np.cos(theta), np.sin(theta)])
    t = int(gen.integers(0, 1000))
    sample = np.sort(gen.choice(c["N"], 256, replace=False))
    cfg = IbmConfig(N=c["N"], d=2, nu=4.0, D=1.0, R=c["R"], kernel="indicator",
                    box_length=c["box"], dt=c["dt"], seed=seed)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
    out = step(ParticleState(positions, orientations, 0.0), cfg, rng)
    return dict(positions=positions, orientations=orientations, new_positions=out.positions,
                new_orientations=out.orientations, sample=sample, nu=4.0, D=1.0, R=c["R"],
                L=c["box"], dt=c["dt"], seed=seed, t=t)


def _particle_step_check(seed: int) -> list[str]:
    """One ibm.step at the workload's size, recomputed for 256 sampled particles."""
    return checks.check_particle_step(**particle_step_case(seed))


def equilibrium(seed: int) -> Workload:
    """Global-kernel relaxation of N = 10^4 particles to the aligned equilibrium."""
    e = EQUILIBRIUM
    cfg = _config("validate", seed=seed, N=e["N"], T=e["T"], dt=e["dt"], nu=e["nu"], D=e["D"])
    op = Op("validate-equilibrium", ("validate", "--suite", "equilibrium"), cfg,
            lambda d: checks.check_equilibrium(d, e["N"], e["nu"] / e["D"]))
    return Workload("equilibrium", [op])


def continuum(seed: int) -> Workload:
    """The README's macro config (kappa 4, d 2, 128^2) on a shorter horizon."""
    c = CONTINUUM
    rnd = random.Random(seed)
    amplitude = round(rnd.uniform(0.3, 0.6), 6)
    wave = round(rnd.uniform(0.2, 0.4), 6)
    cfg = _config(
        "macro", seed=seed, kappa=c["kappa"], d=2, grid_n=c["grid_n"], T=c["T"],
        snapshots=c["snapshots"], cfl_safety=c["cfl_safety"],
        amplitude=amplitude, wave=wave,
    )
    op = Op("macro", ("macro",), cfg, lambda d: checks.check_snapshots(d, c["grid_n"]))
    return Workload("continuum", [op], lambda workdir: _heun_decay_check(workdir, seed, amplitude))


def _heun_decay_check(workdir: Path, seed: int, amplitude: float) -> list[str]:
    """Untimed: a 32^2 macro run with wave = 0 against the closed form."""
    from nematic_hydro.cli_io.cli import main

    kappa, T, safety = CONTINUUM["kappa"], 0.01, CONTINUUM["cfl_safety"]
    table = workdir / "decay" / "coeffs.cfg"
    table.parent.mkdir(parents=True, exist_ok=True)
    table.write_text(_config("coeffs", kappas=(kappa,), ds=(2,), n=1024))
    macro = workdir / "decay" / "macro.cfg"
    macro.write_text(_config("macro", seed=seed, kappa=kappa, d=2, grid_n=32, T=T,
                             snapshots=1, cfl_safety=safety, amplitude=amplitude, wave=0.0))
    out = workdir / "decay"
    if main(["coeffs", "--config", str(table), "--out", str(out)]) != 0:
        return ["coeffs for the decay check failed"]
    if main(["macro", "--config", str(macro), "--out", str(out),
              "--coeffs", str(out / "coefficients.csv")]) != 0:
        return ["macro with wave = 0 failed"]
    return checks.check_heun_decay(out / "snapshot_00001.bin", out / "coefficients.csv",
                                   kappa, T, amplitude, safety)


def angular(seed: int) -> Workload:
    """Coefficient table and kinetic relaxation series at the same kappa values."""
    a = ANGULAR
    rnd = random.Random(seed)
    kappas = tuple(sorted(round(rnd.uniform(1.0, 8.0), 3) for _ in range(4)))
    ops = [Op("coeffs", ("coeffs",),
              _config("coeffs", seed=seed, kappas=kappas, ds=a["ds"], n=a["n_profile"]),
              lambda d: checks.check_coefficients(d, kappas, a["ds"]))]
    for kappa in kappas:
        cfg = _config(
            "kinetic", seed=seed, kappa=kappa, D=1.0, n=a["n_kinetic"], dt=1e-3,
            T=a["T_kinetic"], d=a["d_kinetic"],
            center=round(rnd.uniform(0.2, 0.6), 6), width=round(rnd.uniform(0.1, 0.3), 6),
        )
        ops.append(Op(f"kinetic-{kappa}", ("kinetic",), cfg,
                      lambda d: checks.check_relaxation(d, a["T_kinetic"],
                                                       a["n_kinetic"])))
    return Workload("angular", ops)


WORKLOADS = {
    "cross-scale": cross_scale,
    "equilibrium": equilibrium,
    "continuum": continuum,
    "angular": angular,
}
