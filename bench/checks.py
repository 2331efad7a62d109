"""Output checks made apart from the program.

Every reader here parses the documented file formats itself (CSV with
`{:.16e}` cells, the `NEMF` snapshot layout) and every reference value is
recomputed from the paper's formulas, so a check never trusts the code it
checks.  Each check returns a list of failure messages; an empty list is a
pass.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

# --------------------------------------------------------------------------
# readers


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def read_float_table(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_csv(path)
    cols = np.array([[float(c) for c in row] for row in rows]).reshape(len(rows), len(header))
    return {name: cols[:, i] for i, name in enumerate(header)}


def read_snapshot(path: Path) -> tuple[dict, np.ndarray, np.ndarray]:
    """`NEMF` snapshot: magic, u32 version, u32 d, u32 n, f64 dx, f64 time, rho, u."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"NEMF":
        raise ValueError(f"bad magic {raw[:4]!r}")
    version, d, n = struct.unpack_from("<III", raw, 4)
    dx, time = struct.unpack_from("<dd", raw, 16)
    nodes = n**d
    expected = 32 + 8 * nodes * (1 + d)
    if len(raw) != expected:
        raise ValueError(f"{len(raw)} bytes, expected {expected}")
    rho = np.frombuffer(raw, "<f8", nodes, 32).reshape((n,) * d)
    u = np.frombuffer(raw, "<f8", nodes * d, 32 + 8 * nodes).reshape((n,) * d + (d,))
    head = {"version": version, "d": d, "n": n, "dx": dx, "time": time}
    return head, rho, u


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every data file under directory; run_meta.json is the one
    file the program documents as nondeterministic."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "run_meta.json"
    }


def guarded(check, *args) -> list[str]:
    """Run a check; a missing or unreadable file is a failure, not a crash."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError, StopIteration,
            struct.error) as exc:
        return [f"{check.__name__}: unreadable output ({type(exc).__name__}: {exc})"]


# --------------------------------------------------------------------------
# cross-scale: one local-kernel particle step, recomputed


def _leading_2x2(q: np.ndarray) -> tuple[np.ndarray, float]:
    """Leading unit eigenvector and spectral gap of a symmetric 2x2 matrix."""
    a, b, c = q[0, 0], q[0, 1], q[1, 1]
    phi = 0.5 * math.atan2(2.0 * b, a - c)
    return np.array([math.cos(phi), math.sin(phi)]), math.hypot(a - c, 2.0 * b)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _tangent(omega: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - (omega @ v) * omega


def _drift(omega: np.ndarray, obar: np.ndarray, nu: float) -> np.ndarray:
    c = omega @ obar
    return nu * c * (obar - c * omega)


def particle_step_reference(
    positions: np.ndarray,
    orientations: np.ndarray,
    sample: np.ndarray,
    *,
    nu: float, D: float, R: float, L: float, dt: float, seed: int, t: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """New positions, new orientations and Q gaps of the sampled particles.

    Follows the particle model as documented: brute-force minimum-image
    neighbours within R (self included), the leading axis of the local
    Q-tensor, a Stratonovich-Heun orientation update whose noise row i is
    row i of an (N, d) standard-normal table drawn from Philox keyed
    (seed, t), renormalization, and a unit-speed drift along the pre-step
    orientation with periodic wrap.
    """
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, t], dtype=np.uint64)))
    noise_table = gen.standard_normal(orientations.shape) * math.sqrt(2.0 * D * dt)
    new_pos, new_omega, gaps = [], [], []
    for i in sample:
        disp = positions - positions[i]
        disp -= L * np.round(disp / L)
        near = orientations[(disp * disp).sum(axis=1) <= R * R]
        q = near.T @ near / len(near) - np.eye(2) / 2.0
        obar, gap = _leading_2x2(q)
        omega, noise = orientations[i], noise_table[i]
        drift0 = _drift(omega, obar, nu)
        stage = _unit(omega + dt * drift0 + _tangent(omega, noise))
        drift1 = _drift(stage, obar, nu)
        combined = (
            omega + 0.5 * dt * (drift0 + drift1)
            + 0.5 * (_tangent(omega, noise) + _tangent(stage, noise))
        )
        new_omega.append(_unit(combined))
        new_pos.append((positions[i] + dt * omega) % L)
        gaps.append(gap)
    return np.array(new_pos), np.array(new_omega), np.array(gaps)


def check_particle_step(
    positions, orientations, new_positions, new_orientations, sample, **params
) -> list[str]:
    """The program's step against the reference on the sampled particles.

    Agreement is to rounding: the two sides sum the neighbour moments in a
    different order, so the eigenvector differs by about 1e-16 / gap.
    Particles whose Q gap is below 1e-6 are ill-conditioned and skipped.
    """
    ref_pos, ref_omega, gaps = particle_step_reference(positions, orientations, sample, **params)
    ok = gaps > 1e-6
    fails = []
    if ok.sum() < len(sample) // 2:
        fails.append(f"only {ok.sum()} of {len(sample)} sampled particles well conditioned")
    err_omega = float(np.abs(new_orientations[sample][ok] - ref_omega[ok]).max())
    err_pos = float(np.abs(new_positions[sample] - ref_pos).max())
    if not err_omega <= 1e-11:
        fails.append(f"orientation update differs from the reference by {err_omega:.3e}")
    if not err_pos <= 1e-12 * params["L"]:
        fails.append(f"position update differs from the reference by {err_pos:.3e}")
    norms = np.abs(np.linalg.norm(new_orientations, axis=1) - 1.0).max()
    if not norms <= 1e-10:
        fails.append(f"orientation norms deviate from 1 by {norms:.3e}")
    return fails


def check_cross(op_dir: Path, N: int, grid_n: int, bandwidth_cells: float = 1.5) -> list[str]:
    """Density distances finite and below five times the sampling noise.

    A kernel-smoothed cell density built from n particles per cell with a
    Gaussian of width s cells has relative standard error 1/sqrt(4 pi s^2 n).
    """
    fails = []
    curve = read_float_table(op_dir / "cross_curve.csv")
    report = json.loads((op_dir / "cross_report.json").read_text())
    dist = curve["density_distance"]
    per_cell = N / grid_n**2
    bound = 5.0 / math.sqrt(4.0 * math.pi * bandwidth_cells**2 * per_cell)
    if not (np.isfinite(dist).all() and np.isfinite(curve["direction_distance"]).all()):
        fails.append("density or direction distances are not finite")
    elif not dist.max() < bound:
        fails.append(f"density distance {dist.max():.4f} >= noise bound {bound:.4f}")
    if not np.all(np.diff(curve["time"]) > 0.0):
        fails.append("checkpoint times are not increasing")
    if report.get("final_density_distance") != float(dist[-1]):
        fails.append("report and curve disagree on the final density distance")
    return fails


# --------------------------------------------------------------------------
# equilibrium: KS statistic and order parameter against closed forms


def aligned_cdf_d2(kappa: float, r: np.ndarray) -> np.ndarray:
    """P(omega.u <= r) under M ~ exp(kappa cos^2(theta) / 2) on the circle."""
    from scipy.integrate import quad

    def mass(lo: float) -> float:
        return quad(lambda th: math.exp(0.5 * kappa * math.cos(th) ** 2), lo, math.pi,
                    epsabs=1e-13, epsrel=1e-13)[0]

    total = mass(0.0)
    return np.array([mass(math.acos(min(1.0, max(-1.0, x)))) / total for x in r])


def check_equilibrium(op_dir: Path, N: int, kappa: float) -> list[str]:
    """KS distance, order parameter and the analytic CDF curve (d = 2).

    The KS distance is held to the 1e-5-level critical value
    sqrt(ln(2e5)/2)/sqrt(N) = 2.47/sqrt(N).  A benchmark's runs draw about
    a hundred seeds, so the level has to be far below 1/100: at the 5% level
    (1.36/sqrt(N), the value the program reports) a correct run fails on one
    seed in twenty, and over 40 random seeds sqrt(N) KS read 0.50-1.52
    (mean 0.93, above the Kolmogorov mean 0.87, since T = 1 leaves the order
    parameter about 0.7 sigma short).  The order parameter, the leading
    eigenvalue of Q = <w w> - I/2, is (1/2)<cos 2 theta> = I1(k/4)/(2 I0(k/4))
    at equilibrium, with standard error sqrt(var(cos 2 theta) / N) / 2.
    """
    from scipy.special import iv

    fails = []
    rep = json.loads((op_dir / "equilibrium_report.json").read_text())
    if rep["n_samples"] != N or rep["sample_sufficient"] is not True:
        fails.append(f"report covers {rep['n_samples']} samples, expected {N}")
    if abs(rep["ks_critical"] - 1.36 / math.sqrt(N)) > 1e-15:
        fails.append(f"reported KS critical value {rep['ks_critical']} != 1.36/sqrt(N)")
    ks_bound = math.sqrt(0.5 * math.log(2e5)) / math.sqrt(N)
    if not rep["ks_statistic"] < ks_bound:
        fails.append(f"KS statistic {rep['ks_statistic']:.5f} >= {ks_bound:.5f}")
    i0, i1, i2 = (float(iv(k, kappa / 4.0)) for k in (0, 1, 2))
    lam = i1 / (2.0 * i0)
    sigma = 0.5 * math.sqrt(((1.0 + i2 / i0) / 2.0 - (i1 / i0) ** 2) / N)
    if not abs(rep["order_parameter"] - lam) < 5.0 * sigma:
        fails.append(
            f"order parameter {rep['order_parameter']:.5f} is not within 5 sigma "
            f"({5 * sigma:.5f}) of I1/(2 I0) = {lam:.5f}"
        )
    curve = read_float_table(op_dir / "equilibrium_curve.csv")
    err = float(np.abs(curve["analytic_cdf"] - aligned_cdf_d2(kappa, curve["r"])).max())
    if not err < 1e-6:
        fails.append(f"analytic CDF curve differs from quadrature by {err:.2e}")
    return fails


# --------------------------------------------------------------------------
# continuum: conservation, unit norm, x2 invariance, closed-form decay


def check_snapshots(op_dir: Path, grid_n: int) -> list[str]:
    """Every snapshot keeps the initial mass to 1e-12 relative and |u| = 1 to
    1e-12; fields that start invariant along x2 stay exactly invariant; the
    CSV profile equals the binary's centre row bit for bit."""
    fails = []
    paths = sorted(op_dir.glob("snapshot_*.bin"))
    if not paths:
        return ["no snapshots written"]
    mass0 = None
    for path in paths:
        head, rho, u = read_snapshot(path)
        name = path.name
        if (head["d"], head["n"]) != (2, grid_n):
            fails.append(f"{name}: header d={head['d']} n={head['n']}")
            continue
        mass = rho.sum() * head["dx"] ** 2
        mass0 = mass if mass0 is None else mass0
        if not abs(mass - mass0) <= 1e-12 * abs(mass0):
            fails.append(f"{name}: mass drift {abs(mass - mass0) / abs(mass0):.2e}")
        unit = float(np.abs(np.sqrt((u * u).sum(axis=-1)) - 1.0).max())
        if not unit <= 1e-12:
            fails.append(f"{name}: | |u| - 1 | = {unit:.2e}")
        if not (np.array_equal(rho, np.broadcast_to(rho[:, :1], rho.shape))
                and np.array_equal(u, np.broadcast_to(u[:, :1], u.shape))):
            fails.append(f"{name}: fields vary along x2")
        prof = read_float_table(path.with_suffix(".csv"))
        if not (np.array_equal(prof["rho"], rho[:, grid_n // 2])
                and np.array_equal(prof["u1"], u[:, grid_n // 2, 0])
                and np.array_equal(prof["u2"], u[:, grid_n // 2, 1])):
            fails.append(f"{name}: CSV profile differs from the binary field")
    return fails


def check_heun_decay(snapshot: Path, coeffs_csv: Path, kappa: float, T: float,
                     amplitude: float, cfl_safety: float) -> list[str]:
    """With u = e2 and rho = 1 + A sin(2 pi x1), the scheme is linear Heun on
    the wide centred Laplacian: rho_n = 1 + A g^n sin(2 pi x1) with
    g = 1 + z + z^2/2, z = -dt C2 (sin(2 pi dx)/dx)^2, C2 from the table."""
    header, rows = read_csv(coeffs_csv)
    row = next(r for r in rows if abs(float(r[header.index("kappa")]) - kappa) < 1e-12
               and int(r[header.index("d")]) == 2)
    coef = {name: float(row[header.index(f"theorem_{name}")])
            for name in ("C1", "C2", "C3", "C4", "E1", "F1", "F2", "F3")}
    head, rho, u = read_snapshot(snapshot)
    n, dx = head["n"], head["dx"]
    dt = cfl_safety * dx * dx / max(coef.values())
    steps = max(1, int(round(T / dt)))
    z = -dt * coef["C2"] * (math.sin(2.0 * math.pi * dx) / dx) ** 2
    x1 = (np.arange(n) + 0.5) * dx
    expect = 1.0 + amplitude * (1.0 + z + 0.5 * z * z) ** steps * np.sin(2.0 * math.pi * x1)
    fails = []
    err = float(np.abs(rho - expect[:, None]).max())
    if not err < 1e-12:
        fails.append(f"closed-form Heun decay missed by {err:.2e} after {steps} steps")
    if not np.array_equal(u, np.broadcast_to([0.0, 1.0], u.shape)):
        fails.append("direction left u = e2")
    return fails


# --------------------------------------------------------------------------
# angular: coefficient table and relaxation series

POSITIVE = ("C1", "C2", "C3", "C4", "E1", "F1", "F2", "F3")
COEFFS = POSITIVE + ("G1", "G2", "G3", "G4", "H1", "H2", "H3", "H4", "C0")


def identity_defects(c: dict[str, float]) -> dict[str, float]:
    """The six internal identities among the coefficients and aux averages."""
    return {
        "H1 = E1": c["H1"] - c["E1"],
        "F3 - 2 F2 = aux_k_over_cos": c["F3"] - 2.0 * c["F2"] - c["aux_k_over_cos"],
        "G2 - G3 = -2 aux_a_over_kappa": c["G2"] - c["G3"] + 2.0 * c["aux_a_over_kappa"],
        "G4 - G3 = F3 - 2 F2": c["G4"] - c["G3"] - c["F3"] + 2.0 * c["F2"],
        "H3 - H2 = F1 - F2": c["H3"] - c["H2"] - c["F1"] + c["F2"],
        "H4 - H3 = aux_ke_combination": c["H4"] - c["H3"] - c["aux_ke_combination"],
    }


def check_coefficients(op_dir: Path, kappas, ds) -> list[str]:
    header, rows = read_csv(op_dir / "coefficients.csv")
    col = {name: i for i, name in enumerate(header)}
    fails = []
    seen = [(float(r[col["kappa"]]), int(r[col["d"]])) for r in rows]
    if seen != [(float(k), int(d)) for k in kappas for d in ds]:
        fails.append(f"table rows {seen} do not match the requested grid")
    for r in rows:
        tag = f"(kappa={r[col['kappa']]}, d={r[col['d']]})"
        if r[col["status"]] != "ok":
            fails.append(f"{tag}: status {r[col['status']]!r}")
            continue
        routes = {
            form: {name[len(form) + 1:]: float(r[i]) for name, i in col.items()
                   if name.startswith(form + "_")}
            for form in ("theorem", "derivation")
        }
        gaps = [abs(routes["theorem"][n] - routes["derivation"][n]) for n in COEFFS]
        if not max(gaps) < 1e-8:
            fails.append(f"{tag}: routes differ by {max(gaps):.2e}")
        if float(r[col["max_discrepancy"]]) != max(gaps):
            fails.append(f"{tag}: max_discrepancy column is not the largest route gap")
        for form, values in routes.items():
            worst = max(abs(v) for v in identity_defects(values).values())
            if not worst < 1e-8:
                fails.append(f"{tag}: {form} identity defect {worst:.2e}")
            low = min(values[n] for n in POSITIVE)
            if not low > 0.0:
                fails.append(f"{tag}: {form} positive block has {low:.3e}")
    return fails


def check_relaxation(op_dir: Path, T: float, n_cells: int) -> list[str]:
    """Quadratic entropy never increases and the dissipation is never positive.

    The entropy is a sum of n_cells positive terms near 1 in total, so once
    a series has relaxed, consecutive samples differ by less than the
    rounding of that sum: a rise is a failure only above n_cells * eps * H.
    At kappa near 1 the series reaches that floor before T = 10 (a rise of
    2.0e-14 after drops of 6.9e-14 and 6.7e-15, with H = 0.99999897).
    """
    cols = read_float_table(op_dir / "relaxation.csv")
    fails = []
    if not np.all(np.diff(cols["time"]) > 0.0) or not math.isclose(cols["time"][-1], T):
        fails.append("sample times are not increasing up to T")
    entropy = cols["quadratic_entropy"]
    rise = float(np.diff(entropy).max())
    floor = n_cells * np.finfo(float).eps * float(np.abs(entropy).max(initial=0.0))
    if not rise <= floor:
        fails.append(f"quadratic entropy increases by {rise:.3e} (rounding floor {floor:.1e})")
    if not cols["dissipation"].max() <= 0.0:
        fails.append(f"dissipation {cols['dissipation'].max():.3e} > 0")
    if not np.isfinite(cols["l1_distance"]).all():
        fails.append("L1 distances are not finite")
    return fails
