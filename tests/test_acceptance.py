"""Acceptance suite: one test per numbered release criterion.

Each test measures everything first, then records a single summary line
(PASS, FAIL, or REPORT) through the criterion_report fixture; the lines
are printed in the terminal summary so a run always shows one verdict
per criterion.  Criterion 12 is reported without gating: the particle
against continuum comparison is a qualitative consistency check, not a
convergence statement with a guaranteed rate.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from nematic_hydro.gci import compute_coefficients, solve_bundle
from nematic_hydro.gci.coefficients import (
    compute_coefficients_derivation,
    max_discrepancy,
)
from nematic_hydro.gci.corrector import CorrectorInputs, corrector_channel_residuals
from nematic_hydro.gci.equilibrium import make_equilibrium
from nematic_hydro.gci.radial import strong_defect
from nematic_hydro.ibm import IbmConfig
from nematic_hydro.kinetic import bump_density, cell_measures, evolve, relaxation_series
from nematic_hydro.macro import (
    MacroConfig,
    MacroField,
    step,
)
from nematic_hydro.macro import _heun
from nematic_hydro.validation import (
    AlignedPerturbation,
    eps_expansion_study,
    gci_orthogonality_report,
    ibm_equilibrium_statistics,
    particle_vs_macro,
)

from _oracles import (
    appendix_identity_residual,
    auxiliary_operator_checks,
    identity_defects,
    rotate_quarter_turn,
)

GRID = [(kappa, d) for kappa in (0.5, 2.0, 8.0) for d in (2, 3, 4)]
KINDS = ("h", "a", "b", "c", "e", "k")


class _Log:
    def __init__(self) -> None:
        self.checks: list[tuple[bool, str]] = []
        self.headline = ""

    def check(self, flag: bool, message: str) -> None:
        self.checks.append((bool(flag), message))


@contextmanager
def criterion(record, number: int, gate: bool = True):
    """Collect checks, record exactly one summary line, then assert."""
    log = _Log()
    try:
        yield log
    except BaseException as exc:
        record(number, "FAIL", f"raised {exc!r}")
        raise
    ok = all(flag for flag, _ in log.checks)
    failures = "; ".join(msg for flag, msg in log.checks if not flag)
    if not gate:
        record(number, "REPORT", log.headline)
    else:
        record(number, "PASS" if ok else "FAIL", log.headline if ok else failures)
    assert ok, failures


@pytest.fixture(scope="module")
def grid_bundles():
    t0 = time.perf_counter()
    bundles = {(kappa, d): solve_bundle(kappa, d, 1024) for kappa, d in GRID}
    return bundles, time.perf_counter() - t0


@pytest.fixture(scope="module")
def grid_coefficients(grid_bundles):
    bundles, solve_elapsed = grid_bundles
    t0 = time.perf_counter()
    coeffs = {
        (kappa, d): compute_coefficients(bundle)
        for (kappa, d), bundle in bundles.items()
    }
    return coeffs, solve_elapsed + (time.perf_counter() - t0)


def test_01_radial_profiles_solve_accurately_and_fast(grid_bundles, criterion_report):
    bundles, solve_elapsed = grid_bundles
    with criterion(criterion_report, 1) as log:
        t0 = time.perf_counter()
        worst = 0.0
        for bundle in bundles.values():
            for kind in KINDS:
                r = float(np.max(np.abs(strong_defect(bundle[kind])[1])))
                worst = max(worst, r)
        log.check(worst < 1e-6, f"worst strong residual {worst:.2e} >= 1e-6")

        reference = solve_bundle(2.0, 3, 4096)
        levels = {n: solve_bundle(2.0, 3, n) for n in (128, 256)}
        orders = {}
        for kind in KINDS:
            lo = -0.9 if kind in ("a", "b") else 0.05
            probes = np.linspace(lo, 0.9, 9)
            errs = [
                float(np.max(np.abs(levels[n][kind](probes) - reference[kind](probes))))
                for n in (128, 256)
            ]
            orders[kind] = float(np.log2(errs[0] / errs[1]))
        min_order = min(orders.values())
        log.check(min_order >= 1.8, f"convergence order {min_order:.2f} < 1.8")

        elapsed = solve_elapsed + (time.perf_counter() - t0)
        log.check(elapsed < 5.0, f"runtime {elapsed:.2f}s >= 5s")
        log.headline = (
            f"worst residual {worst:.1e} on 54 profiles, "
            f"min solution order {min_order:.2f}, {elapsed:.2f}s"
        )


def test_02_coefficient_identities_and_route_agreement(
    grid_bundles, grid_coefficients, criterion_report
):
    bundles, _ = grid_bundles
    coeffs, build_elapsed = grid_coefficients
    with criterion(criterion_report, 2) as log:
        t0 = time.perf_counter()
        worst_identity = max(
            max(identity_defects(cs).values()) for cs in coeffs.values()
        )
        worst_gap = max(
            max_discrepancy(
                coeffs[key], compute_coefficients_derivation(bundles[key])
            )
            for key in coeffs
        )
        elapsed = build_elapsed + (time.perf_counter() - t0)
        log.check(worst_identity < 1e-8, f"identity defect {worst_identity:.2e} >= 1e-8")
        log.check(worst_gap < 1e-8, f"route disagreement {worst_gap:.2e} >= 1e-8")
        log.check(elapsed < 10.0, f"runtime {elapsed:.2f}s >= 10s")
        log.headline = (
            f"identities {worst_identity:.1e}, two routes {worst_gap:.1e}, {elapsed:.2f}s"
        )


def test_03_coefficient_and_profile_signs(grid_bundles, grid_coefficients, criterion_report):
    bundles, _ = grid_bundles
    coeffs, _ = grid_coefficients
    with criterion(criterion_report, 3) as log:
        least = min(min(cs.positive_block().values()) for cs in coeffs.values())
        log.check(least > 0.0, f"positive block reaches {least:.2e} <= 0")

        worst_profile = -np.inf
        for bundle in bundles.values():
            for kind in KINDS:
                lo = -1.0 if kind in ("a", "b") else 0.0
                rr = np.linspace(lo, 1.0, 2001)
                worst_profile = max(worst_profile, float(bundle[kind](rr).max()))
        log.check(worst_profile <= 1e-10, f"profile max {worst_profile:.2e} > 1e-10")
        log.headline = (
            f"min positive coefficient {least:.2e}, profile max {worst_profile:.1e}"
        )


def test_04_collision_output_orthogonal_to_invariants(criterion_report):
    with criterion(criterion_report, 4) as log:
        t0 = time.perf_counter()
        h_sol = solve_bundle(4.0, 3, 1024)["h"]
        gen = np.random.default_rng(4)
        worst_orth = worst_mass = 0.0
        for _ in range(5):
            axis = gen.normal(size=3)
            axis /= np.linalg.norm(axis)
            vectors = gen.normal(size=(2, 3))
            amplitudes = tuple(gen.uniform(-0.4, 0.4, size=2))
            field = AlignedPerturbation(
                4.0, axis, amplitudes, vectors=vectors,
                shift=float(gen.uniform(0.0, 0.3)),
            )
            report = gci_orthogonality_report(field, h_sol, 1.0)
            worst_orth = max(worst_orth, report["orthogonality"])
            worst_mass = max(worst_mass, report["mass"])
        elapsed = time.perf_counter() - t0
        log.check(worst_orth < 1e-6, f"orthogonality {worst_orth:.2e} >= 1e-6")
        log.check(worst_mass < 1e-10, f"mass integral {worst_mass:.2e} >= 1e-10")
        log.check(elapsed < 30.0, f"runtime {elapsed:.2f}s >= 30s")
        log.headline = (
            f"5 fields: orthogonality {worst_orth:.1e}, mass {worst_mass:.1e}, "
            f"{elapsed:.2f}s"
        )


def test_05_correction_residual_small_and_refining(criterion_report):
    u = np.array([0.0, 0.0, 1.0])
    grad_u = np.zeros((3, 3))
    grad_u[:2, :2] = 0.2
    grad_u[0, 1] = -0.1
    grad_u[2, 0] = 0.15
    inputs = CorrectorInputs(
        rho=1.1, grad_rho=0.3 * np.ones(3), u=u, grad_u=grad_u
    )
    with criterion(criterion_report, 5) as log:
        residuals = {}
        for n in (64, 128, 256, 512, 1024):
            channels = corrector_channel_residuals(inputs, solve_bundle(4.0, 3, n))
            residuals[n] = channels
        worst_default = max(residuals[1024].values())
        log.check(worst_default < 1e-5, f"default residual {worst_default:.2e} >= 1e-5")

        # slopes away from the quadrature floor that the finest levels sit on
        sweep = [max(residuals[n].values()) for n in (64, 128, 256, 512)]
        slopes = [float(np.log2(a / b)) for a, b in zip(sweep, sweep[1:])]
        log.check(
            min(slopes) >= 1.8,
            f"refinement slope {min(slopes):.2f} < 1.8 over {sweep}",
        )
        log.headline = (
            f"worst channel {worst_default:.1e} at n=1024, slopes "
            + "/".join(f"{s:.1f}" for s in slopes)
        )


def test_06_kinetic_relaxation_entropy_and_mass(criterion_report):
    with criterion(criterion_report, 6) as log:
        t0 = time.perf_counter()
        f0 = bump_density(400, 3)
        rows = relaxation_series(f0, 4.0, 1.0, 1e-3, 20.0, n_samples=40)
        final_l1 = float(rows[-1, 1])
        entropy_step = float(np.diff(rows[:, 3]).max())

        measures = cell_measures(400, 3)
        f = f0
        per_step = 0.0
        for _ in range(400):
            g = evolve(f, 4.0, 1.0, 1e-3, 1e-3)
            per_step = max(per_step, abs(float((g.values - f.values) @ measures)))
            f = g
        f_end = evolve(f0, 4.0, 1.0, 1e-3, 20.0)
        total_drift = abs(float((f_end.values - f0.values) @ measures))
        elapsed = time.perf_counter() - t0

        log.check(final_l1 < 1e-3, f"final L1 distance {final_l1:.2e} >= 1e-3")
        log.check(entropy_step <= 0.0, f"entropy increment {entropy_step:.2e} > 0")
        log.check(per_step < 1e-12, f"per-step mass drift {per_step:.2e} >= 1e-12")
        log.check(
            total_drift < 1e-12 * 20000,
            f"total mass drift {total_drift:.2e} over 20000 steps",
        )
        log.check(elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
        log.headline = (
            f"L1 {final_l1:.1e} at T=20, entropy increments <= {entropy_step:.1e}, "
            f"mass drift {per_step:.1e}/step, {elapsed:.1f}s"
        )


def test_07_direction_diffusion_eigenvalue_signs(criterion_report):
    with criterion(criterion_report, 7) as log:
        min_par = np.inf
        worst_pair = 0.0
        for kappa in (0.1, 1.0, 10.0):
            for d in (2, 3, 4):
                eq = make_equilibrium(kappa, d)
                lam_par = eq.average(eq.nodes**2) - 1.0 / d
                lam_perp = -lam_par / (d - 1)
                min_par = min(min_par, lam_par)
                worst_pair = max(worst_pair, abs(lam_perp + lam_par / (d - 1)))
        log.check(min_par > 0.0, f"parallel eigenvalue reaches {min_par:.2e} <= 0")
        log.check(worst_pair < 1e-12, f"trace relation defect {worst_pair:.2e} >= 1e-12")
        log.headline = (
            f"min parallel eigenvalue {min_par:.2e}, trace defect {worst_pair:.1e}"
        )


def test_08_kernel_localization_quadratic_scaling(criterion_report):
    with criterion(criterion_report, 8) as log:
        t0 = time.perf_counter()
        study = eps_expansion_study(4.0, [0.2, 0.1, 0.05, 0.025])
        elapsed = time.perf_counter() - t0
        log.check(1.8 <= study.slope <= 2.2, f"fitted slope {study.slope:.3f} outside [1.8, 2.2]")
        log.check(
            bool(np.all(np.diff(study.errors) < 0.0)),
            f"errors not strictly decreasing: {study.errors}",
        )
        log.check(elapsed < 60.0, f"runtime {elapsed:.2f}s >= 60s")
        log.headline = f"fitted slope {study.slope:.3f}, {elapsed:.2f}s"


def test_09_continuum_step_conservation_and_symmetries(coeffs_k4d2, criterion_report):
    n = 128
    xs = np.arange(n) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    phi = 0.7 * np.sin(2 * np.pi * X) + 0.3 * np.cos(2 * np.pi * Y)
    u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    fields = MacroField(rho=rho, u=u, dx=1.0 / n)
    config = MacroConfig(coefficients=coeffs_k4d2, dt=5e-6)

    with criterion(criterion_report, 9) as log:
        t0 = time.perf_counter()
        forward = step(fields, config)
        flipped = step(MacroField(rho=fields.rho, u=-fields.u, dx=fields.dx), config)
        nematic = max(
            float(np.abs(flipped.u + forward.u).max()),
            float(np.abs(flipped.rho - forward.rho).max()),
        )
        log.check(nematic <= 1e-14, f"nematic symmetry defect {nematic:.2e} > 1e-14")

        turned = step(rotate_quarter_turn(fields), config)
        rotated = rotate_quarter_turn(forward)
        equivariance = max(
            float(np.abs(turned.u - rotated.u).max()),
            float(np.abs(turned.rho - rotated.rho).max()),
        )
        log.check(equivariance <= 1e-12, f"rotation defect {equivariance:.2e} > 1e-12")

        coarse = MacroField(rho=rho[::2, ::2], u=u[::2, ::2], dx=2.0 / n)
        drifts = [
            _heun(coarse, MacroConfig(coefficients=coeffs_k4d2, dt=dt))[1]
            for dt in (2e-5, 1e-5, 5e-6)
        ]
        slopes = [float(np.log2(a / b)) for a, b in zip(drifts, drifts[1:])]
        log.check(
            all(1.7 < s < 2.3 for s in slopes),
            f"pre-projection drift slopes {slopes} outside 2 +- 0.3",
        )

        mass0 = float(fields.rho.sum())
        state = fields
        worst_mass = 0.0
        worst_unit = 0.0
        for i in range(10_000):
            state = step(state, config)
            if i % 500 == 499:
                worst_mass = max(worst_mass, abs(float(state.rho.sum()) - mass0))
                worst_unit = max(
                    worst_unit,
                    float(np.abs(np.linalg.norm(state.u, axis=-1) - 1.0).max()),
                )
        rel_drift = worst_mass / mass0
        log.check(rel_drift < 1e-12, f"relative mass drift {rel_drift:.2e} >= 1e-12")
        # the renormalization is exact as a map; re-measuring the norm costs
        # one rounding unit, so "unit modulus" means within 2 ulp of 1
        log.check(worst_unit <= 4.5e-16, f"post-projection |u| off by {worst_unit:.2e}")
        elapsed = time.perf_counter() - t0
        log.check(elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s")
        log.headline = (
            f"10^4 steps on 128^2: mass drift {rel_drift:.1e}, |u|-1 {worst_unit:.1e}, "
            f"nematic {nematic:.1e}, rotation {equivariance:.1e}, "
            f"drift slopes {slopes[0]:.2f}/{slopes[1]:.2f}, {elapsed:.1f}s"
        )


def test_10_differential_identity_residuals_second_order(criterion_report):
    def unit_field_2d(n: int) -> np.ndarray:
        xs = np.arange(n) / n
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        phi = 0.7 * np.sin(2 * np.pi * X) + 0.3 * np.cos(2 * np.pi * Y)
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1)

    def helix(n: int) -> np.ndarray:
        xs = np.arange(n) / n
        _, _, Z = np.meshgrid(xs, xs, xs, indexing="ij")
        pitch = 0.4
        return np.stack(
            [
                np.cos(pitch) * np.cos(2 * np.pi * Z),
                np.cos(pitch) * np.sin(2 * np.pi * Z),
                np.full_like(Z, np.sin(pitch)),
            ],
            axis=-1,
        )

    with criterion(criterion_report, 10) as log:
        orders = {}
        planar = {
            n: float(appendix_identity_residual(unit_field_2d(n), 1.0 / n).max())
            for n in (64, 128, 256)
        }
        orders["planar"] = [
            float(np.log2(planar[64] / planar[128])),
            float(np.log2(planar[128] / planar[256])),
        ]
        spatial = {
            n: float(appendix_identity_residual(helix(n), 1.0 / n).max())
            for n in (16, 32, 64)
        }
        orders["helix"] = [
            float(np.log2(spatial[16] / spatial[32])),
            float(np.log2(spatial[32] / spatial[64])),
        ]

        reports = {}
        for n in (64, 128):
            xs = np.arange(n) / n
            X, Y = np.meshgrid(xs, xs, indexing="ij")
            rho = 1.0 + 0.3 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
            reports[n] = auxiliary_operator_checks(unit_field_2d(n), 1.0 / n, rho=rho)
        exact = max(reports[n]["tangent_curvature"] for n in (64, 128))
        log.check(exact < 1e-13, f"tangent curvature contraction {exact:.2e} not exact")
        for name in (
            "div_u_trace",
            "sigma_grad_u",
            "sigma_gradu_gradrho",
            "sigma_gradu_curv",
            "sigma_hessian",
        ):
            orders[name] = [float(np.log2(reports[64][name] / reports[128][name]))]

        flat = [s for seq in orders.values() for s in seq]
        log.check(
            all(1.8 <= s <= 2.2 for s in flat),
            "order outside 2 +- 0.2: "
            + ", ".join(f"{k} {v}" for k, v in orders.items()),
        )
        log.headline = (
            f"orders within [{min(flat):.2f}, {max(flat):.2f}] across "
            f"{len(flat)} residual families"
        )


def test_11_particle_equilibrium_statistics_reproducible(criterion_report):
    config = IbmConfig(
        N=10_000, d=2, nu=4.0, D=1.0, R=0.4,
        kernel="global", dt=1e-3, seed=2024,
    )
    with criterion(criterion_report, 11) as log:
        t0 = time.perf_counter()
        first = ibm_equilibrium_statistics(config, T=20.0)
        second = ibm_equilibrium_statistics(config, T=20.0)
        elapsed = time.perf_counter() - t0
        log.check(
            first.ks_statistic < 0.03,
            f"KS distance {first.ks_statistic:.4f} >= 0.03",
        )
        log.check(first.sample_sufficient, "sample flagged insufficient")
        log.check(
            first.ks_statistic == second.ks_statistic
            and first.order_parameter == second.order_parameter,
            "repeat run is not bit-identical",
        )
        log.check(elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s")
        log.headline = (
            f"KS {first.ks_statistic:.4f} (N=10^4, T=20/D), bit-identical rerun, "
            f"{elapsed:.1f}s"
        )


def test_12_particle_density_tracks_continuum(criterion_report):
    config = IbmConfig(
        N=100_000, d=2, nu=4.0, D=1.0, R=0.1,
        kernel="indicator", box_length=10.0, dt=0.02, seed=7,
    )
    with criterion(criterion_report, 12, gate=False) as log:
        t0 = time.perf_counter()
        report = particle_vs_macro(config, 0.1, 0.05, grid_n=32)
        elapsed = time.perf_counter() - t0
        log.check(
            bool(np.isfinite(report.density_distances).all()),
            "density distances are not finite",
        )
        log.check(
            bool(np.all(np.diff(report.times) > 0.0)),
            "checkpoint times are not increasing",
        )
        final = report.final_density_distance
        log.headline = (
            f"relative L2 density distance {final:.3f} at eps=0.1, N=10^5 "
            f"(soft target 0.2, qualitative), {elapsed:.0f}s"
        )
