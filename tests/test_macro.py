import numpy as np
import pytest

from nematic_hydro.macro import (
    BlowUpDetected,
    CflViolation,
    MacroConfig,
    MacroField,
    appendix_identity_residual,
    auxiliary_operator_checks,
    density_rate,
    direction_rhs,
    preprojection_drift,
    rotate_quarter_turn,
    step,
)
from nematic_hydro.macro import _ddx


def make_fields(n: int, amp: float = 0.3) -> MacroField:
    xs = np.arange(n) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rho = 1.0 + amp * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    phi = 0.7 * np.sin(2 * np.pi * X) + 0.3 * np.cos(2 * np.pi * Y)
    u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return MacroField(rho=rho, u=u, dx=1.0 / n)


def unit_field_2d(n: int) -> np.ndarray:
    xs = np.arange(n) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    phi = 0.7 * np.sin(2 * np.pi * X) + 0.3 * np.cos(2 * np.pi * Y)
    return np.stack([np.cos(phi), np.sin(phi)], axis=-1)


def test_constant_state_is_exact_fixed_point(coeffs_k4d2):
    n = 32
    rho = np.full((n, n), 1.3)
    u = np.zeros((n, n, 2))
    u[..., 0] = 1.0
    const = MacroField(rho=rho, u=u, dx=1.0 / n)
    assert np.abs(density_rate(const, coeffs_k4d2)).max() == 0.0
    assert np.abs(direction_rhs(const, coeffs_k4d2)).max() == 0.0
    cfg = MacroConfig(coefficients=coeffs_k4d2, dx=1.0 / n, dt=1e-4)
    out = step(const, cfg)
    assert np.array_equal(out.rho, rho)
    assert np.array_equal(out.u, u)


def test_direction_rhs_tangent(coeffs_k4d2):
    F = make_fields(64)
    rhs = direction_rhs(F, coeffs_k4d2)
    assert np.abs(np.einsum("...i,...i->...", F.u, rhs)).max() < 1e-13


def test_nematic_symmetry_bitwise(coeffs_k4d2):
    F = make_fields(64)
    Fm = MacroField(rho=F.rho, u=-F.u, dx=F.dx)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dx=1.0 / 64, dt=2e-5)
    a = step(F, cfg)
    b = step(Fm, cfg)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.u, -b.u)


def test_mass_conserved_and_state_valid(coeffs_k4d2):
    G = make_fields(64)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dx=1.0 / 64, dt=2e-5)
    m0 = G.mass()
    for _ in range(200):
        G = step(G, cfg)
    assert abs(G.mass() - m0) / m0 < 1e-13
    assert G.time == pytest.approx(200 * cfg.dt)
    G.validate()
    norms = np.linalg.norm(G.u, axis=-1)
    assert np.abs(norms - 1.0).max() < 1e-15


def test_rotation_equivariance(coeffs_k4d2):
    F = make_fields(64)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dx=1.0 / 64, dt=2e-5)
    r_then_s = step(rotate_quarter_turn(F), cfg)
    s_then_r = rotate_quarter_turn(step(F, cfg))
    assert np.abs(r_then_s.rho - s_then_r.rho).max() < 1e-12
    assert np.abs(r_then_s.u - s_then_r.u).max() < 1e-12


def test_cfl_violation_raised(coeffs_k4d2):
    F = make_fields(64)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dx=1.0 / 64, dt=1e-2)
    with pytest.raises(CflViolation):
        step(F, cfg)


def test_density_floor_guard(coeffs_k4d2):
    F = make_fields(8)
    starved = MacroField(rho=np.full((8, 8), 1e-13), u=F.u, dx=F.dx)
    with pytest.raises(BlowUpDetected):
        direction_rhs(starved, coeffs_k4d2)


def test_config_validation(coeffs_k4d2):
    with pytest.raises(ValueError):
        MacroConfig(coefficients=coeffs_k4d2, dx=0.1, dt=0.0)
    with pytest.raises(ValueError):
        MacroConfig(coefficients=coeffs_k4d2, dx=0.1, dt=1e-5, cfl_safety=0.0)


def test_field_dimension_must_match_coefficients(coeffs_k2d3):
    F = make_fields(16)
    cfg = MacroConfig(coefficients=coeffs_k2d3, dx=F.dx, dt=1e-7)
    with pytest.raises(ValueError, match="dimension"):
        step(F, cfg)


def test_at_cfl_step_sits_on_the_bound(coeffs_k4d2):
    F = make_fields(32)
    cfg = MacroConfig.at_cfl(coeffs_k4d2, F.dx, 0.2)
    c_max = max(coeffs_k4d2.positive_block().values())
    assert cfg.dt == 0.2 * F.dx**2 / c_max and cfg.cfl_safety == 0.2
    step(F, cfg)
    above = MacroConfig(coeffs_k4d2, F.dx, np.nextafter(cfg.dt, np.inf), 0.2)
    with pytest.raises(CflViolation):
        step(F, above)


def test_preprojection_drift_second_order(coeffs_k4d2):
    F = make_fields(64)
    drifts = []
    for dt in (2e-5, 1e-5, 5e-6):
        cfg = MacroConfig(coefficients=coeffs_k4d2, dx=1.0 / 64, dt=dt)
        drifts.append(preprojection_drift(F, cfg))
    slopes = [np.log2(drifts[i] / drifts[i + 1]) for i in range(2)]
    assert all(1.7 < s < 2.3 for s in slopes), slopes


def test_blow_up_guard_exposed():
    assert issubclass(BlowUpDetected, ArithmeticError)


def residual_refinement_ratio(res_coarse: float, res_fine: float) -> float:
    return np.log2(res_coarse / res_fine)


def test_appendix_identity_second_order_2d():
    res = {}
    for n in (64, 128, 256):
        u = unit_field_2d(n)
        res[n] = float(appendix_identity_residual(u, 1.0 / n).max())
    assert 1.8 < residual_refinement_ratio(res[64], res[128]) < 2.2
    assert 1.8 < residual_refinement_ratio(res[128], res[256]) < 2.2


def test_appendix_identity_second_order_3d_helix():
    res = {}
    for n in (16, 32, 64):
        xs = np.arange(n) / n
        _, _, Z = np.meshgrid(xs, xs, xs, indexing="ij")
        al = 0.4
        u = np.stack(
            [
                np.cos(al) * np.cos(2 * np.pi * Z),
                np.cos(al) * np.sin(2 * np.pi * Z),
                np.full_like(Z, np.sin(al)),
            ],
            axis=-1,
        )
        res[n] = float(appendix_identity_residual(u, 1.0 / n).max())
    assert 1.8 < residual_refinement_ratio(res[16], res[32]) < 2.2
    assert 1.8 < residual_refinement_ratio(res[32], res[64]) < 2.2


def test_auxiliary_checks_refine_at_second_order():
    reports = {}
    for n in (64, 128):
        xs = np.arange(n) / n
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        rho = 1.0 + 0.3 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
        reports[n] = auxiliary_operator_checks(unit_field_2d(n), 1.0 / n, rho=rho)
    assert reports[64]["tangent_curvature"] < 1e-13  # exact for normalized input
    for name in (
        "div_u_trace",
        "sigma_grad_u",
        "sigma_gradu_gradrho",
        "sigma_gradu_curv",
        "sigma_hessian",
    ):
        coarse, fine = reports[64][name], reports[128][name]
        if coarse < 1e-13:
            assert fine < 1e-13, name
            continue
        assert 1.8 < residual_refinement_ratio(coarse, fine) < 2.2, name


def test_auxiliary_checks_skip_density_terms_without_rho():
    report = auxiliary_operator_checks(unit_field_2d(32), 1.0 / 32)
    assert "sigma_gradu_gradrho" not in report
    assert "sigma_grad_u" in report


@pytest.mark.parametrize(
    "shape", [(16, 16), (5, 7), (2, 3), (1, 4), (6, 5, 4), (8, 8, 2), (4, 4, 4, 3, 3)]
)
def test_ddx_matches_rolled_difference(shape):
    arr = np.random.default_rng(5).standard_normal(shape)
    for axis in range(min(len(shape), 3)):
        rolled = (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * 0.37)
        assert np.array_equal(_ddx(arr, axis, 0.37), rolled)
        assert np.array_equal(_ddx(np.asfortranarray(arr), axis, 0.37), rolled)


def test_results_are_not_overwritten_by_later_calls(coeffs_k4d2):
    F, other = make_fields(32), make_fields(32, amp=0.1)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dx=1.0 / 32, dt=1e-5)
    results = [density_rate(F, coeffs_k4d2), direction_rhs(F, coeffs_k4d2)]
    stepped = step(F, cfg)
    results += [stepped.rho, stepped.u]
    kept = [r.copy() for r in results]
    density_rate(other, coeffs_k4d2)
    direction_rhs(other, coeffs_k4d2)
    step(other, cfg)
    assert all(np.array_equal(r, k) for r, k in zip(results, kept))
