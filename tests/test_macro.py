import numpy as np
import pytest

from nematic_hydro.macro import (
    BlowUpDetected,
    CflViolation,
    MacroConfig,
    MacroField,
    step,
)
from nematic_hydro.cli_io.output import write_field_snapshot
from nematic_hydro.macro import _Planes, _check_in_range, _ddx, _heun, _stage_rates

from _oracles import appendix_identity_residual, auxiliary_operator_checks, rotate_quarter_turn


def make_fields(n: int, amp: float = 0.3) -> MacroField:
    xs = np.arange(n) / n
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rho = 1.0 + amp * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    phi = 0.7 * np.sin(2 * np.pi * X) + 0.3 * np.cos(2 * np.pi * Y)
    u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
    return MacroField(rho=rho, u=u, dx=1.0 / n)


def make_fields_3d(n: int) -> MacroField:
    xs = np.arange(n) / n
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    rho = 1.0 + 0.3 * np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Z)
    phi = 0.7 * np.sin(2 * np.pi * X) + 0.3 * np.cos(2 * np.pi * Y)
    theta = 0.4 + 0.2 * np.sin(2 * np.pi * Z)
    u = np.stack(
        [np.cos(phi) * np.cos(theta), np.sin(phi) * np.cos(theta), np.sin(theta)], axis=-1
    )
    return MacroField(rho=rho, u=u, dx=1.0 / n)


def _rates(fields: MacroField, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """Both rates from _stage_rates, the function each Heun stage calls, into
    fresh arrays: (d_t rho, d_t u) with u's rate stacked (..., d)."""
    w = _Planes(fields.rho.shape)
    drho = np.empty(fields.rho.shape)
    du = np.empty((fields.u.shape[-1],) + fields.rho.shape)
    u = list(np.moveaxis(fields.u, -1, 0))
    _stage_rates(drho, list(du), fields.rho, u, fields.dx, coeffs, w)
    return drho, np.moveaxis(du, 0, -1)


def rolled_rates(fields: MacroField, c) -> tuple[np.ndarray, np.ndarray]:
    """Both rates from np.roll differences divided by 2 dx, on stacked arrays:
    the same discrete terms as the stepper, assembled independently."""
    rho, u, dx = fields.rho, fields.u, fields.dx
    d, r = rho.ndim, rho[..., None]

    def diff(f, i):
        return (np.roll(f, -1, axis=i) - np.roll(f, 1, axis=i)) / (2.0 * dx)

    def grad(f):
        return np.stack([diff(f, i) for i in range(d)], axis=d)

    def proj(v):
        return v - u * np.einsum("...i,...i->...", u, v)[..., None]

    gr, gu = grad(rho), grad(u)  # gu[..., i, j] = d_i u_j
    div_u = np.einsum("...ii->...", gu)
    curv = np.einsum("...i,...ij->...j", u, gu)
    udr = np.einsum("...i,...i->...", u, gr)
    p_gr, curv_t = proj(gr), proj(curv)
    b = gu - u[..., :, None] * curv[..., None, :]
    bracket = (
        c.C1 * udr[..., None] * u + c.C2 * p_gr + c.C3 * r * curv
        + c.C4 * (div_u * rho)[..., None] * u
    )
    drho = sum(diff(bracket[..., i], i) for i in range(d))
    tangent = (
        np.einsum("...ij,...j->...i", b, c.G2 * p_gr + c.H2 * r * curv_t)
        + (c.G1 * udr + c.H4 * rho * div_u)[..., None] * curv_t
        + (c.H1 * udr / rho + c.G4 * div_u)[..., None] * p_gr
    )
    wrapped = (
        np.einsum("...j,...ji->...i", c.G3 * p_gr + c.H3 * r * curv_t, b)
        + c.E1 * grad(udr)
        + c.F1 * r * np.einsum("...k,...ki->...i", u, grad(curv_t))
        + c.F2 * r * sum(diff(b[..., k, :], k) for k in range(d))
        + c.F3 * r * grad(div_u)
    )
    return drho, (tangent + proj(wrapped)) / r


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
    for rate in _rates(const, coeffs_k4d2):
        assert np.abs(rate).max() == 0.0
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=1e-4)
    out = step(const, cfg)
    assert np.array_equal(out.rho, rho)
    assert np.array_equal(out.u, u)


def test_direction_rhs_tangent(coeffs_k4d2):
    F = make_fields(64)
    _, rhs = _rates(F, coeffs_k4d2)
    assert np.abs(np.einsum("...i,...i->...", F.u, rhs)).max() < 1e-13


def test_nematic_symmetry_bitwise(coeffs_k4d2):
    F = make_fields(64)
    Fm = MacroField(rho=F.rho, u=-F.u, dx=F.dx)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=2e-5)
    a = step(F, cfg)
    b = step(Fm, cfg)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.u, -b.u)


def test_mass_conserved_and_state_valid(coeffs_k4d2):
    G = make_fields(64)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=2e-5)
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
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=2e-5)
    r_then_s = step(rotate_quarter_turn(F), cfg)
    s_then_r = rotate_quarter_turn(step(F, cfg))
    assert np.abs(r_then_s.rho - s_then_r.rho).max() < 1e-12
    assert np.abs(r_then_s.u - s_then_r.u).max() < 1e-12


def test_cfl_violation_raised(coeffs_k4d2):
    F = make_fields(64)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=1e-2)
    with pytest.raises(CflViolation):
        step(F, cfg)


def test_cfl_bound_taken_at_the_field_spacing(coeffs_k4d2):
    cfg = MacroConfig.at_cfl(coeffs_k4d2, 1.0 / 32, 0.2)
    step(make_fields(32), cfg)
    step(make_fields(16), cfg)  # a coarser lattice keeps dt under its bound
    with pytest.raises(CflViolation):
        step(make_fields(64), cfg)


def test_density_floor_guard(coeffs_k4d2):
    F = make_fields(8)
    starved = MacroField(rho=np.full((8, 8), 1e-13), u=F.u, dx=F.dx)
    with pytest.raises(BlowUpDetected):
        _rates(starved, coeffs_k4d2)


def test_config_validation(coeffs_k4d2):
    with pytest.raises(ValueError):
        MacroConfig(coefficients=coeffs_k4d2, dt=0.0)
    with pytest.raises(ValueError):
        MacroConfig(coefficients=coeffs_k4d2, dt=1e-5, cfl_safety=0.0)
    with pytest.raises(ValueError):
        MacroConfig.at_cfl(coeffs_k4d2, 0.0, 0.2)


def test_field_dimension_must_match_coefficients(coeffs_k2d3):
    F = make_fields(16)
    cfg = MacroConfig(coefficients=coeffs_k2d3, dt=1e-7)
    with pytest.raises(ValueError, match="dimension"):
        step(F, cfg)


def test_at_cfl_step_sits_on_the_bound(coeffs_k4d2):
    F = make_fields(32)
    cfg = MacroConfig.at_cfl(coeffs_k4d2, F.dx, 0.2)
    c_max = max(coeffs_k4d2.positive_block().values())
    assert cfg.dt == 0.2 * F.dx**2 / c_max and cfg.cfl_safety == 0.2
    step(F, cfg)
    above = MacroConfig(coeffs_k4d2, np.nextafter(cfg.dt, np.inf), 0.2)
    with pytest.raises(CflViolation):
        step(F, above)


def test_preprojection_drift_second_order(coeffs_k4d2):
    F = make_fields(64)
    drifts = []
    for dt in (2e-5, 1e-5, 5e-6):
        cfg = MacroConfig(coefficients=coeffs_k4d2, dt=dt)
        drifts.append(_heun(F, cfg)[1])
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


@pytest.mark.parametrize(
    "shape", [(16, 16), (5, 7), (2, 3), (1, 4), (6, 5, 4), (8, 8, 2), (4, 4, 4, 3, 3)]
)
def test_ddx_matches_rolled_difference(shape):
    arr = np.random.default_rng(5).standard_normal(shape)
    for axis in range(min(len(shape), 3)):
        rolled = np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)
        assert np.array_equal(_ddx(arr, axis), rolled)
        assert np.array_equal(_ddx(np.asfortranarray(arr), axis), rolled)


def test_results_are_not_overwritten_by_later_calls(coeffs_k4d2):
    F, other = make_fields(32), make_fields(32, amp=0.1)
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=1e-5)
    results = list(_rates(F, coeffs_k4d2))
    stepped = step(F, cfg)
    results += [stepped.rho, stepped.u]
    kept = [r.copy() for r in results]
    _rates(other, coeffs_k4d2)
    step(other, cfg)
    assert all(np.array_equal(r, k) for r, k in zip(results, kept))


@pytest.mark.parametrize("dim", [2, 3])
def test_rates_match_rolled_reference(dim, coeffs_k4d2, coeffs_k2d3):
    if dim == 2:
        fields, coeffs = make_fields(48), coeffs_k4d2
    else:
        fields, coeffs = make_fields_3d(12), coeffs_k2d3
    ref_rho, ref_u = rolled_rates(fields, coeffs)
    got = _rates(fields, coeffs)
    for rate, ref in zip(got, (ref_rho, ref_u)):
        assert np.abs(rate - ref).max() <= 1e-13 * np.abs(ref).max()


def test_component_major_input_steps_bitwise_like_c_stacked(coeffs_k4d2):
    F0 = make_fields(32)
    stacked = np.ascontiguousarray(F0.u)
    major = np.moveaxis(np.ascontiguousarray(np.moveaxis(stacked, -1, 0)), 0, -1)
    assert major[..., 0].flags.c_contiguous and not stacked[..., 0].flags.c_contiguous
    F = MacroField(rho=F0.rho, u=stacked, dx=F0.dx)
    assert F.u[..., 0].flags.c_contiguous  # the field holds u component-major
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=1e-5)
    a, b = step(F, cfg), step(MacroField(rho=F.rho, u=major, dx=F.dx), cfg)
    assert np.array_equal(a.rho, b.rho) and np.array_equal(a.u, b.u)
    assert a.u[..., 1].flags.c_contiguous  # the stepper returns u component-major
    c, e = step(a, cfg), step(MacroField(rho=a.rho, u=np.ascontiguousarray(a.u), dx=a.dx), cfg)
    assert np.array_equal(c.rho, e.rho) and np.array_equal(c.u, e.u)


def test_field_holds_u_component_major():
    F0 = make_fields(16)
    stacked = np.ascontiguousarray(F0.u)
    F = MacroField(rho=F0.rho, u=stacked, dx=F0.dx)
    assert np.array_equal(F.u, stacked)
    assert all(F.u[..., i].flags.c_contiguous for i in range(2))
    major = np.moveaxis(np.ascontiguousarray(np.moveaxis(stacked, -1, 0)), 0, -1)
    G = MacroField(rho=F0.rho, u=major, dx=F0.dx)
    assert np.shares_memory(G.u, major) and np.array_equal(G.u, stacked)


def test_snapshot_bytes_independent_of_direction_layout(coeffs_k4d2, tmp_path):
    cfg = MacroConfig(coefficients=coeffs_k4d2, dt=1e-5)
    stepped = step(make_fields(16), cfg)
    stacked = np.ascontiguousarray(stepped.u, dtype="<f8").tobytes()
    # the field's own buffer is component-major, so dumping it as-is would fail
    buffer = np.moveaxis(stepped.u, -1, 0)
    assert buffer.flags.c_contiguous and buffer.tobytes() != stacked
    write_field_snapshot(tmp_path / "f.bin", stepped)
    offset = 32 + 8 * stepped.rho.size  # header, then the density payload
    assert (tmp_path / "f.bin").read_bytes()[offset:] == stacked


def test_range_check_catches_nan_and_inf_in_any_plane():
    ones = np.ones(4)
    _check_in_range(ones, [ones, -ones], "now")
    for bad in (np.nan, np.inf, -np.inf, -2e6):
        with pytest.raises(BlowUpDetected):
            _check_in_range(ones, [ones, np.array([1.0, bad, 1.0, 1.0])], "now")
        with pytest.raises(BlowUpDetected):
            _check_in_range(np.array([1.0, bad, 1.0, 1.0]), [ones, ones], "now")


def test_validate_rejects_non_finite_fields():
    F = make_fields(8)
    F.validate()
    u = F.u.copy()
    u[3, 2, 1] = np.nan
    with pytest.raises(ValueError, match="direction"):
        MacroField(rho=F.rho, u=u, dx=F.dx).validate()
    rho = F.rho.copy()
    rho[1, 1] = np.inf
    with pytest.raises(ValueError, match="density"):
        MacroField(rho=rho, u=F.u, dx=F.dx).validate()
