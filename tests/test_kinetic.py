import warnings

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dpttrf, dpttrs

from nematic_hydro import kinetic
from nematic_hydro.gci.equilibrium import make_equilibrium
from nematic_hydro.kinetic import (
    AngularDensity,
    bump_density,
    cell_measures,
    entropy_dissipation,
    equilibrium_density,
    evolve,
    l1_distance_to_equilibrium,
    quadratic_entropy,
    relaxation_series,
)
from nematic_hydro.qtensor import DegenerateLeadingEigenvalue

from _oracles import gamma_apply
from nematic_hydro.sphere import angle_weight_norm


@pytest.mark.parametrize("d", [2, 3, 4])
def test_cell_measures_sum_to_one(d):
    assert abs(cell_measures(200, d).sum() - 1.0) < 1e-14


@pytest.mark.parametrize("d", [2, 3, 4])
def test_bump_density_normalized_positive(d):
    f = bump_density(128, d)
    assert np.all(f.values > 0)
    assert abs(f.mass() - 1.0) < 1e-14
    f.validate()


def test_angular_density_validation():
    with pytest.raises(ValueError):
        AngularDensity(d=1, values=np.ones(16))
    for make in (lambda: equilibrium_density(16, 1, 2.0), lambda: cell_measures(16, 1)):
        with pytest.raises(ValueError, match="d >= 2 required"):
            make()
    with pytest.raises(ValueError):
        AngularDensity(d=3, values=np.ones(3))
    bad = AngularDensity(d=3, values=np.ones(16))
    bad.values[4] = -0.1
    with pytest.raises(ValueError):
        bad.validate()
    with pytest.raises(ValueError):
        AngularDensity(d=3, values=2 * np.ones(16)).validate()


@pytest.mark.parametrize("n", [8, 64, 4096])
def test_overflowing_kappa_raises_naming_kappa(n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="kappa = 1420.0"):
            relaxation_series(bump_density(n, 3), 1420.0, 1.0, 0.1, 0.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_cells_rejected(bad):
    # a NaN cell fails no comparison, so only an explicit finiteness check
    # keeps it out of the march; it runs before the horizon (T = 0) is checked
    f = bump_density(64, 3)
    f.values[10] = bad
    with pytest.raises(ValueError, match="non-finite"):
        f.validate()
    with pytest.raises(ValueError, match="non-finite"):
        evolve(f, 4.0, 1.0, dt=0.1, T=0.0)


@pytest.mark.parametrize("d", [2, 3])
def test_equilibrium_is_discrete_fixed_point(d):
    eq = equilibrium_density(96, d, 4.0)
    # stationarity is exact in the flux form; rounding of the per-cell ratio
    # f/E is amplified by the 1/(measure * dtheta) scaling
    assert np.abs(gamma_apply(eq, 4.0, 1.0)).max() < 1e-11
    out = evolve(eq, 4.0, 1.0, dt=0.05, T=1.0)
    assert np.abs(out.values - eq.values).max() < 1e-11


def test_gamma_output_has_zero_mass():
    f = bump_density(150, 3)
    rate = gamma_apply(f, 4.0, 1.0)
    assert abs(rate @ f.measures) < 1e-13


def test_mass_conserved_each_step():
    f = bump_density(150, 3)
    state = f
    for _ in range(25):
        state = evolve(state, 4.0, 1.0, dt=1e-2, T=1e-2)
        assert abs(state.mass() - 1.0) < 1e-12


def test_entropy_non_increasing_and_l1_decay():
    rows = relaxation_series(bump_density(100, 3), 4.0, 1.0, dt=5e-3, T=20.0, n_samples=20)
    assert rows.shape[1] == 4
    assert rows[0, 0] == 0.0
    assert abs(rows[-1, 0] - 20.0) < 1e-12
    entropy = rows[:, 3]
    assert np.all(np.diff(entropy) <= 1e-13)
    assert np.all(rows[:, 2] <= 1e-15)  # dissipation stays nonpositive
    assert rows[-1, 1] < 1e-3 < rows[0, 1]


def test_dissipation_forms_agree():
    """The face sum equals the pairing of the collision output with f/M."""
    f = bump_density(120, 3)
    Z = make_equilibrium(4.0, 3).Z
    E = np.exp(0.5 * 4.0 * np.cos(kinetic._cell_centers(f.n)) ** 2)
    lhs = float((gamma_apply(f, 4.0, 1.0) * Z * f.values / E) @ f.measures)
    rhs = entropy_dissipation(f, 4.0, 1.0)
    assert rhs < 0
    assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_dissipation_bounds_entropy_decay():
    # backward Euler dissipates at least the rate evaluated at the new state
    f = bump_density(120, 3)
    dt = 1e-2
    nxt = evolve(f, 4.0, 1.0, dt=dt, T=dt)
    drop = quadratic_entropy(nxt, 4.0) - quadratic_entropy(f, 4.0)
    assert drop <= 0
    assert drop <= dt * entropy_dissipation(nxt, 4.0, 1.0) * (1 - 1e-10)


def test_uniform_density_degenerate_axis():
    uniform = AngularDensity(d=3, values=np.ones(64))
    with pytest.raises(DegenerateLeadingEigenvalue):
        evolve(uniform, 4.0, 1.0, dt=0.1, T=0.1, u_policy="self-consistent")


def test_aligned_bump_passes_self_consistency():
    f = equilibrium_density(64, 3, 4.0)
    out = evolve(f, 4.0, 1.0, dt=0.1, T=0.5, u_policy="self-consistent")
    assert np.abs(out.values - f.values).max() < 1e-13


def test_evolve_argument_validation():
    f = bump_density(64, 3)
    with pytest.raises(ValueError):
        evolve(f, 4.0, 1.0, dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        evolve(f, 4.0, 0.0, dt=0.1, T=1.0)
    with pytest.raises(ValueError):
        evolve(f, 4.0, 1.0, dt=0.1, T=1.0, u_policy="frozen")
    with pytest.raises(ValueError):
        relaxation_series(f, 4.0, 1.0, dt=0.1, T=1.0, n_samples=0)
    # the horizon rounds to whole steps and must reach at least one
    with pytest.raises(ValueError, match="shorter than one step"):
        evolve(f, 4.0, 1.0, dt=1e-3, T=4e-4)


def test_timescale_set_by_noise():
    # D and t enter only through the product D * t, at matched step count
    f = bump_density(100, 3)
    slow = evolve(f, 4.0, 1.0, dt=2e-3, T=2.0)
    fast = evolve(f, 4.0, 2.0, dt=1e-3, T=1.0)
    assert np.abs(slow.values - fast.values).max() < 1e-13
    assert l1_distance_to_equilibrium(fast, 4.0) < l1_distance_to_equilibrium(f, 4.0)


def _reference_evolve(f0, kappa, D, dt, T, u_policy="fixed", route="pttrs"):
    """Hand copy of the backward-Euler march that factors per call.

    route "pttrs" factors the march's own scaled matrix
    I + dt M^{-1/2} K M^{-1/2} with LAPACK pttrf and steps h = sqrt(mu/E) f
    with pttrs, which evolve must reproduce bit for bit; route "cholesky"
    steps the unscaled system (M + dt K) g = mu f, M = diag(mu E), with
    cholesky_banded and cho_solve_banded, which rounds differently.
    """
    if dt <= 0 or T < 0 or D <= 0:
        raise ValueError("need dt > 0, T >= 0, D > 0")
    f0.validate()
    steps = int(round(T / dt))
    n = f0.n
    dtheta = np.pi / n
    mu = f0.measures
    E = np.exp(0.5 * kappa * np.cos(kinetic._cell_centers(f0.n)) ** 2)
    faces = np.linspace(0.0, np.pi, n + 1)[1:-1]
    w_face = (
        np.exp(0.5 * kappa * np.cos(faces) ** 2)
        * np.sin(faces) ** (f0.d - 2)
        / angle_weight_norm(f0.d - 2)
    )
    w = dt * D * w_face / dtheta
    state = AngularDensity(d=f0.d, values=f0.values.copy())
    if route == "pttrs":
        m = mu * E
        load = np.zeros(n)
        load[:-1] += w
        load[1:] += w
        root = np.sqrt(m)
        diag, sub, info = dpttrf(1.0 + load / m, -w / (root[:-1] * root[1:]))
        assert info == 0
        scale = np.sqrt(mu / E)
        h = scale * state.values
        for _ in range(steps):
            kinetic._resolve_axis(state, u_policy)
            h = dpttrs(diag, sub, h)[0]
            state.values = h / scale
        return state
    ab = np.zeros((2, n))
    ab[1, :] = mu * E
    ab[1, :-1] += w
    ab[1, 1:] += w
    ab[0, 1:] = -w
    chol = cholesky_banded(ab)
    for _ in range(steps):
        kinetic._resolve_axis(state, u_policy)
        state.values = E * cho_solve_banded((chol, False), mu * state.values)
    return state


@pytest.mark.parametrize("u_policy", ["fixed", "self-consistent"])
@pytest.mark.parametrize("d", [2, 3])
def test_march_matches_per_call_reference(d, u_policy, monkeypatch):
    f = bump_density(120, d, center=0.4)
    args = (3.5, 0.8, 2e-3, 0.3)
    ref = _reference_evolve(f, *args, u_policy=u_policy)
    out = evolve(f, *args, u_policy=u_policy)
    assert np.array_equal(out.values, ref.values)
    series = relaxation_series(f, *args, n_samples=7, u_policy=u_policy)
    monkeypatch.setattr(kinetic, "evolve", _reference_evolve)
    ref_series = relaxation_series(f, *args, n_samples=7, u_policy=u_policy)
    assert np.array_equal(series, ref_series)


@pytest.mark.parametrize("u_policy", ["fixed", "self-consistent"])
@pytest.mark.parametrize("d", [2, 3])
def test_march_matches_cho_solve_banded_reference(d, u_policy):
    # the banded Cholesky route the march used before: the same matrix,
    # factored and solved in another rounding order
    f = bump_density(120, d, center=0.4)
    args = (3.5, 0.8, 2e-3, 0.3)
    ref = _reference_evolve(f, *args, u_policy=u_policy, route="cholesky")
    out = evolve(f, *args, u_policy=u_policy)
    assert np.all(np.abs(out.values - ref.values) <= 1e-11 * np.abs(ref.values))


def test_relaxation_series_factors_once(monkeypatch):
    calls = []

    def counting_dpttrf(diag, sub, **kwargs):
        calls.append(diag.shape)
        return dpttrf(diag, sub, **kwargs)

    monkeypatch.setattr(kinetic, "dpttrf", counting_dpttrf)
    kinetic._backward_euler_factor.cache_clear()
    rows = relaxation_series(bump_density(80, 3), 4.0, 1.0, dt=1e-2, T=0.8, n_samples=40)
    assert len(rows) == 41
    assert calls == [(80,)]
    for a in kinetic._backward_euler_factor(80, 3, 4.0, 1.0, 1e-2):
        assert not a.flags.writeable


def test_each_step_is_one_dpttrs_call(monkeypatch):
    calls = []

    def counting_dpttrs(diag, sub, b, **kwargs):
        calls.append(b.shape)
        return dpttrs(diag, sub, b, **kwargs)

    monkeypatch.setattr(kinetic, "dpttrs", counting_dpttrs)
    f = bump_density(80, 3)
    for k in (1, 7, 40):
        calls.clear()
        evolve(f, 4.0, 1.0, dt=1e-2, T=k * 1e-2)
        assert calls == [(80,)] * k


def test_factor_of_indefinite_matrix_raises():
    # D < 0 (evolve rejects it before factoring) makes the diagonal negative
    with pytest.raises(np.linalg.LinAlgError, match="dpttrf"):
        kinetic._backward_euler_factor(64, 3, 4.0, -1.0, 1.0)
