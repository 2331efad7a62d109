"""Profile solver checks: closed-form limits, an independent collocation
cross-check frozen into probe values, residual levels, parity, and signs."""
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from nematic_hydro.gci import radial
from nematic_hydro.gci.radial import ALL_KINDS, solve_bundle, strong_defect

ZERO_MEAN_KINDS = ("c", "k")


def small_kappa_closed_form(kind, d, r):
    """Exact solutions of the vanishing-coupling limit, polynomial in r."""
    if kind == "h":
        return -r / (2 * d)
    if kind == "a":
        return -np.ones_like(r) / (d - 1)
    if kind == "b":
        return -(2.0 / (d**2 - 1) + r**2 / (d + 1)) / 3.0
    if kind == "c":
        return -r / (d - 1)
    if kind == "e":
        return -r / (3 * (d + 1))
    if kind == "k":
        return -2.0 * r / (3 * (d**2 - 1))
    raise AssertionError(kind)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_small_kappa_limit_matches_closed_forms(d):
    bundle = solve_bundle(1e-10, d, 512)
    r = np.linspace(-0.95, 0.95, 41)
    for kind in ALL_KINDS:
        dev = np.abs(bundle[kind](r) - small_kappa_closed_form(kind, d, r)).max()
        assert dev < 1e-7, f"{kind}: {dev:.2e}"


def test_probe_values_frozen_against_collocation(bundle_k2d3):
    """Values pinned by an independent scipy.integrate.solve_bvp run that
    reproduced the solver to 1.1e-13 through the same interior points."""
    probes_odd = np.array([-0.75, -0.25, 0.25, 0.75])
    probes_even = np.array([0.25, 0.75])
    expected = {
        "h": [1.250557647829e-01, 4.627867049927e-02, -4.627867049937e-02, -1.250557647830e-01],
        "c": [5.817452374184e-01, 2.122157289146e-01, -2.122157289128e-01, -5.817452374202e-01],
        "e": [5.911867391388e-02, 2.183728584844e-02, -2.183728584841e-02, -5.911867391389e-02],
        "k": [9.044040879105e-02, 3.337163671569e-02, -3.337163671540e-02, -9.044040879133e-02],
        "a": [-4.157645308881e-01, -3.809443612460e-01],
        "b": [-8.423546910923e-02, -1.190556387520e-01],
    }
    for kind, vals in expected.items():
        probes = probes_even if kind in ("a", "b") else probes_odd
        dev = np.abs(bundle_k2d3[kind](probes) - np.array(vals)).max()
        assert dev < 1e-10, f"{kind}: {dev:.2e}"


def test_strong_residual_below_tolerance(bundle_k4d2):
    for kind in ALL_KINDS:
        res = float(np.max(np.abs(strong_defect(bundle_k4d2[kind])[1])))
        assert res < 1e-6, f"{kind}: {res:.2e}"


def test_solutions_converge_under_refinement():
    kappa, d = 2.0, 3
    ref = solve_bundle(kappa, d, 4096)
    r = np.linspace(-0.9, 0.9, 33)
    errs = []
    for n in (128, 256):
        bundle = solve_bundle(kappa, d, n)
        errs.append(
            max(np.abs(bundle[k](r) - ref[k](r)).max() for k in ALL_KINDS)
        )
    order = np.log2(errs[0] / errs[1])
    assert order > 1.8, f"observed order {order:.2f}"


def test_parity_of_profiles(bundle_k2d3):
    r = np.linspace(0.05, 0.9, 20)
    for kind in ("h", "c", "e", "k"):
        assert np.abs(bundle_k2d3[kind](-r) + bundle_k2d3[kind](r)).max() < 1e-9
    for kind in ("a", "b"):
        assert np.abs(bundle_k2d3[kind](-r) - bundle_k2d3[kind](r)).max() < 1e-9


def test_sign_conditions(bundle_k4d2):
    r_half = np.linspace(0.0, 1.0, 201)
    r_full = np.linspace(-1.0, 1.0, 201)
    for kind in ("h", "c", "e", "k"):
        assert bundle_k4d2[kind](r_half).max() <= 1e-10
    for kind in ("a", "b"):
        assert bundle_k4d2[kind](r_full).max() <= 1e-10


def test_zero_mean_of_zero_mean_kinds(bundle_k2d3):
    """The kinds fixed only up to a constant are returned mean-free in the
    weighted r-measure."""
    from scipy.special import roots_jacobi

    d = 3
    rj, wj = roots_jacobi(128, (d - 3) / 2, (d - 3) / 2)
    weight = wj * np.exp(0.5 * 2.0 * rj**2)
    for kind in ZERO_MEAN_KINDS:
        mean = float(weight @ bundle_k2d3[kind](rj)) / float(weight.sum())
        assert abs(mean) < 1e-10, f"{kind}: {mean:.2e}"


def test_defect_requires_coupled_profile(bundle_k2d3):
    """The k profile carries the e profile its load was built from."""
    assert bundle_k2d3["k"].e_profile is bundle_k2d3["e"]
    assert float(np.max(np.abs(strong_defect(bundle_k2d3["k"])[1]))) < 1e-6


def test_derivative_consistent_with_values(bundle_k2d3):
    h = bundle_k2d3["h"]
    r = np.linspace(-0.8, 0.8, 17)
    eps = 1e-6
    fd = (h(r + eps) - h(r - eps)) / (2 * eps)
    assert np.abs(fd - h.derivative(r)).max() < 1e-6


def test_slope_spline_built_on_first_derivative_call():
    sol = solve_bundle(2.0, 3, 64)["h"]
    r = np.linspace(-0.8, 0.8, 17)
    sol(r)
    assert "_slope_spline" not in vars(sol)
    slopes = CubicSpline(sol.grid, CubicSpline(sol.grid, sol.values)(sol.grid, 1))
    assert np.array_equal(sol.derivative(r), slopes(r))
    assert "_slope_spline" in vars(sol)


@pytest.mark.parametrize("kappa, d, n", [(2.0, 3, 1024), (7.3, 2, 8192)])
def test_spline_bitwise_equal_to_cubic_spline(kappa, d, n):
    bundle = solve_bundle(kappa, d, n)
    # inside, on every vertex, and extended past both ends
    r = np.concatenate((np.linspace(-1.05, 1.05, 2001), bundle["h"].grid))
    for kind, sol in bundle.items():
        values = CubicSpline(sol.grid, sol.values)
        slopes = CubicSpline(sol.grid, values(sol.grid, 1))
        assert np.array_equal(sol(r), values(r)), kind
        assert np.array_equal(sol.derivative(r), slopes(r)), kind


@pytest.mark.parametrize("kappa, d, n", [(1.7, 2, 1024), (8.0, 3, 8192), (40.0, 4, 1024)])
def test_on_intervals_is_the_call_at_the_quadrature_points(kappa, d, n):
    # k's load reads e at the Gauss points of half-grid element j on full-grid
    # interval n/2 + j, the interval the general call's search finds there
    e = solve_bundle(kappa, d, n)["e"]
    rq = radial._element_quadrature(n // 2)[3]
    cells = n // 2 + np.arange(n // 2)[:, None]
    found = np.searchsorted(e.grid, rq, side="right") - 1
    assert np.array_equal(found, np.broadcast_to(cells, rq.shape))
    assert np.array_equal(e._spline.on_intervals(cells, rq), e(rq))


def test_spline_rejects_non_finite_data():
    x = np.linspace(0.0, 1.0, 9)
    y = x**2
    y[3] = np.nan
    with pytest.raises(ValueError, match="finite"):
        radial._Spline(x, y)
    with pytest.raises(ValueError, match="finite"):
        CubicSpline(x, y)


def test_upper_products_are_einsum_entries():
    # the profiles near r = +-1 amplify element-matrix rounding through the
    # slope spline, so the assembly keeps einsum's arithmetic to the bit
    _, _, wq, rq, sq, N, dN = radial._element_quadrature(512)
    weights = wq * np.exp(1.7 * rq**2) * sq**2
    for B in (N, dN):
        full = np.einsum("eq,qi,qj->eij", weights, B, B)
        upper = np.array([full[:, i, j] for i, j in radial._UPPER])
        assert np.array_equal(radial._upper_products(weights, B), upper)


def test_solution_metadata(bundle_k2d3):
    for kind in ALL_KINDS:
        sol = bundle_k2d3[kind]
        assert sol.kind == kind
        assert sol.kappa == 2.0 and sol.d == 3 and sol.n == 1024


def test_defect_is_pointwise_and_interior(bundle_k2d3):
    rr, defect = strong_defect(bundle_k2d3["a"])
    assert rr.min() >= -0.95 and rr.max() <= 0.95
    assert defect.shape == rr.shape
    assert np.abs(defect).max() < 1e-6


def test_odd_resolution_rejected():
    """r = 0 must be an element vertex for the half-interval solve."""
    with pytest.raises(ValueError, match="even"):
        solve_bundle(2.0, 3, 1025)


@pytest.mark.parametrize("n", [512, 1024, 2048, 4096])
def test_zero_mean_kinds_carry_no_defect_at_origin(n):
    """At strong coupling the c and k residuals stay below the gate under
    refinement (a gauge fixed at r = 0 left a kink there that grew with n),
    and every profile has the parity of its kind exactly."""
    bundle = solve_bundle(8.0, 2, n)
    for kind in ZERO_MEAN_KINDS:
        res = float(np.max(np.abs(strong_defect(bundle[kind])[1])))
        assert res < 1e-6, f"{kind}: {res:.2e}"
    for kind in ("h", "c", "e", "k"):
        values = bundle[kind].values
        assert np.array_equal(values, -values[::-1]), kind
    for kind in ("a", "b"):
        values = bundle[kind].values
        assert np.array_equal(values, values[::-1]), kind


def test_bundle_independent_of_quadrature_cache():
    """The grid quadrature is cached per resolution; a solve from a cleared
    cache and one from a warm cache are bitwise equal, and the shared arrays
    cannot be written."""
    radial._element_quadrature.cache_clear()
    cold = solve_bundle(3.0, 3, 512)
    warm = solve_bundle(3.0, 3, 512)
    for kind in ALL_KINDS:
        grid = cold[kind].grid
        assert np.array_equal(cold[kind].values, warm[kind].values)
        assert np.array_equal(cold[kind].derivative(grid), warm[kind].derivative(grid))
    assert cold["h"] != warm["h"]  # solutions compare by identity, not by their arrays
    cached = radial._element_quadrature(256)
    assert all(not a.flags.writeable for a in cached)


def _dense_half_values(kind, kappa, d, n, e):
    """Vertex values on r in [0, 1] from the full P2 system, assembled densely
    from the element entries and solved with np.linalg.solve."""
    _, inv_half, wq, rq, sq, N, dN = radial._element_quadrature(n // 2)
    prob = radial._PROBLEMS[kind]
    op = prob.operator
    E = np.exp(0.5 * kappa * rq**2)
    s = sq ** (d + op.mu_shift - 1)
    A = radial._upper_products(wq * E * s, dN) * inv_half**2
    if op.zero_order is not None:
        A = A + radial._upper_products(wq * E * s * op.zero_order(kappa, d, rq), N)
    F = -np.einsum("eq,qi->ei", wq * prob.load(rq, e) * E * s, N)
    size = n + 1  # 2 (n / 2) + 1 nodes on the half interval
    K, rhs = np.zeros((size, size)), np.zeros(size)
    for el in range(n // 2):
        nodes = 2 * el + np.arange(3)
        for (i, j), entries in zip(radial._UPPER, A):
            K[nodes[i], nodes[j]] += entries[el]
            if i != j:
                K[nodes[j], nodes[i]] += entries[el]
        rhs[nodes] += F[el]
    pin = 1 if prob.parity == "odd" else 0  # u = 0 at r = 0
    u = np.zeros(size)
    u[pin:] = np.linalg.solve(K[pin:, pin:], rhs[pin:])
    return u[::2]


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("kappa, d", [(2.0, 3), (6.5, 2)])
def test_condensed_solve_matches_dense_p2_system(kappa, d, n):
    bundle = solve_bundle(kappa, d, n)
    for kind in ALL_KINDS:
        half = bundle[kind].values[n // 2:]
        dense = _dense_half_values(kind, kappa, d, n, bundle["e"])
        assert np.abs(half - dense).max() <= 1e-12 * np.abs(dense).max(), kind


@pytest.mark.parametrize("kinds", [("a", "b"), ("c", "k")])
def test_kinds_solved_together_equal_their_single_solves(kinds):
    kappa, d, n = 4.0, 3, 512
    e = solve_bundle(kappa, d, n)["e"]
    together = radial._solve_operator(kinds, kappa, d, n, e)
    for row, kind in zip(together, kinds):
        assert np.array_equal(row, radial._solve_operator((kind,), kappa, d, n, e)[0]), kind


def test_solver_failures_raise_linalg_error():
    # at kappa = 200 the c, k system is not positive definite in rounding
    with pytest.raises(np.linalg.LinAlgError, match="profile c/k"):
        solve_bundle(200.0, 2, 4096)


@pytest.mark.parametrize("kappa", [1415.0, 2000.0])
def test_overflowing_kappa_raises_without_warnings(kappa):
    # exp(kappa / 2) overflows at 2000; at 1415 it is finite but its products
    # are not, and dpttrf alone would let the NaN pivots through
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="condensed system is not finite"):
            solve_bundle(kappa, 2, 64)
