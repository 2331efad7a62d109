import numpy as np
import pytest
from scipy.special import beta as beta_fn

from nematic_hydro import sphere
from nematic_hydro.sphere import (
    SphereQuadrature,
    assert_unit,
    build_quadrature,
    complete_basis,
)


def analytic_even_moment(m, d):
    """E[(omega.u)^{2m}] on the unit sphere, from the Beta-function form."""
    return beta_fn(m + 0.5, (d - 1) / 2) / beta_fn(0.5, (d - 1) / 2)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_weights_sum_to_one(d):
    axis = np.zeros(d)
    axis[0] = 1.0
    quad = build_quadrature(d, axis, 32)
    assert abs(quad.weights.sum() - 1.0) < 1e-13
    assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0, atol=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_axis_moments_match_closed_form(d, m):
    axis = np.zeros(d)
    axis[-1] = 1.0
    quad = build_quadrature(d, axis, 48)
    r = quad.nodes @ axis
    even = quad.integrate(r ** (2 * m))
    odd = quad.integrate(r ** (2 * m + 1))
    assert abs(even - analytic_even_moment(m, d)) < 1e-12
    assert abs(odd) < 1e-13


def test_rotated_axis_gives_same_scalar_integrals(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    q1 = build_quadrature(3, np.array([0.0, 0.0, 1.0]), 40)
    q2 = build_quadrature(3, v, 40)
    f = lambda nodes, u: np.exp(1.3 * (nodes @ u) ** 2)
    i1 = q1.integrate(f(q1.nodes, np.array([0.0, 0.0, 1.0])))
    i2 = q2.integrate(f(q2.nodes, v))
    assert abs(i1 - i2) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 5])
def test_complete_basis_is_orthonormal_complement(rng, d):
    v = rng.standard_normal(d)
    v /= np.linalg.norm(v)
    B = complete_basis(v)
    assert B.shape == (d, d - 1)
    assert np.abs(B.T @ B - np.eye(d - 1)).max() < 1e-12
    assert np.abs(B.T @ v).max() < 1e-12


def test_assert_unit_rejects_off_sphere_vectors():
    with pytest.raises(ValueError):
        assert_unit(np.array([1.0, 1.0]))
    v = assert_unit(np.array([0.6, 0.8]))
    assert v.shape == (2,)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_second_order_moment_matches_direct_sum(d):
    # closed form: [int a(r)(1 - r^2) / (d - 1)] P_{u-perp}
    u = np.zeros(d)
    u[0] = 1.0
    quad = build_quadrature(d, u, 48)
    r = quad.nodes @ u
    a_vals = 1.0 + 0.5 * r**2
    moment = (quad.weights @ (a_vals * (1.0 - r**2))) / (d - 1) * (np.eye(d) - np.outer(u, u))
    perp = quad.nodes - np.multiply.outer(r, u)
    direct = np.einsum("m,m,mi,mj->ij", quad.weights, a_vals, perp, perp)
    assert np.abs(moment - direct).max() < 1e-12


@pytest.mark.parametrize("d, n", [(7, 100), (5, 100)])
def test_node_budget_refuses_before_allocating(monkeypatch, d, n):
    monkeypatch.setattr(sphere, "roots_jacobi", lambda *args: pytest.fail("nodes allocated"))
    axis = np.zeros(d)
    axis[0] = 1.0
    with pytest.raises(ValueError, match=f"d = {d}, n = {n} needs {n ** (d - 1)} nodes"):
        build_quadrature(d, axis, n)
