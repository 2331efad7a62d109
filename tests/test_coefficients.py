import numpy as np
import pytest

from nematic_hydro.gci.coefficients import (
    COEFFICIENT_NAMES,
    compute_coefficients,
    compute_coefficients_derivation,
    max_discrepancy,
)
from nematic_hydro.gci.equilibrium import make_equilibrium
from nematic_hydro.gci.radial import solve_bundle
from nematic_hydro.sphere import build_quadrature

from _oracles import identity_defects

# regression anchors at n = 1024.  Route agreement cannot see derivative
# error, because both routes read the same profiles and derivatives; the
# entries built from derivatives (G1-G4, H2-H4) were checked against the
# Richardson limit of n = 4096 and 8192 solves, within 2e-9, and the rest
# against the two routes (2e-14) and the six internal identities (1e-15)
FROZEN_K2D3 = {
    "C1": 3.279273667833e-01, "C2": 1.148806070509e-01, "C3": 5.562343298294e-02,
    "C4": 1.133120138697e-01, "E1": 5.883551269335e-01, "F1": 1.125741799030e-01,
    "F2": 1.082571529589e-02, "F3": 1.446422168865e-01, "G1": 6.169384608019e-01,
    "G2": -3.336097376487e-01, "G3": 5.381608244595e-02, "G4": 1.768068687416e-01,
    "H1": 5.883551269335e-01, "H2": -7.596380481922e-02, "H3": 2.578465978790e-02,
    "H4": 2.777073753851e-01, "C0": -2.442003004480e-02,
}
FROZEN_K4D2 = {
    "C1": 2.220386613794e+00, "C2": 1.122536507761e-01, "C3": 1.645513662755e-01,
    "C4": 1.497191630861e+00, "E1": 9.411791305595e-01, "F1": 1.568271760971e-01,
    "F2": 1.317721076922e-02, "F3": 5.848290958930e-01, "G1": 2.469537758089e+00,
    "G2": -1.310846644877e-01, "G3": 5.526098331718e-02, "G4": 6.137356576832e-01,
    "H1": 9.411791305595e-01, "H2": -7.127092283153e-02, "H3": 7.237904249593e-02,
    "H4": 1.698107390704e+00, "C0": -9.403490989183e-02,
}


def test_frozen_values_k2d3(coeffs_k2d3):
    for name, want in FROZEN_K2D3.items():
        assert abs(getattr(coeffs_k2d3, name) - want) < 1e-10, name


def test_frozen_values_k4d2(coeffs_k4d2):
    for name, want in FROZEN_K4D2.items():
        assert abs(getattr(coeffs_k4d2, name) - want) < 1e-10, name


def test_internal_identities(coeffs_k2d3, coeffs_k4d2):
    for coeffs in (coeffs_k2d3, coeffs_k4d2):
        for name, defect in identity_defects(coeffs).items():
            assert defect < 1e-8, f"{name}: {defect:.2e}"


def test_two_routes_agree(bundle_k2d3):
    thm = compute_coefficients(bundle_k2d3)
    der = compute_coefficients_derivation(bundle_k2d3)
    assert max_discrepancy(thm, der) < 1e-8


@pytest.mark.parametrize("kappa,d", [(2.0, 3), (4.0, 2)])
def test_coefficients_converged_at_default_resolution(kappa, d):
    """The default profile resolution n = 1024 already gives every coefficient,
    derivative-built ones included, to within 1e-9 of a four times finer solve."""
    coarse = compute_coefficients(solve_bundle(kappa, d, 1024))
    fine = compute_coefficients(solve_bundle(kappa, d, 4096))
    assert max_discrepancy(coarse, fine) < 1e-9


def test_h1_is_e1_bitwise(coeffs_k2d3):
    assert coeffs_k2d3.H1 == coeffs_k2d3.E1


def test_positive_block_and_normalizer_signs(coeffs_k2d3, coeffs_k4d2):
    for coeffs in (coeffs_k2d3, coeffs_k4d2):
        for name, value in coeffs.positive_block().items():
            assert value > 0, name
        assert coeffs.C0 < 0


ROUTES = (compute_coefficients, compute_coefficients_derivation)


def test_kappa_must_be_positive():
    flat = solve_bundle(0.0, 3, 64)
    for route in ROUTES:
        with pytest.raises(ValueError, match="kappa > 0"):
            route(flat)


def test_bundle_mismatch_rejected(bundle_k2d3):
    other_kappa, other_d = solve_bundle(3.0, 3, 64), solve_bundle(2.0, 2, 64)
    cases = [
        ("missing", {k: v for k, v in bundle_k2d3.items() if k != "e"}),
        ("holds", {**bundle_k2d3, "a": bundle_k2d3["b"]}),
        # mixed bundles: the first profile read, a later one, another d
        ("solved at", {**bundle_k2d3, "h": other_kappa["h"]}),
        ("solved at", {**bundle_k2d3, "k": other_kappa["k"]}),
        ("solved at", {**bundle_k2d3, "c": other_d["c"]}),
    ]
    for route in ROUTES:
        for message, bundle in cases:
            with pytest.raises(ValueError, match=message):
                route(bundle)


def test_quadrature_resolution_converged(bundle_k2d3):
    a = compute_coefficients(bundle_k2d3, n_quad=192)
    b = compute_coefficients(bundle_k2d3, n_quad=384)
    assert max_discrepancy(a, b) < 1e-12


def test_coefficient_names_cover_dataclass(coeffs_k2d3):
    values = [getattr(coeffs_k2d3, name) for name in COEFFICIENT_NAMES]
    assert np.all(np.isfinite(values))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_equilibrium_density_normalized(d):
    eq = make_equilibrium(1.7, d)
    axis = np.zeros(d)
    axis[0] = 1.0
    quad = build_quadrature(d, axis, 64)
    mass = quad.integrate(eq.density(quad.nodes @ axis))
    assert abs(mass - 1.0) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kappa", [0.0, 1.7, 10.0])
def test_equilibrium_average_of_ones_is_one(kappa, d):
    eq = make_equilibrium(kappa, d)
    assert abs(eq.average(np.ones_like(eq.nodes)) - 1.0) < 1e-15


def test_equilibrium_flat_at_zero_coupling():
    eq = make_equilibrium(0.0, 3)
    r = np.linspace(-1, 1, 9)
    assert np.abs(eq.density(r) - 1.0).max() < 1e-14
