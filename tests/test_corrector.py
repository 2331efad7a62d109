import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from nematic_hydro.gci import corrector
from nematic_hydro.gci.corrector import (
    CorrectorInputs,
    corrector_channel_residuals,
    corrector_f1,
    gci_vector,
)
from nematic_hydro.gci.equilibrium import make_equilibrium
from nematic_hydro.gci.radial import solve_bundle
from nematic_hydro.sphere import build_quadrature

U3 = np.array([0.0, 0.0, 1.0])


def make_inputs(d: int = 3) -> CorrectorInputs:
    u = np.zeros(d)
    u[-1] = 1.0
    grad_u = np.zeros((d, d))
    grad_u[0, 0] = 0.2
    grad_u[1, 0] = -0.1
    grad_u[d - 1, 0] = 0.15  # nonzero (u . grad) u
    grad_rho = np.full(d, 0.3)
    return CorrectorInputs(rho=1.4, grad_rho=grad_rho, u=u, grad_u=grad_u)


class TestCorrectorInputs:
    def test_rejects_nonpositive_density(self):
        with pytest.raises(ValueError):
            CorrectorInputs(rho=0.0, grad_rho=np.zeros(3), u=U3, grad_u=np.zeros((3, 3)))

    def test_rejects_non_unit_direction(self):
        with pytest.raises(ValueError):
            CorrectorInputs(rho=1.0, grad_rho=np.zeros(3), u=2 * U3, grad_u=np.zeros((3, 3)))

    def test_rejects_normal_gradient_component(self):
        grad_u = np.zeros((3, 3))
        grad_u[0, 2] = 0.1  # column along u breaks (grad u) u = 0
        with pytest.raises(ValueError):
            CorrectorInputs(rho=1.0, grad_rho=np.zeros(3), u=U3, grad_u=grad_u)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            CorrectorInputs(rho=1.0, grad_rho=np.zeros(2), u=U3, grad_u=np.zeros((3, 3)))


class TestGciVector:
    def test_requires_h_profile(self, bundle_k2d3):
        with pytest.raises(ValueError):
            gci_vector(bundle_k2d3["a"], U3, U3)

    def test_tangent_to_direction(self, bundle_k2d3, rng):
        omega = rng.standard_normal((50, 3))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        psi = gci_vector(bundle_k2d3["h"], U3, omega)
        assert np.abs(psi @ U3).max() < 1e-14

    def test_even_under_flip(self, bundle_k2d3, rng):
        # h is odd and omega_perp changes sign, so the invariant respects
        # head-tail symmetry
        omega = rng.standard_normal((50, 3))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        psi = gci_vector(bundle_k2d3["h"], U3, omega)
        assert np.abs(psi - gci_vector(bundle_k2d3["h"], U3, -omega)).max() < 1e-12

    def test_vanishes_at_poles(self, bundle_k2d3):
        assert np.abs(gci_vector(bundle_k2d3["h"], U3, U3)).max() < 1e-12
        assert np.abs(gci_vector(bundle_k2d3["h"], U3, -U3)).max() < 1e-12


class TestCorrectorF1:
    def test_zero_without_gradients(self, bundle_k2d3, rng):
        inputs = CorrectorInputs(
            rho=2.0, grad_rho=np.zeros(3), u=U3, grad_u=np.zeros((3, 3))
        )
        omega = rng.standard_normal((40, 3))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        assert np.abs(corrector_f1(inputs, bundle_k2d3, omega)).max() == 0.0

    def test_odd_under_orientation_flip(self, bundle_k2d3, rng):
        inputs = make_inputs()
        omega = rng.standard_normal((40, 3))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        f_plus = corrector_f1(inputs, bundle_k2d3, omega)
        f_minus = corrector_f1(inputs, bundle_k2d3, -omega)
        # channel profiles carry their parity at solver accuracy, not bitwise
        assert np.abs(f_plus + f_minus).max() < 1e-11

    def test_density_channel_isolated(self, bundle_k2d3, rng):
        grad_rho = np.array([0.4, -0.2, 0.0])  # transverse only
        inputs = CorrectorInputs(rho=1.0, grad_rho=grad_rho, u=U3, grad_u=np.zeros((3, 3)))
        eq = make_equilibrium(2.0, 3)
        omega = rng.standard_normal((40, 3))
        omega /= np.linalg.norm(omega, axis=1, keepdims=True)
        r = omega @ U3
        omega_perp = omega - np.outer(r, U3)
        expected = eq.density(r) * bundle_k2d3["a"](r) * (omega_perp @ grad_rho)
        got = corrector_f1(inputs, bundle_k2d3, omega)
        assert np.abs(got - expected).max() < 1e-14

    def test_integrates_to_zero_mass(self, bundle_k2d3):
        inputs = make_inputs()
        quad = build_quadrature(3, U3, 80)
        mass = quad.integrate(corrector_f1(inputs, bundle_k2d3, quad.nodes))
        assert abs(mass) < 1e-12

    def test_inconsistent_bundle_or_inputs_rejected(self, bundle_k2d3):
        inputs = make_inputs()
        incomplete = {k: v for k, v in bundle_k2d3.items() if k != "e"}
        with pytest.raises(ValueError, match="missing"):
            corrector_f1(inputs, incomplete, U3)
        with pytest.raises(ValueError, match="holds"):
            corrector_f1(inputs, {**bundle_k2d3, "a": bundle_k2d3["b"]}, U3)
        mixed = {**bundle_k2d3, "k": solve_bundle(3.0, 3, 64)["k"]}
        with pytest.raises(ValueError, match="solved at"):
            corrector_f1(inputs, mixed, U3)
        with pytest.raises(ValueError, match="dimension 2"):
            corrector_f1(make_inputs(2), bundle_k2d3, np.array([0.6, 0.8]))

    def test_scalar_input_returns_scalar(self, bundle_k2d3):
        inputs = make_inputs()
        omega = np.array([0.6, 0.0, 0.8])
        value = corrector_f1(inputs, bundle_k2d3, omega)
        assert isinstance(value, float)


class TestCorrectorResidual:
    def test_zero_gradients_give_zero_residual(self, bundle_k2d3):
        zero = CorrectorInputs(
            rho=1.3, grad_rho=np.zeros(3), u=U3, grad_u=np.zeros((3, 3))
        )
        assert max(corrector_channel_residuals(zero, bundle_k2d3).values()) == 0.0

    def test_transverse_density_gradient_isolates_one_channel(self, bundle_k2d3):
        inputs = CorrectorInputs(
            rho=1.3, grad_rho=np.array([0.7, -0.2, 0.0]), u=U3, grad_u=np.zeros((3, 3))
        )
        per = corrector_channel_residuals(inputs, bundle_k2d3)
        assert set(per) == {
            "density_gradient",
            "curvature",
            "parallel_gradient",
            "shear",
            "divergence",
        }
        assert 0.0 < per["density_gradient"] < 1e-5
        assert all(v == 0.0 for k, v in per.items() if k != "density_gradient")

    def test_residual_shrinks_under_profile_refinement(self, bundle_k2d3):
        gu = np.array([[0.1, 0.2, 0.0], [-0.05, 0.3, 0.0], [0.15, -0.1, 0.0]])
        inputs = CorrectorInputs(
            rho=0.8, grad_rho=np.array([0.4, -0.3, 0.6]), u=U3, grad_u=gu
        )
        coarse = solve_bundle(2.0, 3, 256)
        r_coarse = max(corrector_channel_residuals(inputs, coarse).values())
        r_fine = max(corrector_channel_residuals(inputs, bundle_k2d3).values())
        assert r_fine < 1e-5
        # near the 1e-10 floor quadrature error dilutes the clean profile
        # convergence order, so only a solid decrease is required
        assert r_coarse / r_fine > 2.0

    def test_defect_spline_reads_as_cubic_spline(self, bundle_k2d3, monkeypatch):
        gu = np.array([[0.1, 0.2, 0.0], [-0.05, 0.3, 0.0], [0.15, -0.1, 0.0]])
        inputs = CorrectorInputs(
            rho=0.8, grad_rho=np.array([0.4, -0.3, 0.6]), u=U3, grad_u=gu
        )
        per = corrector_channel_residuals(inputs, bundle_k2d3)
        monkeypatch.setattr(corrector, "_Spline", CubicSpline)
        assert per == corrector_channel_residuals(inputs, bundle_k2d3)

    def test_bundle_must_match_the_inputs(self, bundle_k2d3):
        planar = CorrectorInputs(
            rho=1.3, grad_rho=np.array([0.7, -0.2]), u=np.array([0.0, 1.0]),
            grad_u=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError, match="dimension 2"):
            corrector_channel_residuals(planar, bundle_k2d3)
        spatial = CorrectorInputs(
            rho=1.3, grad_rho=np.array([0.7, -0.2, 0.0]), u=U3, grad_u=np.zeros((3, 3))
        )
        mixed = {**bundle_k2d3, "a": solve_bundle(5.0, 3, 64)["a"]}
        with pytest.raises(ValueError, match="solved at"):
            corrector_channel_residuals(spatial, mixed)
