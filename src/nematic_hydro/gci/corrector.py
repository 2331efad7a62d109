"""Generalized collision invariants and the first-order kinetic corrector.

The corrector is the order-one term of the small-scale expansion of the
kinetic density around a local equilibrium rho * M_u.  It is assembled from
the radial profiles and the local hydrodynamic gradients: two channels even
in (omega . u) and odd in omega_perp (driven by the transverse density
gradient and by the curvature (u . grad) u), three channels of the opposite
parity (parallel density gradient, transverse shear, divergence).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sphere import assert_unit
from .equilibrium import Equilibrium, make_equilibrium
from .radial import RadialSolution, _bundle_parameters

CORRECTOR_CHANNELS = {
    "a": "density_gradient",
    "b": "curvature",
    "c": "parallel_gradient",
    "e": "shear",
    "k": "divergence",
}
"""Profile kind of each corrector channel -> the channel's name in reports."""

CORRECTOR_KINDS = tuple(CORRECTOR_CHANNELS)

TANGENCY_TOL = 1e-10


def gci_vector(h_sol: RadialSolution, u: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Vector collision invariant h(omega . u) * P_{u_perp} omega.

    Odd both under omega -> -omega and under reflection of the transverse
    part; returns the zero vector at omega = +-u.
    """
    if h_sol.kind != "h":
        raise ValueError(f"gci_vector needs the h profile, got {h_sol.kind!r}")
    u = np.asarray(u, dtype=float)
    omega = np.asarray(omega, dtype=float)
    assert_unit(u)
    r = omega @ u
    omega_perp = omega - np.multiply.outer(r, u)
    return omega_perp * np.expand_dims(h_sol(r), -1)


@dataclass(frozen=True)
class CorrectorInputs:
    """Local hydrodynamic state feeding the corrector.

    grad_u uses the convention grad_u[i, j] = d u_j / d x_i; tangency
    (grad_u) u = 0 holds row-contracted against the second index.
    """

    rho: float
    grad_rho: np.ndarray
    u: np.ndarray
    grad_u: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "grad_rho", np.asarray(self.grad_rho, dtype=float))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        object.__setattr__(self, "grad_u", np.asarray(self.grad_u, dtype=float))
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        d = self.u.shape[0]
        if self.grad_rho.shape != (d,) or self.grad_u.shape != (d, d):
            raise ValueError("gradient shapes do not match the direction dimension")
        assert_unit(self.u)
        defect = float(np.max(np.abs(self.grad_u @ self.u)))
        if defect > TANGENCY_TOL:
            raise ValueError(f"(grad u) u = 0 violated by {defect:.2e}")


def channel_envelopes(
    inputs: CorrectorInputs, kappa: float, omega: np.ndarray
) -> dict[str, np.ndarray]:
    """Angular envelope of each corrector channel at the orientations omega.

    Channel kind of the corrector is rho * M_u * (profile kind at omega.u)
    times its envelope, keyed like CORRECTOR_CHANNELS.  Accepts a single
    orientation (d,) or a stack (m, d); every envelope has the shape of
    omega . u.
    """
    omega = np.asarray(omega, dtype=float)
    u = inputs.u
    r = omega @ u
    omega_perp = omega - np.multiply.outer(r, u)
    grad_log_rho = inputs.grad_rho / inputs.rho
    curvature = u @ inputs.grad_u  # (u . grad) u
    div_u = float(np.trace(inputs.grad_u))
    return {
        "a": omega_perp @ grad_log_rho,
        "b": kappa * (omega_perp @ curvature),
        "c": np.full(r.shape, float(u @ grad_log_rho)),
        "e": kappa * np.einsum("...i,ij,...j->...", omega_perp, inputs.grad_u, omega_perp),
        "k": np.full(r.shape, kappa * div_u),
    }


def _validate_corrector_bundle(
    inputs: CorrectorInputs, bundle: dict[str, RadialSolution]
) -> Equilibrium:
    """The equilibrium at the (kappa, d) the five channel profiles and the inputs share."""
    kappa, d = _bundle_parameters(bundle, CORRECTOR_KINDS)
    if inputs.u.shape[0] != d:
        raise ValueError(f"inputs of dimension {inputs.u.shape[0]}, profiles of d = {d}")
    return make_equilibrium(kappa, d)


def corrector_f1(
    inputs: CorrectorInputs, bundle: dict[str, RadialSolution], omega: np.ndarray
) -> float | np.ndarray:
    """Pointwise corrector value rho * M_u(omega) * (channel sum), M_u at the bundle's (kappa, d).

    Accepts a single orientation (d,) or a stack (m, d).  Under quadrature
    the result integrates to zero against 1/M_u and leaves the transverse
    second moment aligned with u (both within 1e-8 at default resolution).
    """
    eq = _validate_corrector_bundle(inputs, bundle)
    envelopes = channel_envelopes(inputs, eq.kappa, omega)
    r = np.asarray(omega, dtype=float) @ inputs.u
    channel_sum = sum(bundle[kind](r) * envelopes[kind] for kind in CORRECTOR_KINDS)
    out = inputs.rho * eq.density(r) * channel_sum
    return float(out) if out.ndim == 0 else out
