"""Generalized collision invariants and the first-order kinetic corrector.

The corrector is the order-one term of the small-scale expansion of the
kinetic density around a local equilibrium rho * M_u.  It is assembled from
the radial profiles and the local hydrodynamic gradients: two channels even
in (omega . u) and odd in omega_perp (driven by the transverse density
gradient and by the curvature (u . grad) u), three channels of the opposite
parity (parallel density gradient, transverse shear, divergence).  One
routine forms every channel's term; the corrector sums the terms, and the
strong-form residual study reads each one with the radial defect in place
of the profile.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..sphere import assert_unit, build_quadrature
from .equilibrium import make_equilibrium
from .radial import RadialSolution, _Spline, _bundle_parameters, strong_defect

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


def _defect_spline(sol: RadialSolution, r: np.ndarray) -> np.ndarray:
    """The spline of the profile's strong-form defect, read at r clipped to its nodes."""
    rr, defect = strong_defect(sol)
    return _Spline(rr, defect)(np.clip(r, rr.min(), rr.max()))


def _channel_terms(
    inputs: CorrectorInputs,
    bundle: dict[str, RadialSolution],
    omega: np.ndarray,
    radial: Callable[[RadialSolution, np.ndarray], np.ndarray],
) -> dict[str, np.ndarray]:
    """Each channel's term rho * M_u(r) * radial(profile, r) * envelope at omega, r = omega . u.

    Keyed like CORRECTOR_CHANNELS, formed in that order of products.  M_u is
    the equilibrium at the (kappa, d) that the five channel profiles and the
    inputs share.  Accepts a single orientation (d,) or a stack (m, d);
    every term has the shape of omega . u.
    """
    kappa, d = _bundle_parameters(bundle, CORRECTOR_KINDS)
    if inputs.u.shape[0] != d:
        raise ValueError(f"inputs of dimension {inputs.u.shape[0]}, profiles of d = {d}")
    omega = np.asarray(omega, dtype=float)
    u = inputs.u
    r = omega @ u
    omega_perp = omega - np.multiply.outer(r, u)
    grad_log_rho = inputs.grad_rho / inputs.rho
    curvature = u @ inputs.grad_u  # (u . grad) u
    envelopes = {
        "a": omega_perp @ grad_log_rho,
        "b": kappa * (omega_perp @ curvature),
        "c": np.full(r.shape, float(u @ grad_log_rho)),
        "e": kappa * np.einsum("...i,ij,...j->...", omega_perp, inputs.grad_u, omega_perp),
        "k": np.full(r.shape, kappa * float(np.trace(inputs.grad_u))),
    }
    weight = inputs.rho * make_equilibrium(kappa, d).density(r)
    return {kind: weight * radial(bundle[kind], r) * envelopes[kind] for kind in CORRECTOR_KINDS}


def corrector_f1(
    inputs: CorrectorInputs, bundle: dict[str, RadialSolution], omega: np.ndarray
) -> float | np.ndarray:
    """Pointwise corrector value, the sum of the five channel terms, M_u at the bundle's (kappa, d).

    Accepts a single orientation (d,) or a stack (m, d).  Under quadrature
    the result integrates to zero against 1/M_u and leaves the transverse
    second moment aligned with u (both within 1e-8 at default resolution).
    """
    out = sum(_channel_terms(inputs, bundle, omega, RadialSolution.__call__).values())
    return float(out) if out.ndim == 0 else out


def corrector_channel_residuals(
    inputs: CorrectorInputs, bundle: dict[str, RadialSolution]
) -> dict[str, float]:
    """Sup-norm defect of each corrector channel over quadrature nodes.

    Applying the frozen-axis collision operator to one channel of the
    corrector reproduces that channel's radial operator exactly, times the
    channel's angular envelope; the pointwise defect therefore factorizes
    into (radial strong-form defect) x (envelope) x (gradient activity),
    weighted by the equilibrium density.  The profiles satisfy reduced
    equations with D scaled out, so D enters only through the bundle's
    kappa; the defect is reported in that normalization.
    """
    quad = build_quadrature(inputs.u.shape[0], inputs.u, 96)
    terms = _channel_terms(inputs, bundle, quad.nodes, _defect_spline)
    return {name: float(np.max(np.abs(terms[kind]))) for kind, name in CORRECTOR_CHANNELS.items()}
