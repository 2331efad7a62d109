"""Unit-sphere geometry and normalized spherical quadrature.

The sphere S^{d-1} carries the normalized measure (total mass 1).  Writing
omega = r*u + sqrt(1-r^2)*z with r = omega.u and z on the equatorial sphere,
the measure factorizes as

    d(omega) = (1-r^2)^{(d-3)/2} dr / W_{d-2}  x  dz,

where dz is the normalized measure on S^{d-2} and W_m = int_0^pi sin^m t dt,
so W_0 = pi and W_1 = 2.  For d = 2 the equatorial sphere S^0 is two points,
each carrying half the counting measure.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gamma, pi, sqrt

import numpy as np
from scipy.special import roots_jacobi

from .constants import UNIT_TOL

_MAX_NODES = 2_000_000
"""Most nodes build_quadrature allocates; validate --suite gci at d = 4 uses 100^3."""


def angle_weight_norm(m: int) -> float:
    """W_m = int_0^pi sin^m(theta) dtheta; the sphere S^{d-1} takes m = d - 2."""
    if m < 0:
        raise ValueError(f"d >= 2 required, got d = {m + 2}")
    return sqrt(pi) * gamma((m + 1) / 2) / gamma(m / 2 + 1)


def assert_unit(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"direction norm {norm!r} deviates from 1 beyond {UNIT_TOL}")
    return v


def complete_basis(axis: np.ndarray) -> np.ndarray:
    """Orthonormal basis of axis-perp as columns of a (d, d-1) matrix.

    Householder reflection mapping e_1 to axis; deterministic for a given axis.
    """
    axis = np.asarray(axis, dtype=float)
    d = axis.size
    e1 = np.zeros(d)
    e1[0] = 1.0
    w = axis - e1 if axis[0] >= 0 else axis + e1
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        H = np.eye(d)
    else:
        w = w / nw
        H = np.eye(d) - 2.0 * np.outer(w, w)
    # columns 2..d of H are orthonormal and orthogonal to H e_1 = +-axis
    return H[:, 1:]


@dataclass(frozen=True)
class SphereQuadrature:
    """Product quadrature on S^{d-1} around an axis, normalized to total mass 1.

    nodes: (N, d) unit vectors; weights sum to 1.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def integrate(self, values: np.ndarray) -> float | np.ndarray:
        """Sum values against the weights (values indexed like nodes)."""
        return np.tensordot(self.weights, np.asarray(values), axes=(0, 0))


def _azimuthal_nodes(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on S^{d-2} embedded in R^{d-1}, normalized measure."""
    if d == 2:
        # S^0: two points, half the counting measure each
        return np.array([[1.0], [-1.0]]), np.array([0.5, 0.5])
    if d == 3:
        phi = 2.0 * pi * np.arange(n) / n
        z = np.stack([np.cos(phi), np.sin(phi)], axis=1)
        return z, np.full(n, 1.0 / n)
    sub_axis = np.zeros(d - 1)
    sub_axis[0] = 1.0
    sub = build_quadrature(d - 1, sub_axis, n)
    return sub.nodes, sub.weights


def build_quadrature(d: int, axis: np.ndarray, n: int) -> SphereQuadrature:
    """Gauss rule in r = omega.axis times a uniform equatorial rule.

    n is both the number of radial Gauss nodes and of equatorial nodes per
    circle.  The radial rule is Gaussian for the weight (1-r^2)^{(d-3)/2},
    so it integrates polynomials in r up to degree 2n - 1 exactly, and the
    equatorial rule is exact for trigonometric degree n - 1; for d > 3 the
    equatorial factor recurses.
    """
    if d < 2:
        raise ValueError("sphere dimension requires d >= 2")
    if n < 2:
        raise ValueError("n >= 2 required")
    count = 2 * n if d == 2 else n ** (d - 1)
    if count > _MAX_NODES:
        raise ValueError(
            f"sphere quadrature at d = {d}, n = {n} needs {count} nodes, "
            f"above the budget of {_MAX_NODES}"
        )
    axis = assert_unit(axis)
    alpha = (d - 3) / 2.0
    r, wr = roots_jacobi(n, alpha, alpha)
    wr = wr / wr.sum()
    z, wz = _azimuthal_nodes(d, n)
    B = complete_basis(axis)  # (d, d-1)
    perp = z @ B.T  # (nz, d)
    s = np.sqrt(np.clip(1.0 - r**2, 0.0, None))
    nodes = r[:, None, None] * axis[None, None, :] + s[:, None, None] * perp[None, :, :]
    weights = (wr[:, None] * wz[None, :]).reshape(-1)
    nodes = nodes.reshape(-1, d)
    return SphereQuadrature(nodes=nodes, weights=weights / weights.sum())
