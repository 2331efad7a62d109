"""Aligned angular equilibrium M_u(omega) = exp((kappa/2)(omega.u)^2) / Z."""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi

from ..sphere import angle_weight_norm


@dataclass(frozen=True)
class Equilibrium:
    """Normalized aligned equilibrium on S^{d-1}, with its quadrature in r = omega.u.

    Z is the normalization against the normalized sphere measure, so the
    density integrates to exactly 1; it depends on omega only through
    (omega.u)^2, hence is invariant under omega -> -omega and under the sign
    choice of the axis u.  nodes and weights are the Gauss-Jacobi rule in r
    behind Z, the weights already multiplied by exp((kappa/2) r^2); average
    integrates functions of r against M with them.
    """

    kappa: float
    d: int
    Z: float
    nodes: np.ndarray = field(compare=False, repr=False)
    weights: np.ndarray = field(compare=False, repr=False)

    def density(self, r: np.ndarray) -> np.ndarray:
        """M as a function of r = omega.u."""
        return np.exp(0.5 * self.kappa * np.asarray(r, dtype=float) ** 2) / self.Z

    def average(self, values_at_nodes: np.ndarray) -> float:
        """Sphere average against M of a function of r, given at the nodes."""
        return float((self.weights * values_at_nodes).sum()) / float(self.weights.sum())


def _exp_weight(kappa: float, r: np.ndarray) -> np.ndarray:
    """exp(kappa r^2 / 2); where it overflows, ArithmeticError naming kappa.

    Raising at the first overflow keeps numpy's warnings off stderr.
    """
    try:
        with np.errstate(over="raise"):
            return np.exp(0.5 * kappa * r**2)
    except FloatingPointError:
        raise ArithmeticError(f"exp(kappa r^2 / 2) overflows at kappa = {kappa}") from None


_N_QUAD = 256
"""Nodes of the Gauss-Jacobi rule behind Z."""


@lru_cache(maxsize=None)
def make_equilibrium(kappa: float, d: int) -> Equilibrium:
    """Compute Z = int exp((kappa/2) r^2) d(omega) by a Gauss rule.

    The radial rule is exact for the (1-r^2)^{(d-3)/2} measure; the Jacobi
    weights sum to the unnormalized measure, so dividing by W_{d-2} gives the
    normalized Z.  kappa = 0 yields Z = 1 and the uniform density.  Results
    are cached per argument tuple; Equilibrium is frozen and its arrays are
    read-only, so sharing is safe.
    """
    if kappa < 0:
        raise ValueError("kappa >= 0 required")
    if d < 2:
        raise ValueError("d >= 2 required")
    alpha = (d - 3) / 2.0
    r, w = roots_jacobi(_N_QUAD, alpha, alpha)
    E = _exp_weight(kappa, r)
    Z = float(w @ E) / angle_weight_norm(d - 2)
    weights = w * E
    r.flags.writeable = weights.flags.writeable = False
    return Equilibrium(kappa=float(kappa), d=int(d), Z=Z, nodes=r, weights=weights)
