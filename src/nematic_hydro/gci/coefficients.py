"""The sixteen transport coefficients of the limit system, two ways.

Both routes consume the six radial profiles at shared (kappa, d):

* compute_coefficients: direct quadrature of the averaged formulas, written
  as weighted means against q(theta) = E sin^{d-2}(theta) and
  s(theta) = E |h(cos theta) cos theta| sin^d(theta), E = exp(kappa cos^2/2).
  Terms carrying 1/cos(theta) are integrated with s's cos factor cancelled
  analytically (s/cos = -E h sin^d, using h(r) r <= 0), so no integrand is
  ever singular.
* compute_coefficients_derivation: building-block integrals of the profiles
  against the aligned equilibrium on Gauss-Jacobi nodes in r, assembled into
  ratios over the normalizer C0.  Independent of the first route in both
  formula shape and quadrature family, so their agreement checks the
  formulas and the quadrature.  Both routes read the same profiles and
  derivatives (the splines of gci.radial), so their agreement cannot see
  an error in those; a refinement of the profile resolution does.

Sign convention: the profiles are nonpositive where these formulas sample
them, so every raw average comes out nonpositive (flux form).  The exported
values are negated so the C/E/F families are the positive diffusivities that
appear on the right-hand side of the evolution form of the limit system.  C0
is reported raw (negative for kappa > 0).  The three auxiliary averages used
by the internal identities are flipped together with the coefficients; every
identity is homogeneous of degree one, so the identity defects are unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .equilibrium import make_equilibrium
from .radial import ALL_KINDS, RadialSolution, _bundle_parameters

COEFFICIENT_NAMES = (
    "C1", "C2", "C3", "C4",
    "E1", "F1", "F2", "F3",
    "G1", "G2", "G3", "G4",
    "H1", "H2", "H3", "H4",
    "C0",
)

DEFAULT_N_QUAD = 256


@dataclass(frozen=True)
class CoefficientSet:
    """Macroscopic transport coefficients with (kappa, d) metadata.

    C1..H4 follow the positive evolution-form convention described in the
    module docstring; C0 is the raw (negative) normalizer.  The three aux_*
    fields are the flux-weighted averages closing the identity system.
    """

    kappa: float
    d: int
    C1: float
    C2: float
    C3: float
    C4: float
    E1: float
    F1: float
    F2: float
    F3: float
    G1: float
    G2: float
    G3: float
    G4: float
    H1: float
    H2: float
    H3: float
    H4: float
    C0: float
    aux_k_over_cos: float
    aux_a_over_kappa: float
    aux_ke_combination: float

    def positive_block(self) -> dict[str, float]:
        """The coefficients asserted positive: C1..C4, E1, F1..F3."""
        return {n: getattr(self, n) for n in ("C1", "C2", "C3", "C4", "E1", "F1", "F2", "F3")}


def max_discrepancy(a: CoefficientSet, b: CoefficientSet) -> float:
    """Largest absolute coefficient-by-coefficient difference (all seventeen)."""
    return max(abs(getattr(a, n) - getattr(b, n)) for n in COEFFICIENT_NAMES)


def _coefficient_parameters(bundle: dict[str, RadialSolution]) -> tuple[float, int]:
    """The (kappa, d) all six profiles share; the formulas need kappa > 0."""
    kappa, d = _bundle_parameters(bundle, ALL_KINDS)
    if kappa <= 0:
        raise ValueError("coefficient formulas require kappa > 0")
    return kappa, d


def _profiles_at(bundle: dict[str, RadialSolution], x: np.ndarray) -> tuple[np.ndarray, ...]:
    """h, a, b, c, e, k and a', b', c', e', k' at x."""
    values = tuple(bundle[kind](x) for kind in "habcek")
    return values + tuple(bundle[kind].derivative(x) for kind in "abcek")


def _export(
    raw: dict[str, float], aux_raw: dict[str, float], kappa: float, d: int
) -> CoefficientSet:
    flipped = {n: -raw[n] for n in COEFFICIENT_NAMES if n != "C0"}
    return CoefficientSet(
        kappa=float(kappa),
        d=int(d),
        C0=raw["C0"],
        aux_k_over_cos=-aux_raw["k_over_cos"],
        aux_a_over_kappa=-aux_raw["a_over_kappa"],
        aux_ke_combination=-aux_raw["ke_combination"],
        **flipped,
    )


@lru_cache(maxsize=4)
def _theta_rule(n_quad: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, cos, sin) of the Gauss-Legendre rule in theta on (0, pi); cached, read-only."""
    xg, wg = leggauss(n_quad)
    th = 0.5 * np.pi * (xg + 1.0)
    out = (0.5 * np.pi * wg, np.cos(th), np.sin(th))
    for a in out:
        a.setflags(write=False)
    return out


def compute_coefficients(
    bundle: dict[str, RadialSolution], n_quad: int = DEFAULT_N_QUAD
) -> CoefficientSet:
    """Averaged-formula route at the bundle's (kappa, d), Gauss-Legendre in theta on (0, pi)."""
    w, ct, st = _theta_rule(n_quad)
    kappa, d = _coefficient_parameters(bundle)
    h, a, b, c, e, k, ap, bp, cp, ep, kp = _profiles_at(bundle, ct)
    E = np.exp(0.5 * kappa * ct**2)

    q = E * st ** (d - 2)
    s = E * np.abs(h * ct) * st**d
    s_over_cos = -E * h * st**d  # s/cos with the cos cancelled against |h cos|
    Iq = float((w * q).sum())
    Is = float((w * s).sum())

    def avg_q(f: np.ndarray) -> float:
        return float((w * q * f).sum()) / Iq

    def avg_s(f: np.ndarray) -> float:
        return float((w * s * f).sum()) / Is

    def avg_s_over_cos(f: np.ndarray) -> float:
        return float((w * s_over_cos * f).sum()) / Is

    dm1, dp1 = d - 1.0, d + 1.0
    raw: dict[str, float] = {}
    raw["C1"] = avg_q(c * ct)
    raw["C2"] = avg_q(a * st**2) / dm1
    raw["C3"] = kappa * avg_q(b * st**2) / dm1
    raw["C4"] = avg_q(kappa * ct * (e * st**2 / dm1 + k))
    raw["E1"] = (avg_s(a) + avg_s_over_cos(c)) / kappa
    raw["F1"] = avg_s(b)
    raw["F2"] = avg_s_over_cos(e * st**2) / dp1
    raw["F3"] = avg_s_over_cos(2.0 / dp1 * e * st**2 + k)
    raw["G1"] = avg_s(c * ct + b + (cp - a) / kappa)
    raw["G3"] = avg_s(st**2 / dp1 * a) + avg_s_over_cos(st**2 / dp1 * (e + ap / kappa))
    raw["G2"] = raw["G3"] - 2.0 * avg_s(a / kappa)
    raw["G4"] = avg_s_over_cos(k) + raw["G3"]
    raw["H1"] = raw["E1"]
    inner = avg_s(st**2 / dp1 * (kappa * e * ct + kappa * b + ep)) + avg_s_over_cos(
        st**2 / dp1 * bp
    )
    raw["H2"] = avg_s(-b - e * ct) + inner + avg_s_over_cos(st**2 / dp1 * e)
    raw["H3"] = avg_s(-e * ct) + inner
    raw["H4"] = avg_s(kappa * k * ct + kp) + inner
    raw["C0"] = kappa / dm1 * avg_q(h * ct * st**2)
    aux = {
        "k_over_cos": avg_s_over_cos(k),
        "a_over_kappa": avg_s(a / kappa),
        "ke_combination": avg_s((kappa * k + e) * ct + kp),
    }
    return _export(raw, aux, kappa, d)


def compute_coefficients_derivation(bundle: dict[str, RadialSolution]) -> CoefficientSet:
    """Building-block route at the bundle's (kappa, d), on the aligned equilibrium's rule in r."""
    kappa, d = _coefficient_parameters(bundle)
    eq = make_equilibrium(kappa, d)
    avg, rj = eq.average, eq.nodes
    h, a, b, c, e, k, ap, bp, cp, ep, kp = _profiles_at(bundle, rj)

    s2 = 1.0 - rj**2
    dm1, dp1 = d - 1.0, d + 1.0

    C0 = kappa / dm1 * avg(h * rj * s2)
    if abs(C0) < 1e-14:
        raise ArithmeticError("normalizer C0 vanished; h profile is broken")

    B11 = avg(h * ap * s2**2) / (dm1 * dp1)
    B12 = avg(h * a * rj * s2) / dm1
    B21 = kappa * avg(h * bp * s2**2) / (dm1 * dp1)
    B22 = kappa * avg(h * b * rj * s2) / dm1
    B31 = avg(h * cp * rj * s2) / dm1
    B32 = avg(h * c * s2) / dm1
    B41 = kappa * avg(h * ep * rj * s2**2) / (dm1 * dp1)
    B42 = kappa * avg(h * e * s2**2) / (dm1 * dp1)
    B43 = kappa * avg(h * e * rj**2 * s2) / dm1
    B51 = kappa * avg(h * kp * rj * s2) / dm1
    B52 = kappa * avg(h * k * s2) / dm1
    A11 = kappa * avg(h * c * rj**2 * s2) / dm1
    A12 = kappa**2 * avg(h * e * rj**2 * s2**2) / (dm1 * dp1)
    A13 = kappa**2 * avg(h * k * rj**2 * s2) / dm1
    A21 = kappa * avg(h * a * rj * s2**2) / (dm1 * dp1)
    A22 = kappa**2 * avg(h * b * rj * s2**2) / (dm1 * dp1)

    raw: dict[str, float] = {"C0": C0}
    raw["C1"] = avg(c * rj)
    raw["C2"] = avg(a * s2) / dm1
    raw["C3"] = kappa * avg(b * s2) / dm1
    raw["C4"] = kappa * avg(rj * (e * s2 / dm1 + k))
    raw["E1"] = (B12 + B32) / C0
    raw["F1"] = B22 / C0
    raw["F2"] = B42 / C0
    raw["F3"] = (2.0 * B42 + B52) / C0
    raw["G1"] = (A11 + B22 + B31 - B12) / C0
    raw["G2"] = (-2.0 * B12 + B42 + A21 + B11) / C0
    raw["G3"] = (B42 + A21 + B11) / C0
    raw["G4"] = (B52 + B42 + A21 + B11) / C0
    raw["H1"] = (B32 + B12) / C0
    raw["H2"] = (-B22 - B43 + A12 + A22 + B21 + B41 + B42) / C0
    raw["H3"] = (-B43 + A12 + A22 + B21 + B41) / C0
    raw["H4"] = (A13 + B51 + A12 + A22 + B21 + B41) / C0
    # the same averages expressed through the blocks; identity six is then
    # structural here, which is intended: this route is the oracle
    aux = {
        "k_over_cos": B52 / C0,
        "a_over_kappa": B12 / C0,
        "ke_combination": (A13 + B43 + B51) / C0,
    }
    return _export(raw, aux, kappa, d)
