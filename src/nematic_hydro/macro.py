"""Periodic-grid integrator for the limiting density/direction system.

State: a positive density rho and a unit direction u on a periodic cubic
lattice in d = 2 or 3 spatial dimensions.  The density evolves as a
conservation law

    d_t rho = -div J,
    J = -(C1 (u.grad rho) u + C2 P grad rho + C3 rho (u.grad)u
          + C4 (div u) rho u),

and the direction as d_t u = (1/rho) * (sum of twelve tangent terms) built
from the E/F/G/H coefficients of a CoefficientSet (positive convention).
P = I - u u^T is the nodewise projector orthogonal to u.

Spatial derivatives are centered second-order differences on the periodic
lattice; second derivatives are composed first differences.  The stepper
takes raw differences, roll(-1) - roll(1), without the 1/(2 dx): every term
of both rates carries exactly two of them (the system is diffusive), so
each rate is scaled once, the density rate by (1/(2 dx))^2 and the
direction rate by (1/(2 dx))^2 / rho in place of its division by rho.  The
divergence in the density update is the flux-difference (adjoint) form, so
the lattice sum of rho changes only by rounding.  Terms in the direction
equation whose orthogonality to u holds only up to truncation error are
wrapped in the exact nodewise projector; the assembled right-hand side is
then tangent to rounding accuracy, not just to O(dx^2).

Time stepping is Heun's method (explicit RK2) with nodewise renormalization
of u after each stage.  The continuous system preserves |u| = 1 exactly, so
the pre-projection norm drift per step is O(dt^2); _heun returns the drift
with the step so refinement studies can confirm it.

The rate assembly works on lists of contiguous component planes rather than
stacked (..., d) arrays: slicing a stacked array per component is strided
and several times slower, and the stepping loop is the hot path.  A
MacroField holds u component-major, so its planes are views.  Every
intermediate of a step is written into 64-byte aligned planes that its
MacroConfig keeps across steps (_Planes), so a step allocates only the
fields it returns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .constants import RHO_FLOOR, UNIT_TOL
from .gci.coefficients import CoefficientSet

__all__ = [
    "BLOWUP_LIMIT",
    "BlowUpDetected",
    "CflViolation",
    "DIMENSIONS",
    "MacroConfig",
    "MacroField",
    "appendix_identity_residual",
    "auxiliary_operator_checks",
    "rotate_quarter_turn",
    "step",
]

BLOWUP_LIMIT = 1e6
"""Any field magnitude beyond this (or a non-finite value) halts the run."""

DIMENSIONS = (2, 3)
"""The lattice and coefficient dimensions the stepper supports."""


class CflViolation(ValueError):
    """Requested time step exceeds the diffusive stability bound."""


class BlowUpDetected(ArithmeticError):
    """Fields left the trusted range; ellipticity is not guaranteed.

    Raised for magnitudes beyond BLOWUP_LIMIT or non-finite values, for a
    direction that collapses before renormalization, and for a density
    below the positivity floor.
    """


@dataclass(frozen=True)
class MacroField:
    """Density and unit direction sampled on a periodic lattice.

    rho has shape (n,)*d, u has shape (n,)*d + (d,); the number of grid axes
    equals the number of direction components.  dx is the lattice spacing.
    Construction checks shapes only; validate() checks the value invariants
    (finite rho > 0 and |u| = 1 within UNIT_TOL).

    u is held component-major, a stacked (..., d) view of one C-contiguous
    (d, ...) array, so each component is a contiguous plane.  A u already in
    that layout, as step returns it, is kept without a copy; any other u is
    copied into it once.
    """

    rho: np.ndarray
    u: np.ndarray
    dx: float
    time: float = 0.0

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=float)
        u = np.asarray(self.u, dtype=float)
        if rho.ndim < 2:
            raise ValueError("density must live on a lattice of dimension >= 2")
        if u.shape != rho.shape + (rho.ndim,):
            raise ValueError(
                f"direction shape {u.shape} does not match density shape {rho.shape}"
            )
        if not self.dx > 0:
            raise ValueError("lattice spacing must be positive")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(
            self, "u", np.moveaxis(np.ascontiguousarray(np.moveaxis(u, -1, 0)), 0, -1)
        )

    @property
    def spatial_dim(self) -> int:
        return self.rho.ndim

    def mass(self) -> float:
        """Total mass sum(rho) * dx^d."""
        return float(self.rho.sum() * self.dx**self.spatial_dim)

    def validate(self) -> None:
        if not np.all((self.rho > 0) & (self.rho < np.inf)):
            raise ValueError("density must be positive and finite everywhere")
        norms = np.linalg.norm(self.u, axis=-1)
        worst = float(np.abs(norms - 1.0).max())
        if not worst <= UNIT_TOL:  # false for NaN too
            raise ValueError(f"direction norms deviate from 1 by {worst:.3e}")


def _cfl_bound(coefficients: CoefficientSet, dx: float, cfl_safety: float) -> float:
    """cfl_safety * dx^2 / c_max, c_max the largest positive diffusion coefficient."""
    c_max = max(coefficients.positive_block().values())
    return cfl_safety * dx**2 / c_max


@dataclass(frozen=True)
class MacroConfig:
    """Time-integration parameters tied to one CoefficientSet.

    The lattice dimension is the coefficient dimension d, 2 or 3.  The
    stability bound is diffusive: dt <= cfl_safety * dx^2 / c_max on a field
    of spacing dx, c_max the largest of the positive diffusion coefficients
    (C1..C4, E1, F1..F3).  step() refuses a field on which dt violates it;
    at_cfl() builds the config whose dt is that bound at a given dx.

    A config also keeps the scratch planes of its steps (_Planes), so two
    threads should not step with one config at the same time.
    """

    coefficients: CoefficientSet
    dt: float
    cfl_safety: float = 0.25
    _planes: _Planes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.coefficients.d not in DIMENSIONS:
            raise ValueError(f"coefficient dimension {self.coefficients.d} is not in {DIMENSIONS}")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")

    @classmethod
    def at_cfl(
        cls, coefficients: CoefficientSet, dx: float, cfl_safety: float
    ) -> MacroConfig:
        """The config whose dt equals the bound cfl_safety * dx^2 / c_max."""
        return cls(coefficients, _cfl_bound(coefficients, dx, cfl_safety), cfl_safety)

    def _planes_for(self, shape: tuple[int, ...]) -> _Planes:
        """This config's planes, replaced when the lattice shape changes."""
        if self._planes is None or self._planes.shape != shape:
            object.__setattr__(self, "_planes", _Planes(shape))
        return self._planes


def _ddx(arr: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Raw centered periodic difference along one lattice axis.

    The values of roll(arr, -1) - roll(arr, 1), unscaled, written into out
    (C-contiguous, not arr) without the two shifted copies.  The interior
    difference is one subtraction over the flat array, offset by the axis
    stride, which is contiguous; the two wrapped end slabs of the axis are
    then written over it.
    """
    src = np.ascontiguousarray(arr)
    if out is None:
        out = np.empty_like(src)
    n, stride = src.shape[axis], math.prod(src.shape[axis + 1 :])
    flat = src.reshape(-1)
    np.subtract(flat[2 * stride :], flat[: -2 * stride], out=out.reshape(-1)[stride:-stride])
    src3 = src.reshape(-1, n, stride)
    out3 = out.reshape(src3.shape)
    np.subtract(src3[:, 1 % n], src3[:, -1], out=out3[:, 0])
    np.subtract(src3[:, 0], src3[:, (n - 2) % n], out=out3[:, -1])
    return out


def _grad(f: np.ndarray, d: int, dx: float) -> np.ndarray:
    """Centered gradient of a field on a d-axis lattice, trailing axes its
    components: [..., i, *c] = d_i f[..., *c] (the identity checks' route)."""
    return np.stack([_ddx(f, i) for i in range(d)], axis=d) / (2.0 * dx)


def _empty(shape: tuple[int, ...]) -> np.ndarray:
    """np.empty(shape) starting on a 64-byte boundary.

    A plane operation whose output starts off a cache line stores every
    vector across two lines: on an AVX-512 Xeon it ran at half speed
    (13 against 7 us on a 128^2 plane), whatever the inputs' alignment.
    """
    size = math.prod(shape)
    buf = np.empty(size + 7)
    start = -buf.ctypes.data % 64 // 8
    return buf[start : start + size].reshape(shape)


class _Planes(dict):
    """Lattice planes by name for the intermediates of a step, kept across
    the steps of one MacroConfig.

    Allocating some sixty fresh lattice arrays per stage costs time of its
    own, and glibc may hand the freed top of its heap back to the system at
    the end of a stage and fault it in again in the next: on a 128^2 lattice
    an allocating version of this code took 1100-1600 minor page faults per
    step, the planes none.  Planes are overwritten by the next call, so
    nothing returned to a caller may be one of them.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        super().__init__()
        self.shape = shape

    def __missing__(self, key) -> np.ndarray:
        plane = self[key] = _empty(self.shape)
        return plane

    def vec(self, name) -> list[np.ndarray]:
        return [self[name, i] for i in range(len(self.shape))]


def _sum_of_products(out: np.ndarray, terms, tmp: np.ndarray) -> np.ndarray:
    """out = a0 b0 + a1 b1 + ..., summed left to right; tmp is scratch."""
    (a, b), *rest = terms
    np.multiply(a, b, out=out)
    for a, b in rest:
        out += np.multiply(a, b, out=tmp)
    return out


def _remove_along(out, vec, u, along: np.ndarray) -> list[np.ndarray]:
    """out[i] = vec[i] - u[i] along; the exact projection when along = u.vec."""
    for o, v, comp in zip(out, vec, u):
        np.subtract(v, np.multiply(comp, along, out=o), out=o)
    return out


def _norms_into(out: np.ndarray, u: list[np.ndarray], tmp: np.ndarray) -> np.ndarray:
    _sum_of_products(out, [(comp, comp) for comp in u], tmp)
    return np.sqrt(out, out=out)


def _renormalize_into(out, u: list[np.ndarray], norms: np.ndarray) -> None:
    if float(norms.min()) < 0.5:
        raise BlowUpDetected(
            "direction magnitude collapsed below 0.5 before renormalization"
        )
    for o, comp in zip(out, u):
        np.divide(comp, norms, out=o)


def _pieces(rho: np.ndarray, u: list[np.ndarray], w: _Planes) -> tuple:
    """Shared first derivatives: (gr, gu, div_u, curv, udr, p_gr), each
    2 dx times its value (raw differences).

    gr[i] = d_i rho, gu[i][j] = d_i u_j, curv = (u.grad)u, udr = u.grad rho,
    p_gr = P grad rho.
    """
    d, tmp = len(u), w["tmp"]
    gr = [_ddx(rho, i, out=w["gr", i]) for i in range(d)]
    gu = [[_ddx(u[j], i, out=w["gu", i, j]) for j in range(d)] for i in range(d)]
    div_u = np.add(gu[0][0], gu[1][1], out=w["div_u"])
    for i in range(2, d):
        div_u += gu[i][i]
    curv = [
        _sum_of_products(w["curv", j], [(u[i], gu[i][j]) for i in range(d)], tmp)
        for j in range(d)
    ]
    udr = _sum_of_products(w["udr"], zip(u, gr), tmp)
    p_gr = _remove_along(w.vec("p_gr"), gr, u, udr)
    return gr, gu, div_u, curv, udr, p_gr


def _density_rate_into(out, rho, u, dx, coeffs, pieces, w) -> np.ndarray:
    """-div J = sum_i d_i bracket_i (J = -bracket) in flux-difference form,
    so the lattice sum telescopes."""
    _, _, div_u, curv, udr, p_gr = pieces
    tmp, bracket = w["tmp"], w["bracket"]
    c1_udr = np.multiply(coeffs.C1, udr, out=w["c1_udr"])
    c3_rho = np.multiply(coeffs.C3, rho, out=w["c3_rho"])
    c4_divr = np.multiply(div_u, rho, out=w["c4_divr"])
    c4_divr *= coeffs.C4
    for i in range(len(u)):
        terms = [(c1_udr, u[i]), (coeffs.C2, p_gr[i]), (c3_rho, curv[i]), (c4_divr, u[i])]
        _sum_of_products(bracket, terms, tmp)
        if i == 0:
            _ddx(bracket, 0, out=out)
        else:
            out += _ddx(bracket, i, out=tmp)
    out *= (0.5 / dx) ** 2
    return out


def _direction_rate_into(out, rho, u, dx, coeffs, pieces, w) -> list[np.ndarray]:
    """d_t u into out: the twelve-term tangent right-hand side divided by rho;
    overwrites gu with B.

    Term inventory (positive convention, all twelve odd in u):
      E1 P grad(u.grad rho)
      F1 rho P (u.grad)((u.grad)u)      F2 rho P div(P grad u)
      F3 rho P grad(div u)
      G1 (u.grad rho)(u.grad)u          G2 (P grad u)(P grad rho)
      G3 (P grad u)^T (P grad rho)      G4 (div u) P grad rho
      H1 (u.grad rho / rho)(P grad rho) H2 rho (P grad u)((u.grad)u)
      H3 rho (P grad u)^T ((u.grad)u)   H4 rho (div u)(u.grad)u

    The logarithmic derivative in H1 is computed as (u.grad rho)/rho, hence
    the hard positivity floor.  B = P grad u is tangent in its first slot by
    construction; the remaining non-structural terms are P-wrapped.

    The projector is linear and commutes with nodewise scalars, so the six
    P-wrapped terms share one projection, and the G2/H2 and G3/H3 pairs
    share one contraction with B each, e.g.
        G3 P(B^T p_gr) + H3 rho P(B^T curv_t) = P(B^T (G3 p_gr + H3 rho curv_t)).
    """
    rho_min = float(rho.min())
    if rho_min < RHO_FLOOR:
        raise BlowUpDetected(
            f"density {rho_min:.3e} below positivity floor {RHO_FLOOR:g}"
        )
    _, b_mat, div_u, curv, udr, p_gr = pieces
    d = len(u)
    tmp, tmp2, scaled, along = w["tmp"], w["tmp2"], w["scaled"], w["along"]
    inv_rho = np.divide(1.0, rho, out=w["inv_rho"])
    slot, wrapped = w.vec("slot"), w.vec("wrapped")

    curv_t = _remove_along(
        w.vec("curv_t"), curv, u, _sum_of_products(along, zip(u, curv), tmp)
    )
    for i in range(d):
        for j in range(d):
            b_mat[i][j] -= np.multiply(u[i], curv[j], out=tmp)

    # tangent already: B (G2 p_gr + H2 rho curv_t), as B = P grad u has a
    # tangent first slot, and multiples of curv_t and of p_gr
    np.multiply(coeffs.H2, rho, out=scaled)
    for j in range(d):
        _sum_of_products(slot[j], [(coeffs.G2, p_gr[j]), (scaled, curv_t[j])], tmp)
    for i in range(d):
        _sum_of_products(out[i], [(b_mat[i][j], slot[j]) for j in range(d)], tmp)
    np.multiply(coeffs.H4, rho, out=scaled)
    scaled *= div_u
    scaled += np.multiply(coeffs.G1, udr, out=tmp)
    for i in range(d):
        out[i] += np.multiply(scaled, curv_t[i], out=tmp)
    np.multiply(coeffs.H1, udr, out=scaled)
    scaled *= inv_rho
    scaled += np.multiply(coeffs.G4, div_u, out=tmp)
    for i in range(d):
        out[i] += np.multiply(scaled, p_gr[i], out=tmp)

    # wrapped: B^T (G3 p_gr + H3 rho curv_t), E1 grad(u.grad rho),
    # F1 rho (u.grad) curv_t, F2 rho div B and F3 rho grad div u
    np.multiply(coeffs.H3, rho, out=scaled)
    for j in range(d):
        _sum_of_products(slot[j], [(coeffs.G3, p_gr[j]), (scaled, curv_t[j])], tmp)
    for i in range(d):
        _sum_of_products(wrapped[i], [(slot[j], b_mat[j][i]) for j in range(d)], tmp)
        wrapped[i] += np.multiply(coeffs.E1, _ddx(udr, i, out=tmp), out=tmp)
    np.multiply(coeffs.F1, rho, out=scaled)
    for i in range(d):
        np.multiply(u[0], _ddx(curv_t[i], 0, out=tmp2), out=tmp2)
        for k in range(1, d):
            tmp2 += np.multiply(u[k], _ddx(curv_t[i], k, out=tmp), out=tmp)
        wrapped[i] += np.multiply(scaled, tmp2, out=tmp2)
    np.multiply(coeffs.F2, rho, out=scaled)
    for i in range(d):
        _ddx(b_mat[0][i], 0, out=tmp2)
        for k in range(1, d):
            tmp2 += _ddx(b_mat[k][i], k, out=tmp)
        wrapped[i] += np.multiply(scaled, tmp2, out=tmp2)
    np.multiply(coeffs.F3, rho, out=scaled)
    for i in range(d):
        wrapped[i] += np.multiply(scaled, _ddx(div_u, i, out=tmp2), out=tmp2)
    _sum_of_products(along, zip(u, wrapped), tmp)
    inv_rho *= (0.5 / dx) ** 2  # both difference scales and the division by rho
    for i in range(d):
        out[i] += np.subtract(wrapped[i], np.multiply(u[i], along, out=tmp), out=tmp)
        out[i] *= inv_rho
    return out


def _stage_rates(drho, du, rho, u, dx, coeffs, w) -> None:
    """Both time derivatives with the shared gradients computed once."""
    pieces = _pieces(rho, u, w)
    _density_rate_into(drho, rho, u, dx, coeffs, pieces, w)
    _direction_rate_into(du, rho, u, dx, coeffs, pieces, w)


def _check_in_range(rho, u: list[np.ndarray], when: str) -> None:
    """Raise unless every plane lies in [-BLOWUP_LIMIT, BLOWUP_LIMIT];
    the comparisons are false for NaN, so a NaN anywhere raises too."""
    for x in [rho, *u]:
        lo, hi = float(x.min()), float(x.max())
        if not (lo >= -BLOWUP_LIMIT and hi <= BLOWUP_LIMIT):
            raise BlowUpDetected(
                f"field values in [{lo:.3e}, {hi:.3e}] outside trusted range {when}"
            )


def _unit_defect(norms: np.ndarray) -> float:
    return max(float(norms.max()) - 1.0, 1.0 - float(norms.min()))


def _heun(fields: MacroField, config: MacroConfig) -> tuple[MacroField, float]:
    """The step and the largest | |u|-1 | of its stage combinations before
    renormalizing.  The stage slopes are tangent, so |u + dt k|^2 =
    1 + dt^2 |k|^2 and the drift shrinks at O(dt^2) under time-step
    refinement (the Euler predictor dominates)."""
    coeffs, dt, dx = config.coefficients, config.dt, fields.dx
    rho0 = fields.rho
    w = config._planes_for(rho0.shape)
    tmp, norms = w["tmp"], w["norms"]
    u0 = list(np.moveaxis(fields.u, -1, 0))
    d = len(u0)

    k1_rho, k1_u = w["k1_rho"], w.vec("k1_u")
    _stage_rates(k1_rho, k1_u, rho0, u0, dx, coeffs, w)
    rho_mid = np.multiply(dt, k1_rho, out=w["rho_mid"])
    rho_mid += rho0
    u_mid = w.vec("u_mid")
    for i in range(d):
        np.multiply(dt, k1_u[i], out=u_mid[i])
        u_mid[i] += u0[i]
    _check_in_range(rho_mid, u_mid, f"in the predictor at t={fields.time:g}")
    drift = _unit_defect(_norms_into(norms, u_mid, tmp))
    u_unit = w.vec("u_unit")
    _renormalize_into(u_unit, u_mid, norms)

    k2_rho, k2_u = w["k2_rho"], w.vec("k2_u")
    _stage_rates(k2_rho, k2_u, rho_mid, u_unit, dx, coeffs, w)
    rho_new = np.add(k1_rho, k2_rho, out=_empty(rho0.shape))
    rho_new *= 0.5 * dt
    rho_new += rho0
    u_raw = u_mid
    for i in range(d):
        np.add(k1_u[i], k2_u[i], out=u_raw[i])
        u_raw[i] *= 0.5 * dt
        u_raw[i] += u0[i]
    _check_in_range(rho_new, u_raw, f"after the step at t={fields.time:g}")
    drift = max(drift, _unit_defect(_norms_into(norms, u_raw, tmp)))
    u_new = _empty((d,) + rho0.shape)  # the planes of a component-major u
    _renormalize_into(u_new, u_raw, norms)
    out = replace(fields, rho=rho_new, u=np.moveaxis(u_new, 0, -1), time=fields.time + dt)
    return out, drift


def step(fields: MacroField, config: MacroConfig) -> MacroField:
    """One Heun step; u is renormalized nodewise after each stage."""
    if fields.spatial_dim != config.coefficients.d:
        raise ValueError(
            f"field dimension {fields.spatial_dim} does not match the "
            f"coefficient dimension {config.coefficients.d}"
        )
    bound = _cfl_bound(config.coefficients, fields.dx, config.cfl_safety)
    if config.dt > bound:
        raise CflViolation(
            f"dt={config.dt:.3e} exceeds the diffusive bound "
            f"{bound:.3e} (= {config.cfl_safety:g} * dx^2 / c_max)"
        )
    return _heun(fields, config)[0]


def rotate_quarter_turn(fields: MacroField) -> MacroField:
    """Quarter-turn lattice rotation of both fields in the (x_1, x_2) plane.

    Grid points and vector components rotate together (about the grid
    center, e_1 -> e_2, e_2 -> -e_1), so stepping commutes with this map up
    to summation-order rounding.
    """
    # np.rot90 places values so that m'[x'] = m[R^-1 x'] for the quarter
    # turn R: delta_1 -> delta_2, delta_2 -> -delta_1 about the grid center.
    rho_r = np.rot90(fields.rho, k=1, axes=(0, 1)).copy()
    u_r = np.rot90(fields.u, k=1, axes=(0, 1))
    u_new = u_r.copy()
    u_new[..., 1] = u_r[..., 0]
    u_new[..., 0] = -u_r[..., 1]
    return replace(fields, rho=rho_r, u=u_new)


def _frame(u: np.ndarray, dx: float) -> tuple:
    """Centered derivatives shared by the identity checks of a unit field u:
    (gu, curv, proj, b_mat, grad_b, p_div_b), with gu[..., i, j] = d_i u_j,
    curv = (u.grad)u, proj = P, b_mat = B = P grad u,
    grad_b[..., p, j, i] = d_p B_ji and p_div_b = P div B."""
    d = u.shape[-1]
    gu = _grad(u, d, dx)
    curv = np.einsum("...i,...ij->...j", u, gu)
    proj = np.eye(d) - u[..., :, None] * u[..., None, :]
    b_mat = gu - u[..., :, None] * curv[..., None, :]
    grad_b = _grad(b_mat, d, dx)
    div_b = sum(grad_b[..., i, i, :] for i in range(d))
    p_div_b = np.einsum("...ij,...j->...i", proj, div_b)
    return gu, curv, proj, b_mat, grad_b, p_div_b


def appendix_identity_residual(u: np.ndarray, dx: float) -> np.ndarray:
    """Pointwise defect of the projected-divergence decomposition.

    For a smooth unit field the contraction over the outer slots of
    (P grad)(P grad u) equals the projected divergence plus curvature
    corrections:

        Tr12[(P grad)(P grad u)] = P div(P grad u) + ((u.grad)u . grad) u
                                   - u (P grad u : P grad u).

    Both sides are assembled with centered differences; the returned scalar
    field is the Euclidean norm of their difference and shrinks at O(dx^2)
    under grid refinement.
    """
    u = np.asarray(u, dtype=float)
    gu, curv, proj, b_mat, grad_b, p_div_b = _frame(u, dx)
    trace12 = np.einsum("...jp,...pji->...i", proj, grad_b)
    transport = np.einsum("...l,...li->...i", curv, gu)
    frobenius = np.einsum("...ij,...ij->...", b_mat, b_mat)
    defect = trace12 - (p_div_b + transport - u * frobenius[..., None])
    return np.linalg.norm(defect, axis=-1)


def _sigma_field(proj: np.ndarray) -> np.ndarray:
    """Symmetrized projector pair P.P + perms, per node; shape (..., d,d,d,d)."""
    t1 = np.einsum("...ij,...kl->...ijkl", proj, proj)
    t2 = np.einsum("...ik,...jl->...ijkl", proj, proj)
    t3 = np.einsum("...il,...jk->...ijkl", proj, proj)
    return t1 + t2 + t3


def auxiliary_operator_checks(
    u: np.ndarray, dx: float, rho: np.ndarray
) -> dict[str, float]:
    """Max finite-difference residual of each contraction identity.

    Checks, for a smooth unit field u and a density rho:
      div_u_trace          div u = Tr(P grad u)
      tangent_curvature    (grad u) u = grad(|u|^2)/2 = 0, product form
      sigma_grad_u         Sig:grad u = (div u)P + P(grad u)P + P(grad u)^T P
      sigma_gradu_gradrho  Sig:(grad u x grad rho), three-term expansion
      sigma_gradu_curv     Sig:(grad u x (u.grad)u), three-term expansion
      sigma_hessian        Sig:grad^2 u, five-term expansion
    with Sig the symmetrized projector pair tensor.  All residuals except
    tangent_curvature shrink at O(dx^2); tangent_curvature differences the
    norm field itself, so it sits at rounding level for nodewise-normalized
    input.
    """
    u = np.asarray(u, dtype=float)
    d = u.shape[-1]
    gu, curv, proj, b_mat, _, p_div_b = _frame(u, dx)
    div_u = np.einsum("...ii->...", gu)
    sig = _sigma_field(proj)

    report: dict[str, float] = {}

    trace_b = np.einsum("...ii->...", b_mat)
    report["div_u_trace"] = float(np.abs(div_u - trace_b).max())

    norm_grad = 0.5 * _grad(np.square(u).sum(axis=-1), d, dx)
    report["tangent_curvature"] = float(np.abs(norm_grad).max())

    lhs = np.einsum("...ijkl,...kl->...ij", sig, gu)
    pgup = np.einsum("...ik,...kl,...lj->...ij", proj, gu, proj)
    rhs = div_u[..., None, None] * proj + pgup + np.swapaxes(pgup, -1, -2)
    report["sigma_grad_u"] = float(np.abs(lhs - rhs).max())

    def three_term(vec: np.ndarray, first: np.ndarray) -> np.ndarray:
        # (div u) vec + B vec + ((P first).grad) u, the shared expansion shape
        p_vec = np.einsum("...ij,...j->...i", proj, first)
        return (
            div_u[..., None] * vec
            + np.einsum("...ij,...j->...i", b_mat, vec)
            + np.einsum("...k,...kj->...j", p_vec, gu)
        )

    gr = _grad(np.asarray(rho, dtype=float), d, dx)
    lhs_v = np.einsum("...ijkl,...ij,...k->...l", sig, gu, gr)
    p_gr = np.einsum("...ij,...j->...i", proj, gr)
    rhs_v = three_term(p_gr, gr)
    report["sigma_gradu_gradrho"] = float(np.linalg.norm(lhs_v - rhs_v, axis=-1).max())

    lhs_c = np.einsum("...ijkl,...ij,...k->...l", sig, gu, curv)
    rhs_c = three_term(curv, curv)
    report["sigma_gradu_curv"] = float(np.linalg.norm(lhs_c - rhs_c, axis=-1).max())

    # hess[..., i, j, k] = d_i d_j u_k by composed centered differences
    hess = _grad(gu, d, dx)
    lhs_h = np.einsum("...ijkl,...ijk->...l", sig, hess)
    p_curv = np.einsum("...ij,...j->...i", proj, curv)
    p_grad_div = np.einsum("...ij,...j->...i", proj, _grad(div_u, d, dx))
    rhs_h = (
        p_div_b
        + div_u[..., None] * curv
        + np.einsum("...k,...kj->...j", p_curv, gu)
        + 2.0 * p_grad_div
        + 2.0 * np.einsum("...ij,...j->...i", b_mat, curv)
    )
    report["sigma_hessian"] = float(np.linalg.norm(lhs_h - rhs_h, axis=-1).max())

    return report
