"""The six radial profile problems h, a, b, c, e, k on r in (-1, 1).

Each profile solves a degenerate Sturm-Liouville problem in self-adjoint form,
E(r) = exp(kappa r^2 / 2):

  d/dr[(1-r^2)^mu E phi'] - (1-r^2)^{mu-1} E z0 phi  =  (1-r^2)^{mu-1} E f,

with the stiffness exponent mu, the zero-order factor z0 and the load f of
each kind in _PROBLEMS:

  h, a, b:  mu = (d+1)/2, z0 = kappa r^2 + d-1, f = r, 1, r^2 respectively;
  e:        mu = (d+3)/2, z0 = 2(kappa r^2 + d), f = r;
  c, k:     mu = (d-1)/2, no zero-order term, f = r and -2 e(r), with the
            zero-mean normalization int_{-1}^{1} phi dr = 0.

Expanded, L phi = (1-r^2) phi'' + (kappa (1-r^2) - 2 mu) r phi' - z0 phi = f.

Discretization: continuous piecewise-quadratic Lagrange elements on the graded
grid r_j = cos(theta_j), theta uniform, assembled entirely in theta where every
integrand is smooth for all d >= 2.  The degenerate leading weight vanishes at
r = +-1, so no boundary conditions are imposed there (natural).  Each element's
midpoint is condensed out in closed form, which leaves an SPD tridiagonal
system on the vertices (LAPACK pttrf/pttrs).  Kinds that share an operator
(h, a, b and c, k) share one assembly, and one factor serves each operator and
parity.

Parity: h, c, e, k are odd and a, b even, as are their loads, so each profile
is solved once on the half interval r in [0, 1] (theta in [pi/2, 0], n/2
elements; n must be even so that r = 0 is an element vertex).  Odd profiles
impose phi(0) = 0; even ones need nothing there, phi'(0) = 0 being natural.
The half solution is reflected onto the full ascending grid, so the discrete
parity is exact.  This is also the gauge of the pair c, k: of the solutions
phi + const, the odd one is the one with zero mean, and oddness makes the mean
vanish in every even weight, not only in dr.

Evaluation: one cubic spline through the vertex values gives a profile both
at any r and, through a cubic spline of its slopes at the vertices, its
derivative; the coefficient routes read both.  The spline is the not-a-knot
spline of scipy's CubicSpline, solved and evaluated in the same operation
order, so its values and slopes are bitwise CubicSpline's; it lives here so
that the profiles need no scipy.interpolate.

Strong-form residuals are measured at element vertices only: vertex values
superconverge, while interior nodes carry an intra-element error component
that would dominate any second-derivative reconstruction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs

ELEMENT_DEGREE = 2
GL_PER_ELEMENT = 8

# residual oracle: sliding polynomial fits over vertex windows
_FIT_HALF_WIDTH = 4
_FIT_DEGREE = 6
INTERIOR_MASK = 0.95


class _Spline:
    """Not-a-knot cubic spline through (x, y), x strictly ascending, n >= 4.

    The slopes solve CubicSpline's tridiagonal system with the LAPACK gtsv
    its solve_banded((1, 1), ...) calls, and evaluation keeps PPoly's order
    of operations (Horner would differ in the last bits), so values and
    slopes are bitwise those of scipy's CubicSpline(x, y).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray) -> None:
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("spline data must be finite")
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d_lo, d_hi = x[2] - x[0], x[-1] - x[-3]
        diag = np.concatenate(([dx[1]], 2 * (dx[:-1] + dx[1:]), [dx[-2]]))
        upper = np.concatenate(([d_lo], dx[:-1]))
        lower = np.concatenate((dx[1:], [d_hi]))
        rhs = np.empty_like(x)
        rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        rhs[0] = ((dx[0] + 2 * d_lo) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d_lo
        rhs[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d_hi + dx[-1]) * dx[-2] * slope[-1]) / d_hi
        s, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)[3:]
        if info != 0:
            raise np.linalg.LinAlgError(f"dgtsv returned info = {info}")
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self._c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        i = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, self.x.size - 2)
        h = r - self.x[i]
        c0, c1, c2, c3 = self._c[:, i]
        return c3 + c2 * h + c1 * (h * h) + c0 * (h * h * h)

    def vertex_slopes(self) -> np.ndarray:
        """First derivative at every x; the last one from the last interval."""
        h = self.x[-1] - self.x[-2]
        c0, c1, c2, _ = self._c[:, -1]
        return np.append(self._c[2], c2 + c1 * h * 2 + c0 * (h * h) * 3)


@dataclass(eq=False)
class RadialSolution:
    """Profile values on the graded vertex grid, read through one spline.

    grid is ascending in r and values is the nodal array on it.  Calling the
    solution reads the cubic spline of the values; derivative() reads the
    cubic spline of that spline's slopes at the vertices, which is C^2 like
    the values (the spline's own derivative is only C^1).  The parity of
    each kind is fixed (h, c, e, k odd; a, b even).  A k profile keeps the e
    profile its load was built from in e_profile.  Solutions compare by
    identity.
    """

    kind: str
    kappa: float
    d: int
    grid: np.ndarray
    values: np.ndarray
    e_profile: RadialSolution | None = field(default=None, repr=False)
    _spline: _Spline = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._spline = _Spline(self.grid, self.values)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        return self._spline(r)

    @property
    def n(self) -> int:
        """Number of elements, one fewer than the grid vertices."""
        return self.grid.size - 1

    @cached_property  # built on first use: many solutions are read for values only
    def _slope_spline(self) -> _Spline:
        return _Spline(self.grid, self._spline.vertex_slopes())

    def derivative(self, r: np.ndarray) -> np.ndarray:
        return self._slope_spline(r)


class _Operator(NamedTuple):
    mu_shift: int  # stiffness exponent mu = (d + mu_shift) / 2
    zero_order: Callable[[float, int, np.ndarray], np.ndarray] | None


class _Problem(NamedTuple):
    operator: _Operator
    parity: str
    load: Callable[[np.ndarray, RadialSolution | None], np.ndarray]  # f(r, e)


_HAB = _Operator(1, lambda kappa, d, r: kappa * r**2 + (d - 1))
_E = _Operator(3, lambda kappa, d, r: 2.0 * (kappa * r**2 + d))
_CK = _Operator(-1, None)
# e is solved before k, whose load it is
_PROBLEMS = {
    "h": _Problem(_HAB, "odd", lambda r, e: r),
    "a": _Problem(_HAB, "even", lambda r, e: np.ones_like(r)),
    "b": _Problem(_HAB, "even", lambda r, e: r**2),
    "e": _Problem(_E, "odd", lambda r, e: r),
    "c": _Problem(_CK, "odd", lambda r, e: r),
    "k": _Problem(_CK, "odd", lambda r, e: -2.0 * e(r)),
}
ALL_KINDS = tuple(_PROBLEMS)
# the kinds of each operator, operators in table order (e's before k's)
_OPERATOR_KINDS = tuple(
    tuple(kind for kind in ALL_KINDS if _PROBLEMS[kind].operator == op)
    for op in dict.fromkeys(prob.operator for prob in _PROBLEMS.values())
)


def _lagrange_basis(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shape function values/derivatives at the per-element Gauss points."""
    xg, wg = leggauss(GL_PER_ELEMENT)
    xi = np.linspace(-1.0, 1.0, p + 1)
    Vinv = np.linalg.inv(np.vander(xi, p + 1, increasing=True))
    val = np.vander(xg, p + 1, increasing=True)
    der = np.zeros_like(val)
    for m in range(1, p + 1):
        der[:, m] = m * xg ** (m - 1)
    return xg, wg, val @ Vinv, der @ Vinv


@lru_cache(maxsize=4)
def _element_quadrature(n_el: int) -> tuple[np.ndarray, ...]:
    """Element geometry on the half interval theta in [pi/2, 0], i.e. r in [0, 1].

    Returns (theta nodes, 1/half-width, quadrature weights in theta, cos and
    sin at the quadrature points, shape values, shape derivatives).  Cached
    per element count and shared by every solve on that grid, hence
    read-only; four entries hold the corrector suite's n/4, n/2 and n.
    """
    p = ELEMENT_DEGREE
    theta = np.linspace(0.5 * np.pi, 0.0, p * n_el + 1)  # r = cos(theta) ascending
    xg, wg, N, dN = _lagrange_basis(p)
    half = 0.5 * (theta[p::p] - theta[0:-1:p])  # negative: theta decreases
    mid = 0.5 * (theta[p::p] + theta[0:-1:p])
    tq = mid[:, None] + half[:, None] * xg[None, :]
    wq = np.abs(half)[:, None] * wg[None, :]
    out = (theta, 1.0 / half, wq, np.cos(tq), np.sin(tq), N, dN)
    for a in out:
        a.setflags(write=False)
    return out


# (i, j) with i <= j, column by column: the local entries of a symmetric
# element matrix, local node 1 being the element's midpoint
_UPPER = tuple((i, j) for j in range(ELEMENT_DEGREE + 1) for i in range(j + 1))


def _upper_products(weights: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Rows sum_q weights[:, q] B[q, i] B[q, j] over the elements, one per (i, j) in _UPPER.

    Gauss points summed in order, each term as (weights B_i) B_j: the
    arithmetic of einsum("eq,qi,qj->eij"), so the entries are bitwise its own.
    """
    wt = np.ascontiguousarray(weights.T)
    out = np.empty((len(_UPPER), wt.shape[1]))
    for acc, (i, j) in zip(out, _UPPER):
        acc[:] = wt[0] * B[0, i] * B[0, j]
        for q in range(1, len(wt)):
            acc += wt[q] * B[q, i] * B[q, j]
    return out


def _solve_operator(
    kinds: tuple[str, ...], kappa: float, d: int, n: int, e: RadialSolution | None
) -> np.ndarray:
    """Vertex values on r in [0, 1] of kinds sharing one operator, one row per kind.

    Each element's midpoint is condensed out, leaving an SPD tridiagonal
    system on the n/2 + 1 vertices.  It is factored once per parity: odd
    kinds pin u = 0 at the first vertex (r = 0), even ones leave it natural.
    """
    _, inv_half, wq, rq, sq, N, dN = _element_quadrature(n // 2)
    E = np.exp(0.5 * kappa * rq**2)
    op = _PROBLEMS[kinds[0]].operator
    mu = (d + op.mu_shift) / 2
    # chain rule u'(r) = -u_theta/sin(theta) and dr = sin(theta) dtheta turn
    # the stiffness weight sin^{2 mu} and the zero-order and load weight
    # sin^{2 mu - 2} into one power of sin
    s = sq ** (2 * mu - 1)
    A = _upper_products(wq * (E * s), dN) * inv_half**2
    if op.zero_order is not None:
        A = A + _upper_products(wq * E * s * op.zero_order(kappa, d, rq), N)
    a00, a01, a11, a02, a12, a22 = A
    l0, l2 = a01 / a11, a12 / a11
    diag = np.append(a00 - l0 * a01, 0.0)
    diag[1:] += a22 - l2 * a12
    off = a02 - l0 * a12
    rhs = np.zeros((len(kinds), diag.size))
    for row, kind in zip(rhs, kinds):
        F = -np.einsum("eq,qi->ei", wq * (_PROBLEMS[kind].load(rq, e) * E * s), N)
        row[:-1] = F[:, 0] - l0 * F[:, 1]
        row[1:] += F[:, 2] - l2 * F[:, 1]
    if not (np.isfinite(diag).all() and np.isfinite(off).all() and np.isfinite(rhs).all()):
        # dpttrf lets a NaN pivot through
        raise np.linalg.LinAlgError(f"profile {'/'.join(kinds)}: condensed system is not finite")
    u = np.zeros_like(rhs)
    for parity, pin in (("even", 0), ("odd", 1)):
        rows = [i for i, kind in enumerate(kinds) if _PROBLEMS[kind].parity == parity]
        if not rows:
            continue
        name = "/".join(kinds[i] for i in rows)
        df, ef, info = dpttrf(diag[pin:], off[pin:])
        if info != 0:
            raise np.linalg.LinAlgError(f"profile {name}: not positive definite (dpttrf {info})")
        x, info = dpttrs(df, ef, rhs[rows, pin:].T)
        if info != 0:
            raise np.linalg.LinAlgError(f"profile {name}: dpttrs returned info = {info}")
        u[rows, pin:] = x.T
    return u


def _reflect(half_vertices: np.ndarray, parity: str) -> np.ndarray:
    """Extend vertex values on r in [0, 1] to the full ascending grid."""
    sign = -1.0 if parity == "odd" else 1.0
    return np.concatenate((sign * half_vertices[:0:-1], half_vertices))


def _validate_problem(kappa: float, d: int, n: int) -> None:
    if kappa < 0:
        raise ValueError("kappa >= 0 required")
    if d < 2:
        raise ValueError("d >= 2 required")
    if n < 64:
        raise ValueError("n >= 64 grid points required")
    if n % 2:
        raise ValueError("n must be even so that r = 0 is an element vertex")


def solve_bundle(kappa: float, d: int, n: int) -> dict[str, RadialSolution]:
    """All six profiles at shared (kappa, d, n), one solve per operator.

    The operators go in table order, so k's load reads the bundle's e.
    """
    _validate_problem(kappa, d, n)
    r = np.cos(_element_quadrature(n // 2)[0][::ELEMENT_DEGREE])
    r[0] = 0.0  # cos(pi/2) rounds to 6e-17; the reflected grid needs r = 0
    grid = _reflect(r, "odd")
    grid.setflags(write=False)  # shared by the six profiles
    out: dict[str, RadialSolution] = {}
    for kinds in _OPERATOR_KINDS:
        for kind, u in zip(kinds, _solve_operator(kinds, kappa, d, n, out.get("e"))):
            out[kind] = RadialSolution(
                kind, float(kappa), int(d), grid, _reflect(u, _PROBLEMS[kind].parity),
                e_profile=out["e"] if kind == "k" else None)
    return out


def _bundle_parameters(bundle: dict[str, RadialSolution], kinds: tuple) -> tuple[float, int]:
    """The (kappa, d) the profiles of the given kinds share, each under its own key."""
    missing = [k for k in kinds if k not in bundle]
    if missing:
        raise ValueError(f"bundle missing kinds {missing}")
    kappa, d = bundle[kinds[0]].kappa, bundle[kinds[0]].d
    for kind in kinds:
        sol = bundle[kind]
        if sol.kind != kind:
            raise ValueError(f"bundle key {kind!r} holds a {sol.kind!r} solution")
        if (sol.kappa, sol.d) != (kappa, d):
            raise ValueError(
                f"profile {kind!r} solved at ({sol.kappa}, {sol.d}), {kinds[0]!r} at ({kappa}, {d})"
            )
    return kappa, d


def _vertex_fit_derivatives(r: np.ndarray, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Sliding degree-6 fits in theta over vertex windows; r-derivatives by chain rule."""
    theta = np.arccos(np.clip(r, -1.0, 1.0))
    dt = theta[1] - theta[0]
    offsets = np.arange(-_FIT_HALF_WIDTH, _FIT_HALF_WIDTH + 1) * dt
    pinv = np.linalg.pinv(np.vander(offsets, _FIT_DEGREE + 1, increasing=True))
    idx = np.arange(_FIT_HALF_WIDTH, len(r) - _FIT_HALF_WIDTH)
    windows = u[idx[:, None] + np.arange(-_FIT_HALF_WIDTH, _FIT_HALF_WIDTH + 1)]
    coef = windows @ pinv.T
    tt = theta[idx]
    st = np.sin(tt)
    v = coef[:, 0]
    v_t = coef[:, 1]
    v_tt = 2.0 * coef[:, 2]
    v_r = -v_t / st
    v_rr = v_tt / st**2 - v_t * np.cos(tt) / st**3
    return r[idx], v, v_r, v_rr


def strong_defect(sol: RadialSolution) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise strong-form defect L(phi) - f over interior vertices.

    Returns (r, defect) restricted to |r| <= INTERIOR_MASK, where vertex
    values superconverge and the sliding-fit derivatives are reliable.
    """
    rr, v, v1, v2 = _vertex_fit_derivatives(sol.grid, sol.values)
    kappa, d = sol.kappa, sol.d
    mask = np.abs(rr) <= INTERIOR_MASK
    rr, v, v1, v2 = rr[mask], v[mask], v1[mask], v2[mask]
    s2 = 1.0 - rr**2
    prob = _PROBLEMS[sol.kind]
    op = prob.operator
    L = s2 * v2 + (kappa * s2 - (d + op.mu_shift)) * rr * v1  # d + mu_shift = 2 mu
    if op.zero_order is not None:
        L = L - op.zero_order(kappa, d, rr) * v
    return rr, L - prob.load(rr, sol.e_profile)


def strong_residual(sol: RadialSolution) -> float:
    """Sup-norm defect of the strong ODE over interior vertices |r| <= INTERIOR_MASK."""
    return float(np.max(np.abs(strong_defect(sol)[1])))
