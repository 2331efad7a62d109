"""Space-homogeneous angular Fokker-Planck solver in axisymmetric form.

The unknown is f(theta, t), the orientation density around a fixed axis,
discretized as cell averages on a uniform theta grid over [0, pi] with the
cell measure sin^{d-2}(theta) dtheta / W_{d-2}.  The collision operator is
written in the ratio variable g = f / E, E(theta) = exp(kappa cos^2(theta)/2),
and discretized in conservative flux form

    mu_i df_i/dt = Phi_{i+1/2} - Phi_{i-1/2},
    Phi_face = D * E(face) sin^{d-2}(face)/W * (g_right - g_left)/dtheta,

so any multiple of the aligned equilibrium is an exact discrete steady state
and the discrete mass of the output telescopes to zero.  End faces carry zero
flux: the weight vanishes there for d >= 3, and for d = 2 the symmetric ghost
extension forces it.

Time stepping is backward Euler on the same flux form:
(M + dt K) g_new = M g_old with M = diag(mu E) and K the face-flux
stiffness, symmetric with zero row sums.  The collision operator is
self-adjoint in the M-weighted space, so the march runs on the scaled
unknown h = M^{1/2} g = sqrt(mu / E) f, for which each step is

    (I + dt M^{-1/2} K M^{-1/2}) h_new = h_old.

Like the unscaled one, the scaled matrix is symmetric positive definite
and tridiagonal with nonpositive off-diagonals.  So in exact arithmetic the
update preserves positivity unconditionally, conserves the mass
sum sqrt(mu E) h (that vector is the matrix's fixed point), and makes the
quadratic entropy, Z sum h^2, non-increasing step by step.  The matrix
depends only on (n, d, kappa, D, dt), so it is factored once per such
tuple (LAPACK pttrf, L D L^T) and every step is one in-place pttrs solve
on h.  f is formed from h at the end of each march, and after every step
only when the self-consistent policy checks its axis.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.linalg.lapack import dpttrf, dpttrs

from .constants import GAP_FLOOR, step_count
from .gci.equilibrium import _exp_weight, make_equilibrium
from .qtensor import DegenerateLeadingEigenvalue
from .sphere import angle_weight_norm

MASS_TOL = 1e-10

# "fixed" keeps the equilibrium axis; "self-consistent" requires the mean
# direction of f to stay on it
U_POLICIES = ("fixed", "self-consistent")


@lru_cache(maxsize=None)
def _cell_integrals(n: int, d: int, cos_power: int) -> np.ndarray:
    """Per-cell integrals of cos^p(theta) sin^{d-2}(theta)/W_{d-2}, exact.

    Cached per argument tuple and shared by every caller, hence read-only.
    """
    edges = np.linspace(0.0, np.pi, n + 1)
    xg, wg = leggauss(16)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    tq = mid[:, None] + half * xg[None, :]
    vals = np.cos(tq) ** cos_power * np.sin(tq) ** (d - 2)
    out = half * (wg[None, :] * vals).sum(axis=1) / angle_weight_norm(d - 2)
    out.setflags(write=False)
    return out


def cell_measures(n: int, d: int) -> np.ndarray:
    """Exact cell integrals of sin^{d-2}(theta)/W_{d-2} on the uniform grid."""
    return _cell_integrals(n, d, 0)


def _cell_centers(n: int) -> np.ndarray:
    """Centres of the n uniform cells of theta in [0, pi]."""
    return (np.arange(n) + 0.5) * (np.pi / n)


@dataclass
class AngularDensity:
    """Cell-averaged axisymmetric orientation density."""

    d: int
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.d < 2:
            raise ValueError("d >= 2 required")
        if self.values.ndim != 1 or len(self.values) < 4:
            raise ValueError("values must be a 1D array of at least 4 cells")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def measures(self) -> np.ndarray:
        return cell_measures(self.n, self.d)

    def mass(self) -> float:
        return float(self.values @ self.measures)

    def validate(self) -> None:
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density has non-finite cells")
        if np.any(self.values < 0):
            raise ValueError("density has negative cells")
        drift = abs(self.mass() - 1.0)
        if drift > MASS_TOL:
            raise ValueError(f"mass {1.0 + drift:.3e} deviates from 1 beyond {MASS_TOL}")


@lru_cache(maxsize=8)
def _grid_weights(n: int, d: int, kappa: float) -> tuple[np.ndarray, np.ndarray]:
    """(E at the n cell centres, E sin^{d-2} / W_{d-2} at the n-1 interior faces).

    E = exp(kappa cos^2(theta) / 2).  Cached per argument tuple and shared by
    every caller, hence read-only.
    """
    faces = np.linspace(0.0, np.pi, n + 1)[1:-1]
    E = _exp_weight(kappa, np.cos(_cell_centers(n)))
    w = _exp_weight(kappa, np.cos(faces)) * np.sin(faces) ** (d - 2) / angle_weight_norm(d - 2)
    for a in (E, w):
        a.setflags(write=False)
    return E, w


def equilibrium_density(n: int, d: int, kappa: float) -> AngularDensity:
    """The aligned steady state, normalized to discrete mass one.

    Cell values are proportional to E at cell centers, which is exactly
    stationary under the discrete operator.
    """
    E, _ = _grid_weights(n, d, kappa)
    return AngularDensity(d=d, values=E / (E @ cell_measures(n, d)))


def bump_density(n: int, d: int, center: float = 0.3, width: float = 0.2) -> AngularDensity:
    """Smooth normalized bump used as a far-from-equilibrium start."""
    with np.errstate(over="ignore"):  # a far-off bump underflows to zero, refused below
        values = np.exp(-0.5 * ((_cell_centers(n) - center) / width) ** 2)
    f = AngularDensity(d=d, values=values)
    mass = f.mass()
    if not mass > 0.0:
        raise ValueError(f"bump at center = {center}, width = {width} has no mass on {n} cells")
    f.values = f.values / mass
    return f


def _axis_alignment_gap(f: AngularDensity) -> float:
    """Leading-eigenvalue gap of Q_f within the axisymmetric class.

    For f axisymmetric the Q-tensor is diagonal in the axis frame with the
    axis eigenvalue m2 - 1/d and transverse eigenvalues (1-m2)/(d-1) - 1/d,
    m2 being the second moment of cos(theta); the gap is (d m2 - 1)/(d-1).
    The moment uses exact per-cell integrals so that the uniform density is
    exactly degenerate on every grid.
    """
    m2 = float(f.values @ _cell_integrals(f.n, f.d, 2)) / f.mass()
    return (f.d * m2 - 1.0) / (f.d - 1.0)


def _resolve_axis(f: AngularDensity, u_policy: str) -> None:
    if u_policy not in U_POLICIES:
        raise ValueError(f"unknown u_policy {u_policy!r}")
    if u_policy == "fixed":
        return
    gap = _axis_alignment_gap(f)
    if gap < GAP_FLOOR:
        raise DegenerateLeadingEigenvalue(
            f"leading eigenvalue gap {gap:.3e} below {GAP_FLOOR}; mean direction "
            "is not aligned with the axisymmetry axis"
        )


@lru_cache(maxsize=8)
def _backward_euler_factor(
    n: int, d: int, kappa: float, D: float, dt: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L D L^T factor: diagonal of D, subdiagonal of L; scale sqrt(mu / E)).

    The factored matrix is I + dt M^{-1/2} K M^{-1/2}, M = diag(mu E) and K
    the face-flux stiffness; it acts on h = scale * f.  Cached per argument
    tuple and shared by every caller, hence read-only.
    """
    E, face = _grid_weights(n, d, kappa)
    mu = cell_measures(n, d)
    w = dt * D * face / (np.pi / n)
    m = mu * E
    load = np.zeros(n)
    load[:-1] += w
    load[1:] += w
    root = np.sqrt(m)
    diag, sub, info = dpttrf(1.0 + load / m, -w / (root[:-1] * root[1:]), overwrite_d=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dpttrf returned info = {info}: matrix not positive definite")
    scale = np.sqrt(mu / E)
    for a in (diag, sub, scale):
        a.setflags(write=False)
    return diag, sub, scale


def evolve(
    f0: AngularDensity,
    kappa: float,
    D: float,
    dt: float,
    T: float,
    u_policy: str = "fixed",
) -> AngularDensity:
    """Backward-Euler integration of df/dt = Gamma(f) up to time T."""
    if dt <= 0 or D <= 0:
        raise ValueError("need dt > 0, D > 0")
    f0.validate()
    steps = step_count(T, dt)
    diag, sub, scale = _backward_euler_factor(f0.n, f0.d, kappa, D, dt)
    track = u_policy == "self-consistent"
    state = AngularDensity(d=f0.d, values=f0.values)
    h = scale * f0.values
    for _ in range(steps):
        _resolve_axis(state, u_policy)
        h, info = dpttrs(diag, sub, h, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrs returned info = {info}")
        if track:
            state.values = h / scale
    state.values = h / scale
    return state


def entropy_dissipation(f: AngularDensity, kappa: float, D: float) -> float:
    """Discrete dissipation functional, nonpositive: the quadratic face sum.

    It equals the pairing of the discrete collision output with f/M to
    rounding, because the flux form is its own summation-by-parts dual.
    """
    n = f.n
    dtheta = np.pi / n
    Z = make_equilibrium(kappa, f.d).Z
    E, w = _grid_weights(n, f.d, kappa)
    return -D * Z * float(w @ (np.diff(f.values / E) ** 2)) / dtheta


def quadratic_entropy(f: AngularDensity, kappa: float) -> float:
    """Discrete integral of f^2 / M_u; its decay rate is the dissipation."""
    Z = make_equilibrium(kappa, f.d).Z
    E, _ = _grid_weights(f.n, f.d, kappa)
    return Z * float((f.values**2 / E) @ f.measures)


def l1_distance_to_equilibrium(f: AngularDensity, kappa: float) -> float:
    eq = equilibrium_density(f.n, f.d, kappa)
    return float(np.abs(f.values - eq.values) @ f.measures)


def relaxation_series(
    f0: AngularDensity,
    kappa: float,
    D: float,
    dt: float,
    T: float,
    n_samples: int = 40,
    u_policy: str = "fixed",
) -> np.ndarray:
    """Rows (t, L1 distance to equilibrium, dissipation H, quadratic entropy).

    Sampling times are multiples of T/n_samples snapped to whole steps; the
    trajectory is one continuous integration, not restarted per sample.
    """
    if n_samples < 1:
        raise ValueError("n_samples >= 1")
    steps_total = step_count(T, dt)
    sample_steps = sorted(set(int(round(steps_total * j / n_samples)) for j in range(n_samples + 1)))
    rows = []
    state = f0
    prev = 0
    for s in sample_steps:
        if s > prev:
            state = evolve(state, kappa, D, dt, (s - prev) * dt, u_policy)
            prev = s
        rows.append(
            (
                s * dt,
                l1_distance_to_equilibrium(state, kappa),
                entropy_dissipation(state, kappa, D),
                quadratic_entropy(state, kappa),
            )
        )
    return np.array(rows)
