"""Cross-scale and cross-theorem checks tying the model levels together.

Four studies: the quadratic small-radius expansion of the nonlocal Q-tensor,
orthogonality of the collision operator against the vector collision
invariant, agreement of long-run particle statistics with the aligned
equilibrium marginal, and a qualitative particle-versus-continuum comparison
under the parabolic space time scaling.  The strong-form defect of the
first-order corrector is gci.corrector's own study.

Conventions.  Sphere integrals use the unit-mass measure throughout, matching
the quadrature module.  The continuum system is stated in time units of 1/D,
so a micro horizon t maps to the macro horizon eps^2 t / D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .constants import CROSS_STREAM, step_count, stream
from .gci.corrector import gci_vector
from .gci.equilibrium import make_equilibrium
from .gci.radial import RadialSolution
from .ibm import IbmConfig, ParticleState, coarse_grain, run, step
from .macro import MacroConfig, MacroField
from .macro import step as macro_step
from .qtensor import leading_direction, qtensor_from_orientations
from .sphere import assert_unit, build_quadrature, complete_basis

__all__ = [
    "ScalingReport",
    "eps_expansion_study",
    "AlignedPerturbation",
    "gci_orthogonality_report",
    "EquilibriumStats",
    "aligned_marginal_cdf",
    "ibm_equilibrium_statistics",
    "CrossScaleReport",
    "particle_vs_macro",
]


# ---------------------------------------------------------------------------
# small-radius expansion of the nonlocal Q-tensor


@dataclass(frozen=True)
class ScalingReport:
    """Log-log convergence study of the kernel-averaged Q-tensor.

    eps_values are strictly decreasing; slope is the least-squares exponent
    of errors against eps, NaN when the errors sit at rounding level and no
    rate is identifiable.
    """

    eps_values: np.ndarray
    errors: np.ndarray
    slope: float


def _ball_quadrature(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights, and unit directions for integrals over the unit ball."""
    s, ws = np.polynomial.legendre.leggauss(_SCALING_N_RADIAL)
    s = 0.5 * (s + 1.0)
    ws = 0.5 * ws
    sphere = build_quadrature(d, np.eye(d)[-1], _SCALING_N_SURFACE)
    surface_area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
    # weights integrate g over {|xi| <= 1}: radial measure s^{d-1} times the
    # surface measure, the latter recovered from the unit-mass sphere rule
    nodes = s[:, None, None] * sphere.nodes[None, :, :]
    w = (ws * s ** (d - 1))[:, None] * (surface_area * sphere.weights)[None, :]
    dirs = np.broadcast_to(sphere.nodes[None, :, :], nodes.shape)
    return nodes.reshape(-1, d), w.reshape(-1), dirs.reshape(-1, d)


_SCALING_PROBES = np.array([0.31, 0.72, 0.11])
"""First coordinates of the study's probe points; its family does not vary along x_2."""
# resolutions of the study: radial and surface nodes of the ball, sphere nodes
_SCALING_N_RADIAL = 24
_SCALING_N_SURFACE = 48
_SCALING_N_SPHERE = 64


def _q_moment(weights: np.ndarray, values: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Unnormalized Q-tensor moment sum_m w_m f_m (omega_m omega_m^T - I/d).

    values is (..., m) on the m sphere nodes, and the result (..., d, d);
    no (m, d, d) array is formed.
    """
    wf = weights * values
    d = nodes.shape[1]
    outer = np.einsum("...m,mi,mj->...ij", wf, nodes, nodes)
    return outer - (wf.sum(axis=-1) / d)[..., None, None] * np.eye(d)


def eps_expansion_study(
    kappa: float, eps_values: Sequence[float], *, asymmetry: float = 0.0
) -> ScalingReport:
    """Error of the kernel-averaged Q-tensor against the local one vs eps, in 2-D.

    The phase-space density is a smooth 1-periodic family built on the
    aligned equilibrium at kappa: rho(x) = 1 + 0.5 sin(2 pi x_1) times the
    equilibrium whose axis turns by 0.3 sin(2 pi x_1) radians.  The kernel is
    flat on the ball of radius eps, normalized so the average of a constant
    is exact.  asymmetry adds an odd component to the kernel, which breaks
    the symmetry that cancels the linear term and degrades the rate to first
    order; it exists as a negative control of the study itself.

    Returns the worst Frobenius error over the probe points per eps and the
    fitted log-log slope.
    """
    eps_arr = np.asarray(sorted(eps_values, reverse=True), dtype=float)
    if eps_arr.size < 2 or np.any(np.diff(eps_arr) == 0.0):
        raise ValueError(f"two or more distinct eps values are required, got {list(eps_values)}")
    d = 2
    eq = make_equilibrium(kappa, d)
    quad = build_quadrature(d, np.eye(d)[-1], _SCALING_N_SPHERE)

    def density(x1: np.ndarray) -> np.ndarray:
        """The family on the sphere nodes, (..., m), at first coordinates x1."""
        phase = 2.0 * math.pi * x1[..., None]
        alpha = 0.3 * np.sin(phase)
        r = np.cos(alpha) * quad.nodes[:, 0] + np.sin(alpha) * quad.nodes[:, 1]
        return (1.0 + 0.5 * np.sin(phase)) * eq.density(r)

    xi, w_ball, dirs = _ball_quadrature(d)
    weights = w_ball * (1.0 + asymmetry * dirs[:, 0])
    weights = weights / weights.sum()

    q_local = _q_moment(quad.weights, density(_SCALING_PROBES), quad.nodes)
    errors = np.empty(eps_arr.size)
    for ie, eps in enumerate(eps_arr):
        # the kernel average is linear in f: average the density, then take its moment
        f_avg = weights @ density(_SCALING_PROBES[:, None] + eps * xi[:, 0])
        q_avg = _q_moment(quad.weights, f_avg, quad.nodes)
        errors[ie] = np.linalg.norm(q_avg - q_local, axis=(-2, -1)).max()
    if errors.max() < 1e-14:
        slope = float("nan")
    else:
        slope = float(np.polyfit(np.log(eps_arr), np.log(np.maximum(errors, 1e-300)), 1)[0])
    return ScalingReport(eps_values=eps_arr, errors=errors, slope=slope)


# ---------------------------------------------------------------------------
# collision-invariant orthogonality


@dataclass(frozen=True)
class AlignedPerturbation:
    """Angular density exp(kappa r^2 / 2) (1 + shift + sum_k amp_k (omega.w_k)^2).

    Carries exact closed-form sphere derivatives, so the collision operator
    can be evaluated pointwise without numerical differentiation.  The
    normalization constant is dropped: every use is linear in the density.
    """

    kappa: float
    axis: np.ndarray
    amplitudes: tuple[float, ...] = ()
    vectors: Optional[np.ndarray] = None
    shift: float = 0.0

    def __post_init__(self) -> None:
        axis = assert_unit(self.axis)
        object.__setattr__(self, "axis", axis)
        if self.vectors is None:
            vecs = np.zeros((0, self.d))
        else:
            vecs = np.atleast_2d(np.asarray(self.vectors, dtype=float))
            if vecs.shape[1] != self.d:
                raise ValueError(f"vectors must have the axis dimension {self.d}")
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            if not np.all(norms > 0.0):
                raise ValueError("vectors must have nonzero norms")
            vecs = vecs / norms
        if len(self.amplitudes) != vecs.shape[0]:
            raise ValueError("one unit vector per amplitude is required")
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "amplitudes", tuple(float(a) for a in self.amplitudes))

    @property
    def d(self) -> int:
        return self.axis.size

    def _q_parts(self, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = omega @ self.vectors.T if self.vectors.size else np.zeros((omega.shape[0], 0))
        amps = np.asarray(self.amplitudes)
        q = 1.0 + self.shift + s**2 @ amps
        return q, s

    def values(self, omega: np.ndarray) -> np.ndarray:
        omega = np.atleast_2d(np.asarray(omega, dtype=float))
        q, _ = self._q_parts(omega)
        rv = omega @ self.axis
        return np.exp(0.5 * self.kappa * rv**2) * q

    def collision_values(
        self, omega: np.ndarray, u: np.ndarray, nu: float, D: float
    ) -> np.ndarray:
        """Pointwise collision operator with the alignment axis frozen at u.

        Assembled from the closed-form gradient and Laplace-Beltrami terms of
        the factors: drift part -nu [grad f . V + f div V] with
        V = (omega.u) P_{omega-perp} u, plus D times the Laplacian of f.
        """
        omega = np.atleast_2d(np.asarray(omega, dtype=float))
        u = assert_unit(u)
        d = self.d
        kf = self.kappa
        v = self.axis
        q, s = self._q_parts(omega)
        amps = np.asarray(self.amplitudes)
        rv = omega @ v
        ru = omega @ u
        E = np.exp(0.5 * kf * rv**2)

        # tangent dot products P_x . P_y = x.y - (omega.x)(omega.y)
        uv = float(u @ v)
        uw = self.vectors @ u if self.vectors.size else np.zeros(0)
        vw = self.vectors @ v if self.vectors.size else np.zeros(0)

        grad_q_dot_pv = 2.0 * (s * (vw[None, :] - rv[:, None] * s)) @ amps
        grad_q_dot_pu = 2.0 * (s * (uw[None, :] - ru[:, None] * s)) @ amps
        lap_q = 2.0 * (1.0 - d * s**2) @ amps

        lap_m_over_m = kf * ((1.0 - rv**2) * (1.0 + kf * rv**2) - (d - 1) * rv**2)
        lap_f = E * (q * lap_m_over_m + 2.0 * kf * rv * grad_q_dot_pv + lap_q)

        grad_f_dot_v_field = E * ru * (kf * rv * q * (uv - ru * rv) + grad_q_dot_pu)
        div_v_field = (1.0 - ru**2) - (d - 1) * ru**2
        return -nu * (grad_f_dot_v_field + E * q * div_v_field) + D * lap_f


def gci_orthogonality_report(
    field: AlignedPerturbation, h_sol: RadialSolution, D: float
) -> dict[str, float]:
    """Orthogonality and mass integrals of the collision operator.

    The field and the h profile share one (kappa, d); nu = kappa D.  The
    alignment axis is the leading eigenvector of the field's own Q-tensor, as
    the operator prescribes; a degenerate leading eigenvalue propagates as
    DegenerateLeadingEigenvalue.  Keys: "orthogonality" is the Euclidean norm
    of the integral against the vector invariant, "mass" the absolute
    integral of the operator alone.
    """
    if (field.kappa, field.d) != (h_sol.kappa, h_sol.d):
        raise ValueError("h profile and field disagree on (kappa, d)")
    quad = build_quadrature(field.d, np.eye(field.d)[-1], 100)
    q_tensor = _q_moment(quad.weights, field.values(quad.nodes), quad.nodes)
    u = leading_direction(q_tensor).direction
    gamma = field.collision_values(quad.nodes, u, h_sol.kappa * D, D)
    psi = gci_vector(h_sol, u, quad.nodes)
    orth = float(np.linalg.norm(quad.integrate(gamma[:, None] * psi)))
    mass = float(abs(quad.integrate(gamma)))
    return {"orthogonality": orth, "mass": mass}


# ---------------------------------------------------------------------------
# particle equilibrium statistics


@dataclass(frozen=True)
class EquilibriumStats:
    """Kolmogorov-Smirnov comparison of the simulated alignment marginal.

    ks_critical is the 5% critical value 1.36/sqrt(N); sample_sufficient
    flags whether N reaches the 10^4 the tolerance bands assume.
    """

    ks_statistic: float
    n_samples: int
    ks_critical: float
    sample_sufficient: bool
    order_parameter: float


_POLAR_GRID = 8192
"""Intervals of the uniform polar-angle grid behind the aligned marginal."""


def _polar_angle_table(kappa: float, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar angles on [0, pi] and the aligned-equilibrium CDF at each.

    The marginal density in r = cos(theta) carries the (1-r^2)^{(d-3)/2}
    surface factor, singular at the poles for d = 2; integrating in the
    polar angle instead keeps the integrand bounded for every d >= 2.  The
    CDF is the trapezoid rule, normalized to end at exactly 1.
    """
    theta = np.linspace(0.0, math.pi, _POLAR_GRID + 1)
    density = np.exp(0.5 * kappa * np.cos(theta) ** 2) * np.sin(theta) ** (d - 2)
    cum = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) * 0.5 * np.diff(theta))])
    cum /= cum[-1]
    return theta, cum


def aligned_marginal_cdf(kappa: float, d: int) -> Callable[[np.ndarray], np.ndarray]:
    """CDF of r = omega.u under the aligned equilibrium."""
    theta, cum = _polar_angle_table(kappa, d)

    def cdf(x: np.ndarray) -> np.ndarray:
        t = np.arccos(np.clip(np.asarray(x, dtype=float), -1.0, 1.0))
        return 1.0 - np.interp(t, theta, cum)

    return cdf


def _ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Two-sided Kolmogorov-Smirnov distance between the samples' empirical CDF and cdf.

    The larger of D+ = max(i/n - F) and D- = max(F - (i-1)/n) over the sorted
    samples, F = cdf(sorted samples), formed and compared in that order so the
    value is bitwise the statistic of SciPy's one-sample test.
    """
    x = np.sort(samples)
    F = cdf(x)
    n = x.size
    return float(max((np.arange(1.0, n + 1) / n - F).max(), (F - np.arange(0.0, n) / n).max()))


def ibm_equilibrium_statistics(config: IbmConfig, T: float) -> EquilibriumStats:
    """Long-run particle alignment marginal against the equilibrium CDF.

    Runs the particle model from its seeded isotropic start to time T,
    projects the final orientations on the leading eigenvector of the global
    Q-tensor, and returns the Kolmogorov-Smirnov distance to the analytic
    marginal at kappa = nu/D.  Requires the global kernel: the equilibrium
    is spatially homogeneous only when every particle sees the whole box.
    """
    if config.kernel != "global":
        raise ValueError("equilibrium statistics require the global kernel")
    if config.D <= 0.0:
        raise ValueError("D > 0 required, the marginal is ill-defined otherwise")
    _, state = run(config, T, observe_every=step_count(T, config.dt))
    q_tensor = qtensor_from_orientations(state.orientations)
    info = leading_direction(q_tensor)
    samples = state.orientations @ info.direction
    kappa = config.nu / config.D
    ks = _ks_distance(samples, aligned_marginal_cdf(kappa, config.d))
    return EquilibriumStats(
        ks_statistic=ks,
        n_samples=config.N,
        ks_critical=1.36 / math.sqrt(config.N),
        sample_sufficient=config.N >= 10_000,
        order_parameter=info.leading_eigenvalue,
    )


# ---------------------------------------------------------------------------
# particle vs continuum, parabolically matched


@dataclass(frozen=True)
class CrossScaleReport:
    """Distances between coarse-grained particle fields and continuum fields.

    Densities are compared after normalizing both to unit mean (the
    continuum system is invariant under density scaling); directions by the
    angle between lines, arccos |u1 . u2|, averaged over valid cells.  The
    comparison is qualitative: sampling noise, coarse graining, and the
    finite scale separation all enter the distance.
    """

    eps: float
    times: np.ndarray
    density_distances: np.ndarray
    direction_distances: np.ndarray

    @property
    def final_density_distance(self) -> float:
        return float(self.density_distances[-1])


def _sample_axis_bump(gen: np.random.Generator, n: int, box_length: float) -> np.ndarray:
    """Inverse-CDF samples from density proportional to 1 + A sin(2 pi x / L), A = _CROSS_BUMP."""
    grid = np.linspace(0.0, box_length, 4097)
    phase = 2.0 * math.pi * grid / box_length
    cdf = (grid + _CROSS_BUMP * box_length / (2.0 * math.pi) * (1.0 - np.cos(phase))) / box_length
    return np.interp(gen.random(n), cdf, grid)


def _sample_aligned_orientations(
    gen: np.random.Generator, n: int, kappa: float, u: np.ndarray
) -> np.ndarray:
    """Draws from the aligned equilibrium by inverse CDF in the polar angle."""
    u = assert_unit(u)
    d = u.size
    theta_grid, cum = _polar_angle_table(kappa, d)
    theta = np.interp(gen.random(n), cum, theta_grid)
    r = np.cos(theta)
    basis = complete_basis(u)  # (d, d-1)
    azimuth = gen.standard_normal((n, d - 1))
    azimuth /= np.linalg.norm(azimuth, axis=1, keepdims=True)
    perp = azimuth @ basis.T
    return r[:, None] * u[None, :] + np.sqrt(1.0 - r**2)[:, None] * perp


def _coarse_fields(
    state: ParticleState, grid_n: int, bandwidth: float, box_length: float, reference: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-one density, sign-aligned filled direction field, validity mask."""
    rho_hat, u_hat = coarse_grain(state, grid_n, bandwidth, box_length)
    rho_hat = rho_hat / rho_hat.mean()
    valid = np.isfinite(u_hat).all(axis=-1)
    filled = np.where(valid[..., None], np.nan_to_num(u_hat), reference)
    flip = (filled @ reference) < 0.0
    filled = np.where(flip[..., None], -filled, filled)
    return rho_hat, filled, valid


# density bump amplitude, coarse-graining bandwidth in cells, the fraction
# of the diffusive bound taken as the continuum step, and the number of
# comparison times
_CROSS_BUMP = 0.5
_CROSS_BANDWIDTH_CELLS = 1.5
_CROSS_CFL_SAFETY = 0.2
_CROSS_CHECKPOINTS = 4


def particle_vs_macro(
    config: IbmConfig,
    eps: float,
    T_macro: float,
    *,
    grid_n: int = 32,
) -> CrossScaleReport:
    """Particle run against the limiting continuum system, parabolically matched.

    The particle box of length L carries the density bump 1 + 0.5 sin along
    the first axis and orientations drawn from the aligned equilibrium along
    the second axis.  The continuum fields start from the coarse-grained
    particle initial data (Gaussian bandwidth 1.5 cells) on a box of length
    eps L, and both systems advance to the matched horizon: micro time
    D T_macro / eps^2, with a continuum step at 0.2 of its diffusive bound.
    The continuum coefficients are those at kappa = nu/D, from a radial
    bundle of 1024 elements.  Distances are recorded at up to
    _CROSS_CHECKPOINTS times, spread over the march with fewer steps so that
    no two share a step of either march.
    """
    from .gci.coefficients import compute_coefficients
    from .gci.radial import solve_bundle

    if config.D <= 0.0:
        raise ValueError("D > 0 required for the parabolic matching")
    if not (0.0 < eps < 1.0):
        raise ValueError("eps in (0, 1) required")
    n_micro = step_count(config.D * T_macro / eps**2, config.dt)
    kappa = config.nu / config.D
    d = config.d
    coefficients = compute_coefficients(solve_bundle(kappa, d, 1024))

    gen = stream(config.seed, CROSS_STREAM)
    u0 = np.eye(d)[1]
    positions = gen.random((config.N, d)) * config.box_length
    positions[:, 0] = _sample_axis_bump(gen, config.N, config.box_length)
    orientations = _sample_aligned_orientations(gen, config.N, kappa, u0)
    state = ParticleState(positions, orientations, 0.0)

    box_macro = eps * config.box_length
    dx = box_macro / grid_n
    bandwidth_micro = _CROSS_BANDWIDTH_CELLS * (config.box_length / grid_n)
    rho0, dirs0, _ = _coarse_fields(state, grid_n, bandwidth_micro, config.box_length, u0)
    norms = np.linalg.norm(dirs0, axis=-1, keepdims=True)
    field = MacroField(rho=rho0, u=dirs0 / norms, dx=dx)

    macro_cfg = MacroConfig.at_cfl(coefficients, dx, _CROSS_CFL_SAFETY)
    dt_macro = macro_cfg.dt

    n_macro = step_count(T_macro, dt_macro)
    n_coarse = min(n_micro, n_macro)
    coarse = np.unique(np.round(np.linspace(1, n_coarse, _CROSS_CHECKPOINTS)))
    check_micro, check_macro = (
        np.round(coarse * (n / n_coarse)).astype(int) for n in (n_micro, n_macro)
    )

    times = []
    density_distances = []
    direction_distances = []
    i_macro = 0
    i_micro = 0
    for cm_micro, cm_macro in zip(check_micro, check_macro):
        while i_micro < cm_micro:
            state = step(state, config, stream(config.seed, i_micro))
            i_micro += 1
        while i_macro < cm_macro:
            field = macro_step(field, macro_cfg)
            i_macro += 1
        rho_hat, dirs, valid = _coarse_fields(
            state, grid_n, bandwidth_micro, config.box_length, u0
        )
        dens_dist = float(
            np.linalg.norm(rho_hat - field.rho) / np.linalg.norm(field.rho)
        )
        cosines = np.abs(np.einsum("...i,...i->...", dirs, field.u))
        angles = np.arccos(np.clip(cosines, -1.0, 1.0))
        dir_dist = float(angles[valid].mean()) if valid.any() else float("nan")
        times.append(i_macro * dt_macro)
        density_distances.append(dens_dist)
        direction_distances.append(dir_dist)
    return CrossScaleReport(
        eps=eps,
        times=np.asarray(times),
        density_distances=np.asarray(density_distances),
        direction_distances=np.asarray(direction_distances),
    )
