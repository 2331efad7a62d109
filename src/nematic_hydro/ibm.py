"""Particle simulation of nematically aligning self-propelled swimmers.

Each particle carries a position in a periodic box and a unit orientation.
Positions drift along the orientation at unit speed; orientations relax
toward the local mean nematic direction obar at rate nu, scaled by the
cosine omega.obar, plus spherical Brownian noise of intensity sqrt(2 D).
The cosine factor makes the drift even in obar, so only the line spanned
by the local direction matters, never its sign.

The orientation noise is interpreted in the Stratonovich sense and
integrated with a Heun scheme: both stages project the drift and the same
noise increment onto the tangent space of the stage orientation, and the
result is renormalized to the unit sphere.

The stepper works on component columns: a ParticleState holds its (N, d)
arrays in Fortran order, and per-particle quantities such as the cosine
omega.obar are summed over the d columns.  The global kernel's obar is a
single d-vector shared by every particle; the local kernels give one
direction per particle, held as (N, d) columns as well.

Randomness is counter-based.  Step t of a run draws its (N, d) standard
normal table from the fresh generator constants.stream(seed, t); row i
of the table belongs to particle i.  Each draw is a pure function of
(seed, t, N, d), so runs are bit-reproducible and restartable and the
update never depends on the order particles are visited in.  The initial
state draws from the reserved index constants.INIT_STREAM.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .constants import INIT_STREAM, step_count, stream
from .qtensor import (
    DegenerateLeadingEigenvalue,
    leading_direction,
    leading_directions,
    qtensor_from_orientations,
)

KERNELS = ("indicator", "smooth-bump", "global")

# Orientations must stay unit vectors to this tolerance after each step.
ORIENT_TOL = 1e-10


def _is_integer(value: object) -> bool:
    """True for Python and numpy integers; False for bools, floats and strings."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class IbmConfig:
    """Particle model parameters.

    kernel selects the interaction weight profile: "indicator" weighs every
    neighbor within distance R equally, "smooth-bump" weighs by
    exp(-1 / (1 - (dist/R)^2)) inside radius R, and "global" averages over
    the whole box, ignoring R.  Weights are normalized when the local
    Q-tensor is formed, so only their relative profile matters.  nu = 0
    disables alignment and leaves pure angular diffusion.
    """

    N: int
    d: int
    nu: float
    D: float
    R: float
    kernel: str = "indicator"
    box_length: float = 1.0
    dt: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not _is_integer(self.N) or self.N < 1:
            raise ValueError("N must be a positive integer")
        if not _is_integer(self.d) or self.d < 2:
            raise ValueError("d must be an integer >= 2")
        if not (self.nu >= 0.0):
            raise ValueError("nu >= 0 required")
        if not (self.D >= 0.0):
            raise ValueError("D >= 0 required")
        if not (self.R > 0.0):
            raise ValueError("R > 0 required")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {self.kernel!r}")
        if not (self.box_length > 0.0):
            raise ValueError("box_length > 0 required")
        if not (self.dt > 0.0):
            raise ValueError("dt > 0 required")
        if not _is_integer(self.seed) or not (0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer representable in 64 bits")
        # Alignment must stay a small rotation per step.
        if self.dt * self.nu > 0.1:
            raise ValueError(f"dt * nu = {self.dt * self.nu:.3g} exceeds 0.1")
        # Minimum-image neighborhoods are unambiguous only below half the
        # box; the global kernel never reads R.
        if self.kernel != "global" and self.R >= self.box_length / 2.0:
            raise ValueError("R must be smaller than half the box length")


@dataclass(frozen=True)
class ParticleState:
    """Positions in [0, L)^d, unit orientations, and the current time.

    Both arrays are held as (N, d) float columns in Fortran order, so each
    component is one contiguous column.  Arrays already in that layout, as
    step returns them, are kept as they are; others are copied once.
    """

    positions: np.ndarray
    orientations: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        pos = np.asfortranarray(self.positions, dtype=float)
        omega = np.asfortranarray(self.orientations, dtype=float)
        if pos.ndim != 2 or pos.shape[1] < 2:
            raise ValueError("positions must have shape (N, d) with d >= 2")
        if omega.shape != pos.shape:
            raise ValueError("orientations must match the shape of positions")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "orientations", omega)
        object.__setattr__(self, "time", float(self.time))

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    def validate(self, box_length: float) -> None:
        """Check the wrap and unit-norm invariants, raising on violation (NaN fails)."""
        norms = np.linalg.norm(self.orientations, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if not worst <= ORIENT_TOL:
            raise ValueError(f"orientation norms deviate from 1 by {worst:.3e}")
        if not (self.positions.min() >= 0.0 and self.positions.max() < box_length):
            raise ValueError("positions must lie in [0, box_length)")


@dataclass(frozen=True)
class Observation:
    """Snapshot summary recorded by run."""

    time: float
    qtensor: np.ndarray
    order_parameter: float


def _wrap(positions: np.ndarray, box_length: float) -> np.ndarray:
    wrapped = positions - box_length * np.floor(positions / box_length)
    # a tiny negative coordinate rounds up to exactly box_length
    wrapped[wrapped >= box_length] = 0.0
    return wrapped


def _min_image(disp: np.ndarray, box_length: float) -> np.ndarray:
    return disp - box_length * np.round(disp / box_length)


def _squared_lengths(components: Iterable[np.ndarray]) -> np.ndarray:
    """Sum of the squares of displacement components, in one fixed order.

    The even and the odd components accumulate left to right in two partial
    sums, which are added last.  Whether a pair at the kernel radius counts
    rests on the last bit of this sum, so every neighbour path takes its
    squared distances from here and decides such a pair alike.
    """
    partial = []
    for k, x in enumerate(components):
        if k < 2:
            partial.append(x * x)
        else:
            partial[k % 2] += x * x
    return partial[0] + partial[1]


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-particle dot products, summed column by column.

    a is (N, d); b is (N, d) or one d-vector shared by every particle.
    """
    out = a[:, 0] * b[..., 0]
    for k in range(1, a.shape[1]):
        out += a[:, k] * b[..., k]
    return out


def _normalize(vectors: np.ndarray) -> np.ndarray:
    """Scale each row of vectors to unit length, in place."""
    norms = np.sqrt(_row_dots(vectors, vectors))
    if not (norms.min() >= 1e-6 and norms.max() < math.inf):  # a NaN norm fails both
        cause = "is not finite" if not np.isfinite(norms).all() else "collapsed to the origin"
        raise ArithmeticError(
            f"orientation update {cause}; the noise step is too large for this dt"
        )
    vectors /= norms[:, None]
    return vectors


def _normalize_update(update: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """_normalize of an update from the orientations omega, which are checked
    only when it fails: a bad input row fails there too, and is named."""
    try:
        return _normalize(update)
    except ArithmeticError as exc:
        if not np.abs(np.sqrt(_row_dots(omega, omega)) - 1.0).max() <= ORIENT_TOL:
            raise ArithmeticError("input state has a non-finite or non-unit orientation") from exc
        raise


def _kernel_weights(dist2: np.ndarray, config: IbmConfig) -> np.ndarray:
    """Relative interaction weight per squared distance (self included), for
    the local kernels; the global kernel weighs no pairs."""
    s2 = dist2 / (config.R * config.R)
    if config.kernel == "indicator":
        return (s2 <= 1.0).astype(float)
    inside = s2 < 1.0
    w = np.zeros_like(dist2)
    w[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    return w


def _upper_pairs(d: int) -> list[tuple[int, int]]:
    """The pairs a <= b of a d x d upper triangle, row by row, but (d-1, d-1)."""
    return [(a, b) for a in range(d) for b in range(a, d)][:-1]


def _qtensors(moments: np.ndarray, weights: np.ndarray, d: int) -> np.ndarray:
    """Q-tensors (n, d, d) from the (k, n) sums of w omega_a omega_b over
    _upper_pairs(d) and the n sums of w.  Orientations are unit vectors, so
    the sum for (d-1, d-1) is the weight sum minus the other diagonal sums:
    Q's last diagonal entry is minus the sum of the others."""
    Q = np.empty((weights.shape[0], d, d))
    for (a, b), m in zip(_upper_pairs(d), moments):
        Q[:, a, b] = Q[:, b, a] = m / weights - (a == b) / d
    Q[:, -1, -1] = -np.trace(Q[:, :-1, :-1], axis1=1, axis2=2)
    return Q


def _local_moments(
    positions: np.ndarray, orientations: np.ndarray, config: IbmConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Kernel-weighted sums of omega_a omega_b over _upper_pairs(d), (k, N),
    and of the weights, (N,).

    A periodic k-d tree lists every pair of particles within R once; the
    minimum-image distance and the kernel then decide each pair's weight,
    which is added to both endpoints.  The search radius carries a relative
    margin of 1e-9 so that rounding in the tree's own distances cannot drop
    a pair the kernel would keep.  Every particle also counts itself with
    the weight at distance zero, so the weight sum stays positive.  The
    cost is O(N) at fixed density, for any box and any d.  The global
    kernel does not come here: it needs no neighbour search.

    Pair quantities are gathered one component column at a time, and the
    two endpoints of the pairs are summed one after the other, so at most d
    gathered orientation columns are held at once.
    """
    from scipy.spatial import cKDTree  # slow to import; only the local kernels need it

    n, d = positions.shape
    # an unbalanced tree builds faster and finds the same pairs
    tree = cKDTree(positions, boxsize=config.box_length, balanced_tree=False)
    pairs = tree.query_pairs(config.R * (1.0 + 1e-9), output_type="ndarray")
    i, j = np.ascontiguousarray(pairs.T)
    del pairs
    dist2 = _squared_lengths(
        _min_image(x[i] - x[j], config.box_length) for x in positions.T
    )
    w = _kernel_weights(dist2, config)
    del dist2
    w_self = float(_kernel_weights(np.zeros(1), config)[0])

    wsum = w_self + np.bincount(i, weights=w, minlength=n)
    wsum += np.bincount(j, weights=w, minlength=n)
    upper = _upper_pairs(d)
    moments = np.empty((len(upper), n))
    for k, (a, b) in enumerate(upper):
        moments[k] = w_self * orientations[:, a] * orientations[:, b]
    # each pair adds the other endpoint's orientation to both of its endpoints
    for centre, other in ((i, j), (j, i)):
        om = [orientations[:, a][other] for a in range(d)]
        for k, (a, b) in enumerate(upper):
            if b == a:  # each row of the triangle starts on the diagonal
                w_a = w * om[a]
            moments[k] += np.bincount(centre, weights=w_a * om[b], minlength=n)
        del om, w_a
    return moments, wsum


def _mean_directions(
    positions: np.ndarray, orientations: np.ndarray, config: IbmConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Local mean nematic direction of every particle, for the local kernels.

    The directions come back as (N, d) component columns.  Rows whose
    spectral gap falls below GAP_FLOOR are zeroed and flagged False; the
    alignment drift vanishes for them because it is bilinear in the
    direction.
    """
    moments, wsum = _local_moments(positions, orientations, config)
    _, vec, ok = leading_directions(_qtensors(moments, wsum, orientations.shape[1]))
    dirs = np.asfortranarray(vec)
    dirs[~ok] = 0.0
    return dirs, ok


def _global_direction(orientations: np.ndarray) -> np.ndarray:
    """The one mean nematic direction of the whole box, as a d-vector.

    A degenerate Q-tensor gives the zero vector, and with it no drift, as
    for the zeroed rows of _mean_directions.
    """
    try:
        return leading_direction(qtensor_from_orientations(orientations)).direction
    except DegenerateLeadingEigenvalue:
        return np.zeros(orientations.shape[1])


def _drift(
    omega: np.ndarray, obar: np.ndarray, nu: float, out: np.ndarray
) -> np.ndarray:
    """nu (omega.obar) P_perp obar, written into out.

    obar is one d-vector (global kernel) or (N, d) columns (local kernels).
    The drift is even in obar, so the eigenvector sign chosen by the
    decomposition cannot influence the dynamics.
    """
    c = _row_dots(omega, obar)[:, None]
    np.multiply(c, omega, out=out)
    np.subtract(obar, out, out=out)
    out *= nu * c
    return out


def _project(omega: np.ndarray, vectors: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Tangential part of vectors at the unit rows of omega, written into out."""
    np.multiply(_row_dots(omega, vectors)[:, None], omega, out=out)
    np.subtract(vectors, out, out=out)
    return out


def step(
    state: ParticleState, config: IbmConfig, rng: np.random.Generator
) -> ParticleState:
    """One synchronous update of every particle.

    The local mean directions come from the pre-step state and are held
    fixed through both Heun stages, so each particle sees the same snapshot
    regardless of visit order.  Both stages project the drift and the same
    noise increment onto the tangent space of the stage orientation; the
    combined update is renormalized.  Positions advance along the pre-step
    orientation and wrap periodically.  The input state is left untouched.
    """
    omega = state.orientations
    dt = config.dt
    if config.nu == 0.0:
        # No alignment: skip the neighbor pass; a zero direction gives zero drift.
        obar = np.zeros(omega.shape[1])
    elif config.kernel == "global":
        obar = _global_direction(omega)
    else:
        obar, _ = _mean_directions(state.positions, omega, config)
    noise = np.multiply(
        rng.standard_normal(omega.shape),
        math.sqrt(2.0 * config.D * dt),
        out=np.empty_like(omega),
    )

    noise0 = _project(omega, noise, np.empty_like(omega))
    drift0 = _drift(omega, obar, config.nu, np.empty_like(omega))
    stage = np.multiply(dt, drift0, out=np.empty_like(omega))
    stage += omega
    stage += noise0
    _normalize_update(stage, omega)
    # half the sum of both stages' noise increments
    noise_mean = _project(stage, noise, np.empty_like(omega))
    noise_mean += noise0
    noise_mean *= 0.5
    combined = _drift(stage, obar, config.nu, stage)
    combined += drift0
    combined *= 0.5 * dt
    combined += omega
    combined += noise_mean
    new_omega = _normalize_update(combined, omega)
    new_pos = _wrap(state.positions + dt * omega, config.box_length)
    return ParticleState(new_pos, new_omega, state.time + dt)


def initial_state(config: IbmConfig) -> ParticleState:
    """Uniform positions and isotropic orientations from the reserved stream."""
    gen = stream(config.seed, INIT_STREAM)
    positions = config.box_length * gen.random((config.N, config.d))
    orientations = _normalize(gen.standard_normal((config.N, config.d)))
    return ParticleState(positions, orientations, 0.0)


def _observe(state: ParticleState) -> Observation:
    Q = qtensor_from_orientations(state.orientations)
    return Observation(state.time, Q, float(leading_directions(Q)[0]))


def run(
    config: IbmConfig, T: float, observe_every: int = 1
) -> tuple[list[Observation], ParticleState]:
    """Simulate from an isotropic random start to time T.

    Records step 0, every observe_every-th step, and the final step.  Each
    observation carries the global Q-tensor and its leading eigenvalue as
    the scalar order parameter.  Returns the observations and the final
    state; step t draws from the stream keyed (config.seed, t).  Same
    config, same observations and final state, bit for bit.
    """
    if not _is_integer(observe_every) or observe_every < 1:
        raise ValueError("observe_every must be a positive integer")
    n_steps = step_count(T, config.dt)
    state = initial_state(config)
    observations = [_observe(state)]
    for t in range(n_steps):
        state = step(state, config, stream(config.seed, t))
        if (t + 1) % observe_every == 0 or t + 1 == n_steps:
            observations.append(_observe(state))
    return observations, state


def coarse_grain(
    state: ParticleState, grid_n: int, bandwidth: float, box_length: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gridded density and nematic direction estimates.

    Density: particles are binned to the uniform grid and smoothed with a
    periodic Gaussian of width bandwidth (length units; 0 skips smoothing).
    The result is a number density, integrating to N over the box.

    Direction: per-cell Q-tensor of the binned orientations, leading unit
    eigenvector per cell.  Cells that are empty or whose Q-tensor is
    degenerate get NaN rows.  Directions always come from eigenvectors of
    averaged outer products, never from averaging orientation vectors,
    which would cancel for nematic states.
    """
    if not _is_integer(grid_n) or grid_n < 1:
        raise ValueError("grid_n must be a positive integer")
    if not (0.0 <= bandwidth < math.inf):
        raise ValueError("0 <= bandwidth < inf required")
    n, d = state.positions.shape
    cell_size = box_length / grid_n
    coords = np.minimum((state.positions / cell_size).astype(np.int64), grid_n - 1)
    shape = (grid_n,) * d
    cell_id = np.ravel_multi_index(tuple(coords.T), shape)
    counts = np.bincount(cell_id, minlength=grid_n**d).astype(float)

    rho_hat = (counts / cell_size**d).reshape(shape)
    if bandwidth > 0.0:
        # a bandwidth far beyond the box leaves only the mean, the k = 0 mode
        with np.errstate(over="ignore"):
            try:
                square = bandwidth**2
            except OverflowError:  # a Python float raises where numpy's overflows to inf
                square = math.inf
            if math.isfinite(square):
                k = [2.0 * np.pi * np.fft.fftfreq(grid_n, d=cell_size) for _ in range(d)]
                k2 = sum(g**2 for g in np.meshgrid(*k, indexing="ij"))
                rho_hat = np.fft.ifftn(np.fft.fftn(rho_hat) * np.exp(-0.5 * square * k2)).real
            else:
                rho_hat = np.full(shape, rho_hat.mean())

    omega = state.orientations
    moments = np.array([
        np.bincount(cell_id, weights=omega[:, a] * omega[:, b], minlength=grid_n**d)
        for a, b in _upper_pairs(d)
    ])
    occupied = counts > 0
    u_hat = np.full((grid_n**d, d), np.nan)
    if occupied.any():
        _, dirs, ok = leading_directions(_qtensors(moments[:, occupied], counts[occupied], d))
        u_hat[occupied] = np.where(ok[:, None], dirs, np.nan)
    return rho_hat, u_hat.reshape(shape + (d,))


__all__ = [
    "KERNELS",
    "ORIENT_TOL",
    "IbmConfig",
    "ParticleState",
    "Observation",
    "initial_state",
    "step",
    "run",
    "coarse_grain",
]
