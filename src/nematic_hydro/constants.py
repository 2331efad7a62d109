"""Shared numeric tolerances, floors, the horizon-to-step rule and the random-stream rule."""
import math

import numpy as np

UNIT_TOL = 1e-12
"""Tolerance for unit-norm checks on directions."""

GAP_FLOOR = 1e-9
"""Spectral gap below which a leading eigenvector is treated as degenerate."""

RHO_FLOOR = 1e-12
"""Density positivity floor; the macro integrator refuses to divide below it."""


def step_count(T: float, dt: float) -> int:
    """Steps of size dt that reach the horizon T; at least one is required."""
    if not math.isfinite(T / dt):
        raise ValueError(f"horizon T = {T:.3g} over the step {dt:.3g} is not a finite step count")
    n_steps = int(round(T / dt))
    if n_steps < 1:
        raise ValueError(f"horizon T = {T:.3g} is shorter than one step of {dt:.3g}")
    return n_steps


INIT_STREAM = 2**64 - 1
"""Stream index of a particle run's initial state, beyond any step count."""

CROSS_STREAM = 2**64 - 2
"""Stream index of particle_vs_macro's initial state, beyond any step count."""


def stream(seed: int, index: int) -> np.random.Generator:
    """The program's one source of random draws: Philox-4x64 keyed (seed, index).

    Each draw is a pure function of the key, so runs are bit-reproducible and
    restartable.  The indices drawn from: t for particle step t (ibm.run and
    particle_vs_macro), INIT_STREAM for ibm's initial state, CROSS_STREAM for
    particle_vs_macro's initial state, and 0 for the gci validate suite.
    """
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
