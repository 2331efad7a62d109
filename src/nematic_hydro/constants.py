"""Shared numeric tolerances, floors and the horizon-to-step rule, fixed in one place."""
import math

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
