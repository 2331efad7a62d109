"""Shared numeric tolerances and floors, fixed in one place."""

UNIT_TOL = 1e-12
"""Tolerance for unit-norm checks on directions."""

GAP_FLOOR = 1e-9
"""Spectral gap below which a leading eigenvector is treated as degenerate."""

RHO_FLOOR = 1e-12
"""Density positivity floor; the macro integrator refuses to divide below it."""
