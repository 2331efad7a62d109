"""Analytical core: aligned equilibrium, radial profiles, collision invariant,
first-order corrector, and the sixteen macroscopic transport coefficients."""

from .equilibrium import Equilibrium, make_equilibrium
from .radial import ALL_KINDS, RadialSolution, solve_bundle
from .coefficients import (
    COEFFICIENT_NAMES,
    CoefficientSet,
    compute_coefficients,
    compute_coefficients_derivation,
    max_discrepancy,
)
from .corrector import CorrectorInputs, corrector_f1, gci_vector

__all__ = [
    "ALL_KINDS",
    "COEFFICIENT_NAMES",
    "CoefficientSet",
    "CorrectorInputs",
    "Equilibrium",
    "RadialSolution",
    "compute_coefficients",
    "compute_coefficients_derivation",
    "corrector_f1",
    "gci_vector",
    "make_equilibrium",
    "max_discrepancy",
    "solve_bundle",
]
