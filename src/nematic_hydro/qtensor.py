"""Q-tensors and their leading nematic directions.

The Q-tensor of a set of orientations is the symmetric traceless second
moment <omega (x) omega> - Id/d.  Its leading unit eigenvector is the mean
nematic direction, defined up to sign; both signs describe the same line.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import GAP_FLOOR


class DegenerateLeadingEigenvalue(Exception):
    """Leading eigenvalue not simple within the requested gap floor."""


@dataclass(frozen=True)
class SpectralInfo:
    direction: np.ndarray
    leading_eigenvalue: float


def qtensor_from_orientations(orientations: np.ndarray) -> np.ndarray:
    """Average of omega (x) omega - Id/d over the rows of orientations."""
    # one memory layout for every input, so that the matrix product below,
    # and with it the last bits of Q, depend on the values alone
    omega = np.asfortranarray(np.atleast_2d(orientations), dtype=float)
    if omega.shape[0] == 0:
        raise ValueError("empty orientation list")
    n, d = omega.shape
    second = (omega.T * (1.0 / n)) @ omega
    second = 0.5 * (second + second.T)  # the product is not bitwise symmetric
    return second - np.eye(d) / d


def leading_directions(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Leading eigenvalues, unit eigenvectors and gap flags of a batch (..., d, d).

    Returns the leading eigenvalues (...), the leading eigenvectors (..., d)
    with either sign, and ok (...), True where the spectral gap reaches
    GAP_FLOOR.  Only the lower triangle is read.  d = 2 is closed-form: the
    gap is hypot(Q11 - Q22, 2 Q21), and the vector sits at half the angle of
    that point, so its first component is positive.  Larger d takes one
    symmetric eigensolve for the whole batch.
    """
    if Q.shape[-1] == 2:
        diff, off = Q[..., 0, 0] - Q[..., 1, 1], 2.0 * Q[..., 1, 0]
        gap = np.hypot(diff, off)
        phi = 0.5 * np.arctan2(off, diff)
        lam = 0.5 * (Q[..., 0, 0] + Q[..., 1, 1]) + 0.5 * gap
        return lam, np.stack((np.cos(phi), np.sin(phi)), axis=-1), gap >= GAP_FLOOR
    lam, vec = np.linalg.eigh(Q)
    return lam[..., -1], vec[..., :, -1], lam[..., -1] - lam[..., -2] >= GAP_FLOOR


def leading_direction(Q: np.ndarray) -> SpectralInfo:
    """Leading unit eigenvector of Q with a deterministic sign convention.

    Sign: the first nonzero component is positive.  Raises
    DegenerateLeadingEigenvalue when the spectral gap falls below GAP_FLOOR;
    callers choose their own fallback (the particle stepper drops the
    alignment drift for that particle and step).
    """
    lam, v, ok = leading_directions(np.asarray(Q, dtype=float))
    if not ok:
        raise DegenerateLeadingEigenvalue(
            f"leading eigenvalue gap below floor {GAP_FLOOR:.3e}"
        )
    nz = np.nonzero(np.abs(v) > 1e-14)[0]
    if nz.size and v[nz[0]] < 0.0:
        v = -v
    v = v / np.linalg.norm(v)
    return SpectralInfo(direction=v, leading_eigenvalue=float(lam))
