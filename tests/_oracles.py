"""Reference computations that only the tests run.

They check claims of the derivation (the appendix identities, the Sigma
contractions, the six coefficient identities) and of the discrete collision
operator, but no program path needs them.  The identity checks difference
with macro._ddx, so the stencil under test is the step's own.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from nematic_hydro.gci.coefficients import CoefficientSet
from nematic_hydro.kinetic import AngularDensity, _grid_weights
from nematic_hydro.macro import MacroField, _ddx


def _grad(f: np.ndarray, d: int, dx: float) -> np.ndarray:
    """Centered gradient of a field on a d-axis lattice, trailing axes its
    components: [..., i, *c] = d_i f[..., *c] (the identity checks' route)."""
    return np.stack([_ddx(f, i) for i in range(d)], axis=d) / (2.0 * dx)


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


def gamma_apply(f: AngularDensity, kappa: float, D: float) -> np.ndarray:
    """Collision operator applied to f, as cell-average rates of change.

    The output's discrete mass is exactly zero (telescoping face fluxes).
    """
    n = f.n
    dtheta = np.pi / n
    E, w = _grid_weights(n, f.d, kappa)
    flux = D * w * np.diff(f.values / E) / dtheta
    rate_mass = np.zeros(n)
    rate_mass[:-1] += flux
    rate_mass[1:] -= flux
    return rate_mass / f.measures


def identity_defects(c: CoefficientSet) -> dict[str, float]:
    """Absolute defects of the six internal identities."""
    return {
        "H1_equals_E1": abs(c.H1 - c.E1),
        "F3_closure": abs(c.F3 - 2.0 * c.F2 - c.aux_k_over_cos),
        "G2_G3_link": abs(c.G2 - c.G3 + 2.0 * c.aux_a_over_kappa),
        "G4_G3_link": abs(c.G4 - c.G3 - c.F3 + 2.0 * c.F2),
        "H3_H2_link": abs(c.H3 - c.H2 - c.F1 + c.F2),
        "H4_H3_link": abs(c.H4 - c.H3 - c.aux_ke_combination),
    }
