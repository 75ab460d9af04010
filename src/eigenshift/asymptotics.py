"""Eigenvalue-shift predictions, the Osborn residual machinery, and the
inner-expansion energy measurements.

The predicted shift for a multiplicity-m group is

    (eps^2 / m) sum_j sum_l  grad u^{ij}(z_l) . M^l grad u^{ij}(z_l)

by default; the 1/m normalization follows the operator-average derivation,
but statements of the expansion circulate without it, so the factor is
switchable and the calibration experiment discriminates.  The per-mode
quadratic forms are basis dependent inside a degenerate group, but their
sum is invariant under orthogonal changes of basis, and only the sum
enters predictions.

Osborn quantities are computed entirely from one mesh's discrete
operators, so the identity they verify holds at the discrete level and
the epsilon-asymptotics are not polluted by discretization error.  The
group reference eigenvalue is the harmonic mean of the group's discrete
eigenvalues, which cancels the discrete splitting exactly in the
inner-product term (the modes are mass-normalized).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .field_solver import AssembledSystem, DiscreteGroup, PerturbedGroup, SceneOperators
from .geometry import Mesh, p1_geometry
from .polarization import Corrector, PolarizationTensor


# ---------------------------------------------------------------------------
# predicted shift
# ---------------------------------------------------------------------------
def predicted_shift(
    gradients: np.ndarray,
    tensors: Sequence[PolarizationTensor],
    epsilon: float,
    use_m_factor: bool = True,
) -> float:
    """Polarization-tensor prediction of the averaged eigenvalue shift
    lambda_bar - lambda of a multiplicity-m group, from the (m, L, 2)
    gradients of its modes at the L inclusion centers (analytic disk
    groups stack them with gradients_at; for mesh-only spectra recover
    them first) and one tensor per inclusion.
    """
    gradients = np.asarray(gradients, dtype=float)
    if gradients.ndim != 3 or gradients.shape[2] != 2:
        raise ValidationError("gradients must have shape (m, n_inclusions, 2)")
    if len(tensors) != gradients.shape[1]:
        raise ValidationError("need one polarization tensor per inclusion")
    tens = np.stack([t.entries for t in tensors])  # (L, 2, 2)
    m_grad = np.einsum("lde,jle->jld", tens, gradients)
    total = float(np.einsum("jld,jld->", gradients, m_grad))
    return epsilon**2 * (total / len(gradients) if use_m_factor else total)


def recover_quadratic(mesh: Mesh, values: np.ndarray, z, radius: float):
    """Local least-squares quadratic fit of a nodal field around z.

    Returns (value, gradient, hessian) of the fitted polynomial at z;
    pointwise P1 gradients are discontinuous, the smoothing recovers
    O(h^2) accuracy at interior points.
    """
    z = np.asarray(z, dtype=float)
    d = mesh.nodes - z
    r = np.hypot(d[:, 0], d[:, 1])
    for grow in (1.0, 1.6, 2.6):
        sel = r <= radius * grow
        if np.sum(sel) >= 12:
            break
    else:
        raise ValidationError("not enough nodes for gradient recovery")
    x, y = d[sel, 0], d[sel, 1]
    basis = np.column_stack([np.ones_like(x), x, y, x * x, x * y, y * y])
    coef, *_ = np.linalg.lstsq(basis, values[sel], rcond=None)
    grad = coef[1:3]
    hess = np.array([[2.0 * coef[3], coef[4]], [coef[4], 2.0 * coef[5]]])
    return float(coef[0]), grad, hess


# ---------------------------------------------------------------------------
# Osborn residual
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class OsbornReport:
    lhs: float               # |1/lam - mean(1/lam_eps) - inner_term|
    bound_proxy: float       # ||(T - T_eps)|_span||^2 from the Gram matrix
    inner_term: float
    eigen_term: float        # 1/lam - mean_j 1/lam_eps^j

    def __post_init__(self):
        for v in (self.lhs, self.bound_proxy):
            if not (np.isfinite(v) and v >= 0.0):
                raise ValidationError("Osborn report entries must be finite and nonnegative")


def osborn_residual(
    group: DiscreteGroup,
    perturbed: PerturbedGroup,
    unpert_system: AssembledSystem,
    t_eps: np.ndarray,
) -> OsbornReport:
    """Discrete Osborn identity residual for one matched group.

    `t_eps` holds T_eps u_j in column j for each group mode u_j.
    """
    m = group.multiplicity
    lam_ref = group.lam  # harmonic mean; cancels the discrete splitting
    inner = 0.0
    diffs = []
    for j in range(m):
        u_j, v_eps = group.vectors[:, j], t_eps[:, j]
        inner += unpert_system.inner(u_j / lam_ref - v_eps, u_j)
        diffs.append(u_j / group.lambdas[j] - v_eps)  # exact T u_j = u_j/lam_j
    inner /= m
    eigen_term = 1.0 / lam_ref - float(np.mean(1.0 / perturbed.lambdas))
    lhs = abs(eigen_term - inner)
    d = np.column_stack(diffs)
    gram = d.T @ unpert_system.mass.dot(d)
    bound_proxy = float(np.max(np.linalg.eigvalsh(gram)))
    return OsbornReport(lhs=lhs, bound_proxy=max(bound_proxy, 0.0),
                        inner_term=inner, eigen_term=eigen_term)


# ---------------------------------------------------------------------------
# energy estimate
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class EnergyReport:
    epsilon: float
    h1_uncorrected: float    # ||u_eps - u||_H1
    h1_corrected: float      # ||u_eps - u - eps v(./eps)||_H1
    rhs_proxy: float         # sup|grad u| eps^1.5 + sup|hess u| eps^2 + sup|g| eps^2
    factors: tuple           # the three sup factors on D_eps
    improved: bool


def energy_estimate(ops: SceneOperators, g, lam: float, u_eps, corrector: Corrector
                    ) -> EnergyReport:
    """Measure the source-problem convergence and the corrector's effect.

    `g` is an unperturbed eigenmode with eigenvalue `lam` > 0, as a nodal
    array, so the unperturbed solution is exactly u = T g = g/lam; `u_eps`
    is T_eps g, solved by the caller.  Nothing is solved here.  The
    corrector must correspond to u and is placed at the first active
    inclusion.  The three sup-norms on that inclusion are measured from
    the discrete solution itself.
    """
    if not lam > 0.0:
        raise ValidationError("the source must be a nonconstant eigenmode (lam > 0)")
    inc = [i for i in ops.config.inclusions if i.epsilon > 0.0][0]
    eps = inc.epsilon
    g_vals = np.asarray(g, dtype=float)
    u = g_vals / lam
    diff = u_eps - u
    h1_unc = ops.unperturbed.h1_norm(diff)
    w = corrector.scaled_physical(ops.mesh.nodes, inc.center, eps)
    h1_cor = ops.unperturbed.h1_norm(diff - w)

    sup_grad, sup_hess, sup_g = _discrete_sup_factors(ops.mesh, u, g_vals, inc)
    proxy = sup_grad * eps**1.5 + sup_hess * eps**2 + sup_g * eps**2
    return EnergyReport(
        epsilon=eps,
        h1_uncorrected=h1_unc,
        h1_corrected=h1_cor,
        rhs_proxy=proxy,
        factors=(sup_grad, sup_hess, sup_g),
        improved=h1_cor <= h1_unc,
    )


def _discrete_sup_factors(mesh: Mesh, u, g_vals, inc):
    tris = mesh.triangles[mesh.region == 0]  # the first active inclusion
    e, area = p1_geometry(mesh.nodes, tris)
    # P1 gradient per triangle: sum_i u_i * rot90(e_i) / (2A)
    rot = np.stack([e[:, :, 1], -e[:, :, 0]], axis=2)
    grads = np.einsum("ti,tid->td", u[tris], rot) / (2.0 * area)[:, None]
    sup_grad = float(np.max(np.hypot(grads[:, 0], grads[:, 1]))) if len(tris) else 0.0
    _, _, hess = recover_quadratic(mesh, u, inc.center, radius=4.0 * inc.epsilon)
    sup_hess = float(np.max(np.abs(np.linalg.eigvalsh(hess))))
    sup_g = float(np.max(np.abs(g_vals[tris]))) if len(tris) else 0.0
    return sup_grad, sup_hess, sup_g
