"""Exterior transmission cell problems and polarization tensors by a
single-layer boundary element method.

The cell function phi_p is represented as S[psi_p] with the 2D kernel
-(1/2pi) ln|x-y|; constant densities on flat panels are integrated
exactly (the log antiderivative in panel coordinates), midpoint
collocation assembles the adjoint Neumann-Poincare operator K*, and the
flux-jump contract

    d phi_p / d nu |_+  -  k d phi_p / d nu |_-  =  nu_p   on dB

fixes the second-kind equation ((k+1)/(2(k-1)) I + K*) psi = -nu_p/(k-1).
A rank-one row keeps the total charge at zero, pinning the logarithmic
far field.  The solve records its relative residual, and raises
SolverError above MAX_RESIDUAL; the density reports its zero-charge
check.  Both tensor sign conventions are exposed; see
polarization_tensor.

Both kernels, K* and the single-layer matrix, are computed from each
target's scalar coordinates (s, p) along and across every panel and are
filled one block of target rows at a time.  One rule sizes every block:
BLOCK_PAIRS target-panel pairs, so 128 rows at 1024 panels and 512
corrector targets at 256 panels.  Beyond K* itself, the system matrix and
LAPACK's copy of it, the 1024-panel cell solve holds only a few blocks
(about 1 MB each): its traced allocation peak is about 16 MB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SolverError, ValidationError
from .geometry import InclusionShape

_MIN_PANELS = 32
CONVENTIONS = ("paper", "literature")
BLOCK_PAIRS = 2**17   # target-panel pairs per row block of either kernel
MAX_RESIDUAL = 1e-10  # relative residual allowed of the cell solve


@dataclass(frozen=True)
class Panels:
    vertices: np.ndarray    # (n, 2) closed loop, counterclockwise
    midpoints: np.ndarray   # (n, 2)
    tangents: np.ndarray    # (n, 2) unit, from each vertex to the next
    normals: np.ndarray     # (n, 2) outward unit
    lengths: np.ndarray     # (n,)

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def perimeter(self) -> float:
        return float(np.sum(self.lengths))


def panelize(shape: InclusionShape, n: int) -> Panels:
    if n < _MIN_PANELS:
        raise ValidationError(f"need at least {_MIN_PANELS} panels, got {n}")
    verts = shape.boundary_points(n)
    nxt = np.roll(verts, -1, axis=0)
    tang = nxt - verts
    lengths = np.hypot(tang[:, 0], tang[:, 1])
    if np.any(lengths <= 0):
        raise ValidationError("degenerate panelization")
    tang = tang / lengths[:, None]
    normals = np.column_stack([tang[:, 1], -tang[:, 0]])  # outward for ccw loops
    midpoints = 0.5 * (verts + nxt)
    return Panels(vertices=verts, midpoints=midpoints, tangents=tang, normals=normals,
                  lengths=lengths)


@dataclass
class BoundaryDensity:
    """Single-layer densities psi_p (p = 0, 1) and interior flux traces,
    with the checks of the solve that made them."""

    panels: Panels
    values: np.ndarray          # (n, 2)
    interior_trace: np.ndarray  # (n, 2): d phi_p / d nu |_- at midpoints
    k: float
    shape: InclusionShape
    residual: float             # ||A psi - rhs|| / ||rhs|| of the second-kind solve

    def charge(self, p: int) -> float:
        return float(self.panels.lengths @ self.values[:, p])

    @property
    def zero_charge(self) -> float:
        """The zero-charge check: max_p |charge(p)| / |dB|."""
        return max(abs(self.charge(p)) for p in range(2)) / self.panels.perimeter


@dataclass(frozen=True)
class PolarizationTensor:
    entries: np.ndarray  # (2, 2) symmetric
    shape: InclusionShape
    k: float
    convention: str
    # the cell solve's relative residual and zero-charge check; None at
    # k = 1, which needs no solve
    residual: Optional[float] = None
    zero_charge: Optional[float] = None


# ---------------------------------------------------------------------------
# exact panel integrals of the log kernel
# ---------------------------------------------------------------------------
def _row_blocks(rows: int, panels: int):
    """Slices of at most BLOCK_PAIRS // panels target rows (at least one)."""
    step = max(1, BLOCK_PAIRS // panels)
    return (slice(start, min(start + step, rows)) for start in range(0, rows, step))


def _panel_coordinates(panels: Panels, targets: np.ndarray):
    """(s, p), each (t, n): target coordinates along each panel's tangent
    and its outward normal, from its start vertex."""
    a, tang, perp = panels.vertices, panels.tangents, panels.normals
    dx = targets[:, 0, None] - a[:, 0]
    dy = targets[:, 1, None] - a[:, 1]
    return dx * tang[:, 0] + dy * tang[:, 1], dx * perp[:, 0] + dy * perp[:, 1]


def _log_antiderivative(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """F(w) with F' = (1/2) ln(w^2 + p^2); the w log w -> 0 limit is exact.

    Plain atan(w/p), not arctan2: the antiderivative must be odd in w and
    even in p so the potential stays continuous on both sides of a panel.
    """
    r2 = w * w + p * p
    with np.errstate(divide="ignore", invalid="ignore"):
        term = 0.5 * w * np.log(r2)
        term = np.where(r2 > 0.0, term, 0.0)
        at = np.where(p != 0.0, p * np.arctan(np.where(p != 0.0, w / p, 0.0)), 0.0)
    return term - w + at


def single_layer_matrix(panels: Panels, targets: np.ndarray) -> np.ndarray:
    """S[e_j](targets): exact integral of -(1/2pi) ln r over each panel."""
    s, p = _panel_coordinates(panels, targets)
    upper = _log_antiderivative(panels.lengths - s, p)
    return -(upper - _log_antiderivative(-s, p)) / (2.0 * np.pi)


def _normal_derivative_rows(panels: Panels, targets: np.ndarray,
                            normals: np.ndarray) -> np.ndarray:
    """normals_t . grad_t of the exact panel potentials, (t, n): one row
    block of K*, in a function of its own so the block's temporaries are
    freed before the next block is built.

    The gradient is not defined on a panel itself (its normal part
    jumps), so the entry of a midpoint target on its own panel is
    meaningless; adjoint_np_matrix overwrites that diagonal.
    """
    tang, perp = panels.tangents, panels.normals
    s, p = _panel_coordinates(panels, targets)
    w1 = panels.lengths - s
    w0 = -s
    with np.errstate(divide="ignore"):
        dlds = 0.5 * (np.log(w0 * w0 + p * p) - np.log(w1 * w1 + p * p))
        # plain atan keeps the branch consistent on both sides of the panel;
        # collinear targets beyond the panel ends give atan(+-inf) twice,
        # which cancels to zero
        dldp = np.arctan(w1 / p) - np.arctan(w0 / p)
    return -(dlds * (normals @ tang.T) + dldp * (normals @ perp.T)) / (2.0 * np.pi)


def adjoint_np_matrix(panels: Panels) -> np.ndarray:
    """K* with kernel nu(x) . grad_x of -(1/2pi) ln|x-y|, exact per panel,
    collocated at the panel midpoints and filled in row blocks.

    The diagonal comes from the Gauss flux identity: integrating the
    kernel over x gives -1/2 for any y on a closed curve, so each
    length-weighted column must sum to -len_j/2.  This absorbs the
    near-field curvature error of flat panels; the naive principal-value
    diagonal (zero on a flat panel) converges only at first order in the
    panel count, the identity-based one at second.
    """
    kstar = np.empty((panels.n, panels.n))
    for rows in _row_blocks(panels.n, panels.n):
        kstar[rows] = _normal_derivative_rows(panels, panels.midpoints[rows],
                                              panels.normals[rows])
    np.fill_diagonal(kstar, 0.0)
    w = panels.lengths
    col = (w[:, None] * kstar).sum(axis=0)
    np.fill_diagonal(kstar, (-0.5 * w - col) / w)
    return kstar


# ---------------------------------------------------------------------------
# cell problem and tensor
# ---------------------------------------------------------------------------
def solve_cell_problem(shape: InclusionShape, k: float, panels: int = 256) -> BoundaryDensity:
    """Densities psi_p realizing the flux jump nu_p across the unit-scale
    inclusion boundary, with zero total charge.

    Raises SolverError when the relative residual of the dense solve
    exceeds MAX_RESIDUAL.
    """
    if k <= 0.0:
        raise ValidationError("conductivity must be positive")
    if k == 1.0:
        raise ValidationError("no contrast: k = 1 admits no cell problem")
    pan = panelize(shape, panels)
    lam_np = (k + 1.0) / (2.0 * (k - 1.0))
    kstar = adjoint_np_matrix(pan)
    a = kstar.copy()
    a.flat[:: pan.n + 1] += lam_np
    # rank-one charge pin 1 l^T / |dB|; the true solution is charge-free, so
    # this is consistent and removes the logarithmic far-field mode
    a += pan.lengths / pan.perimeter
    rhs = -pan.normals / (k - 1.0)
    psi = np.linalg.solve(a, rhs)
    residual = float(np.linalg.norm(a @ psi - rhs) / np.linalg.norm(rhs))
    if not residual <= MAX_RESIDUAL:
        raise SolverError(
            f"cell problem: relative residual {residual:.3g} exceeds {MAX_RESIDUAL:g}"
        )
    trace = kstar @ psi + 0.5 * psi  # d/dnu|_- = (+1/2 I + K*) psi
    return BoundaryDensity(panels=pan, values=psi, interior_trace=trace, k=k, shape=shape,
                           residual=residual)


def polarization_tensor(
    shape: InclusionShape, k: float, convention: str = "paper", panels: int = 256
) -> PolarizationTensor:
    """2x2 polarization tensor of the inclusion shape and contrast.

    paper convention:       (1-k)|B| I + (1-k)^2 * integral
    literature convention:  (k-1)|B| I + (k-1)^2 * integral
    where integral_pq = \\int_dB y_p d phi_q/d nu|_- dsigma. The two differ
    by the sign of the linear term only; the calibrate workflow decides
    which one reproduces measured eigenvalue shifts.
    """
    if convention not in CONVENTIONS:
        raise ValidationError(f"convention must be one of {CONVENTIONS}")
    if k == 1.0:
        return PolarizationTensor(entries=np.zeros((2, 2)), shape=shape, k=k,
                                  convention=convention)
    density = solve_cell_problem(shape, k, panels)
    pan = density.panels
    moment = np.einsum(
        "j,jp,jq->pq", pan.lengths, pan.midpoints, density.interior_trace
    )
    linear = (1.0 - k) if convention == "paper" else (k - 1.0)
    entries = linear * shape.area * np.eye(2) + (1.0 - k) ** 2 * moment
    entries = 0.5 * (entries + entries.T)
    return PolarizationTensor(entries=entries, shape=shape, k=k, convention=convention,
                              residual=density.residual, zero_charge=density.zero_charge)


# ---------------------------------------------------------------------------
# corrector field
# ---------------------------------------------------------------------------
NEAR_RADIUS = 5.0    # exact near field within this many panel radii
MULTIPOLE_ORDER = 20  # far-field terms; truncation ~ NEAR_RADIUS**-(order+1)


@dataclass
class Corrector:
    """Evaluator of v(xi) = (c_k/lambda) sum_p du/dx_p(z) phi_p(xi).

    The transmission analysis of the difference field gives c_k = k - 1
    for cell functions with unit-normal flux jump.

    v is the single layer of the combined density psi = values @ coef.
    Targets within NEAR_RADIUS * rho (rho = max |vertex|) get the exact
    flat-panel integral in row blocks of BLOCK_PAIRS target-panel pairs
    (512 targets at 256 panels); beyond, the same
    exact potential is its convergent multipole series (Greengard and
    Rokhlin 1987), -(1/2pi) Re[q log z - sum_k M_k z^-k / k] with
    M_k = sum_j psi_j int_panel_j w^k ds, truncated at MULTIPOLE_ORDER.
    Beyond the per-target arrays, memory is one block whatever the number
    of targets.
    """

    density: BoundaryDensity
    grad_u: np.ndarray
    lam: float

    def __post_init__(self):
        self._coef = (self.density.k - 1.0) / self.lam * np.asarray(self.grad_u, dtype=float)
        pan = self.density.panels
        self._psi = self.density.values @ self._coef
        a = pan.vertices[:, 0] + 1j * pan.vertices[:, 1]
        b = np.roll(a, -1)
        self._near_radius = NEAR_RADIUS * float(np.max(np.abs(a)))
        self._charge = float(pan.lengths @ self._psi)
        # exact segment integrals: int w^k ds = L/(b-a) (b^(k+1) - a^(k+1))/(k+1)
        weight = self._psi * pan.lengths / (b - a)
        k = np.arange(1, MULTIPOLE_ORDER + 1)
        kp1 = k[:, None] + 1
        self._moments = ((b ** kp1 - a ** kp1) / kp1 @ weight) / k  # M_k / k

    def evaluate(self, xi: np.ndarray) -> np.ndarray:
        xi = np.atleast_2d(xi)
        z = xi[:, 0] + 1j * xi[:, 1]
        near = np.abs(z) <= self._near_radius
        out = np.empty(len(xi))
        idx = np.flatnonzero(near)
        for block in _row_blocks(len(idx), self.density.panels.n):
            rows = idx[block]
            out[rows] = single_layer_matrix(self.density.panels, xi[rows]) @ self._psi
        far = ~near
        out[far] = self._multipole(z[far])
        return out  # (t,)

    def _multipole(self, z: np.ndarray) -> np.ndarray:
        u = 1.0 / z
        series = np.zeros_like(z)
        for m in self._moments[::-1]:  # Horner in 1/z
            series = (series + m) * u
        return -(self._charge * np.log(np.abs(z)) - series.real) / (2.0 * np.pi)

    def scaled_physical(self, x: np.ndarray, z, eps: float) -> np.ndarray:
        """The physical-space inner correction eps * v((x - z) / eps)."""
        x = np.atleast_2d(x)
        xi = (x - np.asarray(z, dtype=float)) / eps
        return eps * self.evaluate(xi)


def corrector_field(density: BoundaryDensity, grad_u_at_z, lam: float) -> Corrector:
    """Corrector for one inclusion from its cell densities and the
    background gradient at the inclusion center."""
    grad = np.asarray(grad_u_at_z, dtype=float)
    if grad.shape != (2,):
        raise ValidationError("grad_u_at_z must be a 2-vector")
    return Corrector(density=density, grad_u=grad, lam=lam)
