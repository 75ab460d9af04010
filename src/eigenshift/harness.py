"""Sweep orchestration: rate fitting, Weyl checks, sup-norm bound tables,
convention calibration, and the per-epsilon eigenvalue-shift experiment.

A sweep first observes, then scores.  Observing is the expensive FEM
part: each sweep point runs one `field_solver.observe`, which builds one
inclusion-conforming mesh and differences perturbed against unperturbed
eigenvalues on it, and adds the Osborn and energy diagnostics; the
optional noise-floor estimate observes one more, coarser mesh at the
smallest eps.  Scoring is cheap and is done by
`apply_convention` alone: predictions under one tensor convention,
remainders, the shift and remainder fits and the ratio monotonicity, so
calibration re-scores one set of observations under every candidate.

The resolution near the inclusion follows h0(eps) = min(mesh_h, c * eps^(5/4)):
measured on the disk benchmark, a fixed global h leaves an
eps-independent absolute bias (~2e-6 at h=0.02) that would swamp the
eps^(5/2) remainder at the smallest eps, while the eps^(5/4) schedule
keeps the bias below the remainder envelope at every point.  h0 is the
mesh's `near_h`: it holds within d0/2 of the inclusion and along the
domain boundary, and the background lattice grows from it to the scene's
`mesh_h` (see `geometry`).  On the benchmark scene at eps = 0.02 that
is 22,872 nodes where h0 everywhere took 101,309, and the shift moved by
1.0e-7, below its two-resolution floor of 2.3e-7.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import disk_spectrum as ds
from . import field_solver as fs
from . import polarization as pol
from .asymptotics import (
    energy_estimate,
    osborn_residual,
    predicted_shift,
    recover_quadratic,
)
from .errors import CalibrationError, FitError, ValidationError
from .geometry import DomainSpec, InclusionSpec, SceneConfig, validate_scene

MESH_SCHEDULE_COEFF = 0.8
MESH_SCHEDULE_POWER = 1.25
FLOOR_COARSENING = 1.4  # schedule coefficient factor of the noise floor's coarse mesh
CONVENTION_CANDIDATES = tuple(
    (conv, use_m) for conv in pol.CONVENTIONS for use_m in (True, False)
)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RateReport:
    samples: tuple             # ((eps, value), ...)
    slope: float
    intercept: float
    r_squared: float
    window: tuple              # indices used
    refit: Optional["RateReport"] = None

    @property
    def preferred(self) -> "RateReport":
        """The refit (largest-eps point dropped) when the full fit was poor."""
        return self.refit if self.refit is not None else self


def fit_rate(samples: Sequence[tuple]) -> RateReport:
    """Least-squares line on (log eps, log value).

    When r^2 < 0.98 the largest-eps point is dropped once and the refit
    attached (preasymptotic contamination); both fits are reported.
    """
    report = _fit_line(samples)
    if report.r_squared < 0.98 and len(report.samples) >= 4:
        largest = int(np.argmax([e for e, _ in report.samples]))
        keep = tuple(i for i in range(len(report.samples)) if i != largest)
        sub = _fit_line([report.samples[i] for i in keep])
        report = replace(report, refit=replace(sub, window=keep))
    return report


def _fit_line(samples: Sequence[tuple]) -> RateReport:
    samples = tuple((float(e), float(v)) for e, v in samples)
    if len(samples) < 3:
        raise FitError("insufficient data: need at least 3 samples")
    eps = np.array([s[0] for s in samples])
    val = np.array([s[1] for s in samples])
    if len(np.unique(eps)) != len(eps):
        raise FitError("epsilon values must be distinct")
    if np.any(val <= 0.0):
        raise FitError("rate fit requires positive values")
    x, y = np.log(eps), np.log(val)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return RateReport(
        samples=samples,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=max(0.0, min(1.0, r2)),
        window=tuple(range(len(samples))),
    )


# ---------------------------------------------------------------------------
# Weyl checks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WeylReport:
    lambda_grid: np.ndarray
    counts: np.ndarray
    counting_slope: float        # fitted N(lambda)/lambda
    weyl_constant: float         # |Omega| / (4 pi)
    index_fit_slope: float       # lambda_i vs i over i in [10, 150]
    index_fit_r2: float


def _rectangle_eigenvalues(width: float, height: float, lam_max: float) -> np.ndarray:
    # (pi/w)^2 m^2 rather than (m pi/w)^2: on the pi x pi square the
    # scales are exactly 1, so eigenvalues equal the lattice values m^2 + n^2
    cx, cy = (np.pi / width) ** 2, (np.pi / height) ** 2
    out = []
    m = 0
    while cx * m * m <= lam_max:
        n = 0
        while True:
            lam = cx * m * m + cy * n * n
            if lam > lam_max:
                break
            out.append(lam)
            n += 1
        m += 1
    return np.sort(np.array(out))


def weyl_check(domain: DomainSpec, count: int = 200, lam_max: Optional[float] = None) -> WeylReport:
    """Counting-function and index-growth fits against the Weyl constant."""
    if domain.kind == "disk":
        groups = ds.disk_spectrum_list(domain.radius, min(count, 400))
        lams = np.array([g.lam for g in groups for _ in range(g.multiplicity)])[:count]
        if lam_max is None:
            lam_max = float(lams[-1])
        lams = lams[lams <= lam_max]
    elif domain.kind == "rectangle":
        if lam_max is None:
            lam_max = 200.0
        lams = _rectangle_eigenvalues(domain.width, domain.height, lam_max)
    else:
        raise ValidationError("weyl_check supports disk and rectangle domains")

    grid = np.linspace(lam_max / 20.0, lam_max, 20)
    counts = np.array([np.sum(lams <= g) for g in grid], dtype=float)
    counting_slope = float(np.sum(counts * grid) / np.sum(grid * grid))

    hi = min(150, len(lams) - 1)
    idx = np.arange(10, hi + 1)
    if len(idx) >= 3:
        lam_slice = lams[idx - 1]
        coef = np.polyfit(idx, lam_slice, 1)
        pred = np.polyval(coef, idx)
        ss_tot = np.sum((lam_slice - lam_slice.mean()) ** 2)
        r2 = 1.0 - float(np.sum((lam_slice - pred) ** 2)) / float(ss_tot)
        index_slope = float(coef[0])
    else:
        index_slope, r2 = np.nan, np.nan
    return WeylReport(
        lambda_grid=grid,
        counts=counts,
        counting_slope=counting_slope,
        weyl_constant=domain.measure / (4.0 * np.pi),
        index_fit_slope=index_slope,
        index_fit_r2=float(r2),
    )


# ---------------------------------------------------------------------------
# uniform sup-norm bound table
# ---------------------------------------------------------------------------
def sup_norm_bound_table(
    radius: float = 1.0,
    probe_center: tuple = (0.4, 0.0),
    probe_radius: float = 0.05,
    n_groups: int = 50,
    grid: int = 40,
) -> dict:
    """Per-group sup norms of u, grad u / sqrt(lam), hess u / lam on a probe
    disk, by dense polar sampling (>= grid x grid points)."""
    if not n_groups >= 1:
        raise ValidationError(f"n_groups must be >= 1, got {n_groups!r}")
    center = np.asarray(probe_center, dtype=float)
    if np.hypot(*center) + probe_radius > radius:
        raise ValidationError("probe disk extends outside the domain")
    groups = ds.disk_spectrum_list(radius, min(400, 2 * n_groups + 10))
    if len(groups) < n_groups:
        raise ValidationError("not enough analytic groups available")
    groups = groups[:n_groups]
    rr, tt = np.meshgrid(
        np.linspace(0.0, probe_radius, grid), np.linspace(0.0, 2 * np.pi, grid, endpoint=False),
        indexing="ij",
    )
    pts = center + np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    val_col, grad_col, hess_col = [], [], []
    for g in groups:
        sup_v = sup_g = sup_h = 0.0
        for f in g.functions:
            values, grads, hess = f.evaluate(pts)
            sup_v = max(sup_v, float(np.max(np.abs(values))))
            sup_g = max(sup_g, float(np.max(np.hypot(grads[:, 0], grads[:, 1]))))
            sup_h = max(sup_h, float(np.max(np.abs(hess))))
        val_col.append(sup_v)
        if g.lam == 0.0:
            grad_col.append(0.0)
            hess_col.append(0.0)
        else:
            grad_col.append(sup_g / np.sqrt(g.lam))
            hess_col.append(sup_h / g.lam)
    return {
        "lambda": np.array([g.lam for g in groups]),
        "multiplicity": np.array([g.multiplicity for g in groups]),
        "sup_u": np.array(val_col),
        "sup_grad_scaled": np.array(grad_col),
        "sup_hess_scaled": np.array(hess_col),
    }


# ---------------------------------------------------------------------------
# sweep machinery
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepPoint:
    eps: float
    group_rank: int
    lambda_ref: float            # unperturbed discrete reference (harmonic mean)
    lambda_bar: float            # harmonic average of the matched eigenvalues
    observed: float              # lambda_bar - lambda_ref
    overlap: float
    gradients: np.ndarray        # analytic (m, L, 2) at the inclusion centers
    group_lam_analytic: float
    multiplicity: int
    osborn_lhs: float
    osborn_bound: float
    osborn_inner: float
    osborn_eigen: float
    energy_h1: float
    energy_h1_corrected: float
    energy_rhs_proxy: float
    mesh_nodes: int
    mesh_h0: float
    mesh_min_angle: float        # degrees, the mesh's smallest triangle angle
    stiffness_nnz: int           # stored nonzeros of the perturbed stiffness
    lu_fill: int                 # nonzeros of the perturbed grounded LU (SuperLU.nnz)


@dataclass
class SweepResult:
    """A sweep's observations and, once apply_convention has scored them,
    its predictions, remainders and fits under one convention."""

    points: list
    scene: SceneConfig
    observed: np.ndarray
    group_rank: int
    alpha: float
    noise_floor: Optional[float]
    floor_dominated: bool
    convention: Optional[str] = None
    use_m_factor: bool = True
    predicted: Optional[np.ndarray] = None
    signed_remainder: Optional[np.ndarray] = None   # observed - predicted
    remainder: Optional[np.ndarray] = None          # |observed - predicted|
    shift_fit: Optional[RateReport] = None
    remainder_fit: Optional[RateReport] = None
    ratio_monotone: bool = False

    @property
    def remainder_sign_changes(self) -> Optional[int]:
        """Sign changes of the signed remainder over ascending eps (None
        until scored).  A remainder fit across one reads |observed -
        predicted| through a cancellation, not a power law."""
        if self.signed_remainder is None:
            return None
        signs = np.sign(self.signed_remainder)
        signs = signs[signs != 0.0]
        return int(np.count_nonzero(signs[1:] != signs[:-1]))

    def summary(self) -> dict:
        point = self.points[0]
        signed = (
            [None] * len(self.points) if self.signed_remainder is None
            else [float(r) for r in self.signed_remainder]
        )
        return {
            "shift_order": self.shift_fit.preferred.slope if self.shift_fit else None,
            "remainder_order": (
                self.remainder_fit.preferred.slope if self.remainder_fit else None
            ),
            "remainder_sign_changes": self.remainder_sign_changes,
            "convention": self.convention,
            "use_m_factor": self.use_m_factor,
            "group": {"lambda": point.group_lam_analytic, "m": point.multiplicity},
            "alpha": self.alpha,
            "ratio_monotone": self.ratio_monotone,
            "noise_floor": self.noise_floor,
            "floor_dominated": self.floor_dominated,
            "shift_fit_r2": self.shift_fit.preferred.r_squared if self.shift_fit else None,
            "epsilons": [p.eps for p in self.points],
            "points": [_point_record(p, rem) for p, rem in zip(self.points, signed)],
        }


def _point_record(p: SweepPoint, signed_remainder: Optional[float]) -> dict:
    """One point of sweep_summary.json: its mesh (nodes, h0, minimum angle),
    the perturbed system's stiffness nonzeros and LU fill, matching
    overlap, signed remainder (None until scored) and Osborn and energy
    diagnostics."""
    return {
        "eps": p.eps,
        "mesh_nodes": p.mesh_nodes,
        "mesh_h0": p.mesh_h0,
        "mesh_min_angle": p.mesh_min_angle,
        "stiffness_nnz": p.stiffness_nnz,
        "lu_fill": p.lu_fill,
        "overlap": float(p.overlap),
        "signed_remainder": signed_remainder,
        "osborn_lhs": float(p.osborn_lhs),
        "osborn_bound": float(p.osborn_bound),
        "osborn_inner": float(p.osborn_inner),
        "osborn_eigen": float(p.osborn_eigen),
        "energy_h1": float(p.energy_h1),
        "energy_h1_corrected": float(p.energy_h1_corrected),
        "energy_rhs_proxy": float(p.energy_rhs_proxy),
    }


def schedule_mesh_h(eps: float, cap: float, coeff: float = MESH_SCHEDULE_COEFF) -> float:
    return float(min(cap, coeff * eps**MESH_SCHEDULE_POWER))


def _analytic_groups(scene: SceneConfig, max_rank: int) -> list:
    """Analytic disk groups for the scene's domain, up to rank max_rank + 1.

    The list for the largest rank serves every point of a sweep: its
    prefix holds each smaller rank's multiplicities.
    """
    if scene.domain.kind != "disk":
        raise ValidationError("sweeps require a disk domain (analytic reference)")
    groups = ds.disk_spectrum_list(scene.domain.radius, min(400, 3 * (max_rank + 1) + 4))
    if len(groups) <= max_rank:
        raise ValidationError(f"analytic spectrum too short for rank {max_rank}")
    return groups


def _point_config(scene: SceneConfig, eps: float, sched_coeff: float) -> SceneConfig:
    """The scene at one eps, meshed at the scheduled resolution h0 near the
    inclusions and the domain boundary, graded to mesh_h beyond."""
    inclusions = tuple(replace(inc, epsilon=eps) for inc in scene.inclusions)
    return replace(scene, inclusions=inclusions,
                   near_h=schedule_mesh_h(eps, scene.mesh_h, sched_coeff))


def _observe(
    scene: SceneConfig, eps: float, rank: int, seed: int, sched_coeff: float,
    analytic_groups: list,
) -> tuple:
    """The FEM observation at one eps, `fs.observe`'s (ops, groups, matched),
    with the spectrum resolved through rank + 1 plus two guard pairs."""
    mults = [g.multiplicity for g in analytic_groups[: rank + 1]]
    return fs.observe(_point_config(scene, eps, sched_coeff), min(sum(mults) + 2, 300),
                      mults, seed)


def _sweep_point(
    scene: SceneConfig, eps: float, rank: int, seed: int, sched_coeff: float,
    analytic_groups: list,
) -> SweepPoint:
    """One epsilon: the observation's matched group, Osborn and energy data."""
    ops, groups, matched = _observe(scene, eps, rank, seed, sched_coeff, analytic_groups)
    grp, pg = groups[rank - 1], matched[rank - 1]
    a_grp = analytic_groups[rank - 1]
    inclusions, h0 = ops.config.inclusions, ops.config.near_h

    centers = [inc.center for inc in inclusions]
    grad_analytic = np.stack([a_grp.gradients_at(z) for z in centers], axis=1)

    # the point's only source solves: T_eps of each group mode, on the
    # perturbed factor; the unperturbed images are exact, T u_j = u_j/lam_j
    t_eps = np.column_stack([fs.solve_source(ops.perturbed, u) for u in grp.vectors.T])
    osborn = osborn_residual(grp, pg, ops.unperturbed, t_eps)
    # energy experiment: source g = first group mode, u_eps = its T_eps image;
    # the corrector gradient comes from the discrete mode itself so its
    # basis and sign match the field being corrected
    g_mode = grp.vectors[:, 0]
    density = pol.solve_cell_problem(inclusions[0].shape, inclusions[0].k)
    _, g_rec, _ = recover_quadratic(ops.mesh, g_mode, centers[0], radius=3.0 * h0)
    corrector = pol.corrector_field(density, g_rec / grp.lambdas[0], 1.0)
    energy = energy_estimate(ops, g_mode, grp.lambdas[0], t_eps[:, 0], corrector)

    return SweepPoint(
        eps=eps,
        group_rank=rank,
        lambda_ref=grp.lam,
        lambda_bar=pg.harmonic_average,
        observed=pg.harmonic_average - grp.lam,
        overlap=pg.overlap,
        gradients=grad_analytic,
        group_lam_analytic=a_grp.lam,
        multiplicity=a_grp.multiplicity,
        osborn_lhs=osborn.lhs,
        osborn_bound=osborn.bound_proxy,
        osborn_inner=osborn.inner_term,
        osborn_eigen=osborn.eigen_term,
        energy_h1=energy.h1_uncorrected,
        energy_h1_corrected=energy.h1_corrected,
        energy_rhs_proxy=energy.rhs_proxy,
        mesh_nodes=len(ops.mesh.nodes),
        mesh_h0=h0,
        mesh_min_angle=ops.mesh.min_angle(),
        stiffness_nnz=int(ops.perturbed.stiffness.nnz),
        lu_fill=ops.perturbed.lu_fill,
    )


def _predictions(points, scene, convention, use_m_factor):
    tensors = [
        pol.polarization_tensor(inc.shape, inc.k, convention)
        for inc in scene.inclusions
    ]

    return np.array([
        predicted_shift(p.gradients, tensors, p.eps, use_m_factor) for p in points
    ])


def run_sweep(
    scene: SceneConfig,
    eps_list: Sequence[float],
    group_rank: int = 2,
    convention: str = "literature",
    use_m_factor: bool = True,
    alpha: float = 0.0,
    workers: int = 1,
    seed: int = 0,
    calibration_path: Optional[str] = None,
    estimate_floor: bool = False,
    sched_coeff: Optional[float] = None,
) -> SweepResult:
    """Run the eps sweep and fit shift and remainder orders.

    With alpha > 0 the group rank grows as floor(eps^-alpha) per point
    (capped at alpha = 1/2: beyond that the required rank outruns
    desk-scale FEM accuracy).  convention='calibrated' loads the choice
    persisted by calibrate().  estimate_floor adds one observation at the
    smallest eps on a 1.4x coarser schedule (see `_noise_floor`), which
    must give a larger h0 than the base point's.  Every input is validated
    before the first mesh is built.
    """
    if len(scene.inclusions) == 0:
        raise ValidationError("sweep scene needs at least one inclusion")
    if not 0.0 <= alpha <= 0.5:
        raise ValidationError(f"alpha must lie in [0, 0.5], got {alpha!r}")
    if not isinstance(group_rank, (int, np.integer)) or group_rank < 2:
        # rank 1 is the constant mode, which never shifts
        raise ValidationError(f"group_rank must be an integer >= 2, got {group_rank!r}")
    eps_list = sorted(float(e) for e in eps_list)
    if not all(0.0 < e < np.inf for e in eps_list):
        raise ValidationError(f"eps values must be positive and finite, got {eps_list}")
    if len(set(eps_list)) != len(eps_list) or len(eps_list) < 3:
        raise ValidationError(f"the rate fits need 3 or more distinct eps values, got {eps_list}")
    if convention == "calibrated":
        if calibration_path is None:
            raise ValidationError("convention='calibrated' needs calibration_path")
        try:
            with open(calibration_path, "r", encoding="utf-8") as fh:
                cal = json.load(fh)
            convention = cal["convention"]
            use_m_factor = bool(cal["use_m_factor"])
        except FileNotFoundError as exc:
            raise ValidationError(f"{calibration_path} not found: run calibrate first") from exc
        except (json.JSONDecodeError, KeyError) as exc:
            raise ValidationError(
                f"{calibration_path} is not a calibration file (run calibrate): {exc!r}"
            ) from exc

    if sched_coeff is None:
        # with a growing index the gaps are large, so the bias-control
        # schedule can stay much coarser
        sched_coeff = MESH_SCHEDULE_COEFF if alpha == 0.0 else 2.5 * MESH_SCHEDULE_COEFF
    if not sched_coeff > 0.0:
        raise ValidationError(f"sched_coeff must be positive, got {sched_coeff!r}")
    if estimate_floor:
        base_h0 = schedule_mesh_h(eps_list[0], scene.mesh_h, sched_coeff)
        coarse_h0 = schedule_mesh_h(eps_list[0], scene.mesh_h, FLOOR_COARSENING * sched_coeff)
        if not coarse_h0 > base_h0:
            # the mesh_h cap makes both meshes one mesh: the floor would read 0
            raise ValidationError(
                f"noise floor needs a coarser mesh at eps = {eps_list[0]:g}, but both "
                f"resolutions are capped at h0 = {base_h0:g} by mesh_h = {scene.mesh_h:g}: "
                "lower sched_coeff or raise mesh_h"
            )
    ranks = [
        group_rank if alpha == 0.0 else max(2, int(np.floor(e ** (-alpha))))
        for e in eps_list
    ]
    analytic_groups = _analytic_groups(scene, max(ranks))
    for e in eps_list:  # an eps too large for d0 fails here, not after the smaller meshes
        validate_scene(_point_config(scene, e, sched_coeff))
    jobs = [(scene, e, r, seed, sched_coeff, analytic_groups) for e, r in zip(eps_list, ranks)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            points = list(ex.map(_sweep_point, *zip(*jobs)))
    else:
        points = [_sweep_point(*j) for j in jobs]

    observed = np.array([p.observed for p in points])
    noise_floor = None
    floor_dominated = False
    if estimate_floor:
        noise_floor = _noise_floor(scene, points[0], seed, sched_coeff, analytic_groups)
        floor_dominated = bool(noise_floor >= 0.3 * abs(observed[0]))
    observations = SweepResult(
        points=points,
        scene=scene,
        observed=observed,
        group_rank=group_rank,
        alpha=alpha,
        noise_floor=noise_floor,
        floor_dominated=floor_dominated,
    )
    return apply_convention(observations, convention, use_m_factor)


def apply_convention(result: SweepResult, convention: str, use_m_factor: bool) -> SweepResult:
    """Score a sweep's observations under one convention.

    Predictions, remainders, the shift and remainder fits and the ratio
    monotonicity are computed here; the FEM observations are reused as-is.
    """
    eps = [p.eps for p in result.points]
    predicted = _predictions(result.points, result.scene, convention, use_m_factor)
    abs_obs = np.abs(result.observed)
    signed_remainder = result.observed - predicted
    remainder = np.abs(signed_remainder)
    shift_fit = fit_rate(list(zip(eps, abs_obs))) if np.all(abs_obs > 0) else None
    remainder_fit = fit_rate(list(zip(eps, remainder))) if np.all(remainder > 0) else None
    ratio = remainder / np.maximum(abs_obs, 1e-300)
    return replace(
        result,
        convention=convention,
        use_m_factor=use_m_factor,
        predicted=predicted,
        signed_remainder=signed_remainder,
        remainder=remainder,
        shift_fit=shift_fit,
        remainder_fit=remainder_fit,
        ratio_monotone=bool(np.all(np.diff(ratio) >= 0.0)),  # eps ascending
    )


def _noise_floor(
    scene: SceneConfig, base: SweepPoint, seed: int, sched_coeff: float, analytic_groups: list,
) -> float:
    """Two-resolution estimate of the discretization floor of base's shift:
    its distance to the shift observed at base's eps and rank on the 1.4x
    coarser schedule.  Only the coarse mesh is observed here."""
    rank = base.group_rank
    _, groups, matched = _observe(scene, base.eps, rank, seed, FLOOR_COARSENING * sched_coeff,
                                  analytic_groups)
    return abs(base.observed - (matched[rank - 1].harmonic_average - groups[rank - 1].lam))


# ---------------------------------------------------------------------------
# calibration
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CalibrationResult:
    convention: str
    use_m_factor: bool
    remainder_order: float
    candidate_orders: dict
    timestamp: float
    base_sweep: Optional[SweepResult] = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "convention": self.convention,
            "use_m_factor": self.use_m_factor,
            "remainder_order": self.remainder_order,
            "candidate_orders": {k: v for k, v in self.candidate_orders.items()},
            "timestamp": self.timestamp,
        }


def benchmark_scene(mesh_h: float = 0.02) -> SceneConfig:
    """Unit disk, single disk inclusion at (0.4, 0), k = 2."""
    from .geometry import DiskShape

    return SceneConfig(
        domain=DomainSpec(kind="disk", radius=1.0),
        inclusions=(
            InclusionSpec(z=(0.4, 0.0), shape=DiskShape(1.0), epsilon=0.05, k=2.0),
        ),
        d0=0.4,
        mesh_h=mesh_h,
        refine_factor=4.0,
    )


BENCHMARK_EPS = (0.02, 0.032, 0.05, 0.08)


def calibrate(
    scene: Optional[SceneConfig] = None,
    eps_list: Sequence[float] = BENCHMARK_EPS,
    out_path: Optional[str] = None,
    workers: int = 1,
    seed: int = 0,
) -> CalibrationResult:
    """Score every (convention, 1/m) candidate on one sweep's observed data
    and persist the winner; remainder order must exceed 2.0."""
    scene = scene or benchmark_scene()
    if all(abs(inc.k - 1.0) < 1e-12 for inc in scene.inclusions):
        raise CalibrationError("no contrast: all conductivities are 1")
    base = run_sweep(scene, eps_list, group_rank=2, convention="paper",
                     use_m_factor=True, workers=workers, seed=seed)
    orders = {}
    for conv, use_m in CONVENTION_CANDIDATES:
        scored = apply_convention(base, conv, use_m)
        if np.any(scored.remainder == 0.0):
            orders[f"{conv}:m={use_m}"] = np.inf
            continue
        orders[f"{conv}:m={use_m}"] = scored.remainder_fit.preferred.slope
    winner = max(orders, key=lambda k: orders[k])
    conv, mtag = winner.split(":m=")
    result = CalibrationResult(
        convention=conv,
        use_m_factor=mtag == "True",
        remainder_order=float(orders[winner]),
        candidate_orders=orders,
        timestamp=time.time(),
        base_sweep=base,
    )
    if result.remainder_order <= 2.0:
        raise CalibrationError(
            f"no candidate exceeded remainder order 2.0 (best {result.remainder_order:.2f})"
        )
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(result.to_json(), fh, indent=2)
    return result
