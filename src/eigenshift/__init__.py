"""Neumann eigenvalues of 2D domains with small conductivity inclusions:
polarization-tensor shift asymptotics and their numerical verification."""

from .geometry import (
    DiskShape,
    DomainSpec,
    EllipseShape,
    InclusionSpec,
    SceneConfig,
    build_mesh,
    load_scene,
    validate_scene,
)
from .disk_spectrum import DiskEigenfunction, EigenGroup, disk_eigenfunction, disk_spectrum_list
from .field_solver import assemble, build_operators, match_groups, solve_eigen, solve_source
from .polarization import corrector_field, polarization_tensor, solve_cell_problem
from .asymptotics import energy_estimate, osborn_residual, predicted_shift
from .harness import calibrate, fit_rate, run_sweep, sup_norm_bound_table, weyl_check

__version__ = "0.1.0"

__all__ = [
    "DiskShape",
    "DomainSpec",
    "EllipseShape",
    "InclusionSpec",
    "SceneConfig",
    "build_mesh",
    "load_scene",
    "validate_scene",
    "DiskEigenfunction",
    "EigenGroup",
    "disk_eigenfunction",
    "disk_spectrum_list",
    "assemble",
    "build_operators",
    "match_groups",
    "solve_eigen",
    "solve_source",
    "corrector_field",
    "polarization_tensor",
    "solve_cell_problem",
    "energy_estimate",
    "osborn_residual",
    "predicted_shift",
    "calibrate",
    "fit_rate",
    "run_sweep",
    "sup_norm_bound_table",
    "weyl_check",
]
