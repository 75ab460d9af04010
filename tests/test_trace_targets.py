"""The benchmark's traced run wraps eigenshift functions by name.

``shiftbench/tracing.py`` lists them as ``module:attribute`` targets and
reads some arguments by position; a rename or a changed signature would
otherwise only show up as a silently missing per-layer metric.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "shiftbench" / "tracing.py"


def _boundaries():
    spec = importlib.util.spec_from_file_location("shiftbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BOUNDARIES


def _resolve(target):
    module_name, path = target.split(":")
    owner = importlib.import_module("eigenshift." + module_name)
    for attr in path.split("."):
        owner = getattr(owner, attr)
    return owner


@pytest.mark.parametrize("target", [target for _, target, _ in _boundaries()])
def test_target_resolves_to_callable(target):
    assert callable(_resolve(target))


def test_call_shapes_the_benchmark_relies_on():
    # harness.sweep_point records a[1] as eps; polarization.corrector reads
    # a[0].density and a[1] as the targets of scaled_physical(self, x, z, eps);
    # the calibrate workload calls apply_convention(result, convention, use_m_factor)
    point = list(inspect.signature(_resolve("harness:_sweep_point")).parameters)
    assert point[1] == "eps"
    corrector = list(inspect.signature(_resolve("polarization:Corrector.scaled_physical")).parameters)
    assert corrector[:2] == ["self", "x"]
    scorer = list(inspect.signature(_resolve("harness:apply_convention")).parameters)
    assert scorer == ["result", "convention", "use_m_factor"]


def test_solve_eigen_result_shape_the_benchmark_counts():
    # the eigenpairs metric is len(result) of solve_eigen: one (lambda, vector)
    # pair per requested eigenvalue, each vector nodal
    from eigenshift import field_solver as fs
    from eigenshift import geometry as geo

    cfg = geo.SceneConfig(domain=geo.DomainSpec(kind="disk", radius=1.0), inclusions=(),
                          d0=0.3, mesh_h=0.12)
    system = fs.assemble(geo.build_mesh(cfg), ())
    pairs = fs.solve_eigen(system, 4)
    assert len(pairs) == 4
    for lam, vector in pairs:
        assert isinstance(lam, float)
        assert vector.shape == (system.n,)
