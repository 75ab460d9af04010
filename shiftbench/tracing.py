"""Spans around the calls into eigenshift's public functions.

The tracer replaces each traced function by a wrapper in every
``eigenshift`` module namespace that holds it, so names bound by
``from ... import`` (``harness`` -> ``asymptotics``, ``asymptotics`` ->
``field_solver.solve_source``) are timed as well.  The program and its
tests are untouched: the wrappers exist only inside a traced round's
interpreter.  Spans stay in memory; ``run.py`` writes them as JSONL when
the run ends.  Memory peaks come from ``tracemalloc``, which only the
traced round turns on.  This module imports ``eigenshift`` only in
``Tracer.install``, so ``run.py`` can read the metric table without it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

# (span name, "module:attribute", counts taken from (args, result))
BOUNDARIES = (
    ("geometry.build_mesh", "geometry:build_mesh",
     lambda a, r: {"mesh_nodes": len(r.nodes)}),
    ("field_solver.assemble", "field_solver:assemble",
     lambda a, r: {"stiffness_nnz": int(r.stiffness.nnz)}),
    ("field_solver.solve_eigen", "field_solver:solve_eigen",
     lambda a, r: {"eigenpairs": len(r)}),
    ("field_solver.solve_source", "field_solver:solve_source", None),
    ("field_solver.match_groups", "field_solver:match_groups", None),
    # scaled_physical(self, x, z, eps) evaluates targets x against every panel
    ("polarization.corrector", "polarization:Corrector.scaled_physical",
     lambda a, r: {"kernel_entries": len(a[1]) * a[0].density.panels.n}),
    ("polarization.solve_cell_problem", "polarization:solve_cell_problem", None),
    ("polarization.polarization_tensor", "polarization:polarization_tensor", None),
    ("specfun.bessel_deriv_zero", "specfun:bessel_deriv_zero", None),
    ("disk_spectrum.disk_spectrum_list", "disk_spectrum:disk_spectrum_list", None),
    ("asymptotics.osborn_residual", "asymptotics:osborn_residual", None),
    ("asymptotics.energy_estimate", "asymptotics:energy_estimate", None),
    ("asymptotics.recover_quadratic", "asymptotics:recover_quadratic", None),
    ("harness.run_sweep", "harness:run_sweep", None),
    # one sweep point; its eps argument feeds harness.smallest_eps_point_s
    ("harness.sweep_point", "harness:_sweep_point", lambda a, r: {"eps": float(a[1])}),
    ("harness.weyl_check", "harness:weyl_check", None),
    ("harness.sup_norm_bound_table", "harness:sup_norm_bound_table", None),
)

# (metric, unit, span name, what): what is self_s, calls, peak_alloc_mb or a count key
PER_LAYER = (
    ("geometry.build_mesh.self_s", "s", "geometry.build_mesh", "self_s"),
    ("geometry.build_mesh.calls", "count", "geometry.build_mesh", "calls"),
    ("geometry.mesh_nodes", "count", "geometry.build_mesh", "mesh_nodes"),
    ("geometry.build_mesh.peak_alloc_mb", "MB", "geometry.build_mesh", "peak_alloc_mb"),
    ("field_solver.assemble.self_s", "s", "field_solver.assemble", "self_s"),
    ("field_solver.stiffness_nnz", "count", "field_solver.assemble", "stiffness_nnz"),
    ("field_solver.solve_eigen.self_s", "s", "field_solver.solve_eigen", "self_s"),
    ("field_solver.solve_eigen.calls", "count", "field_solver.solve_eigen", "calls"),
    ("field_solver.eigenpairs", "count", "field_solver.solve_eigen", "eigenpairs"),
    ("field_solver.solve_eigen.peak_alloc_mb", "MB", "field_solver.solve_eigen", "peak_alloc_mb"),
    ("field_solver.solve_source.self_s", "s", "field_solver.solve_source", "self_s"),
    ("field_solver.solve_source.calls", "count", "field_solver.solve_source", "calls"),
    ("field_solver.match_groups.self_s", "s", "field_solver.match_groups", "self_s"),
    ("polarization.corrector.self_s", "s", "polarization.corrector", "self_s"),
    ("polarization.corrector.kernel_entries", "count", "polarization.corrector", "kernel_entries"),
    ("polarization.corrector.peak_alloc_mb", "MB", "polarization.corrector", "peak_alloc_mb"),
    ("polarization.solve_cell_problem.self_s", "s", "polarization.solve_cell_problem", "self_s"),
    ("polarization.solve_cell_problem.calls", "count", "polarization.solve_cell_problem", "calls"),
    ("polarization.polarization_tensor.self_s", "s", "polarization.polarization_tensor", "self_s"),
    ("specfun.bessel_deriv_zero.self_s", "s", "specfun.bessel_deriv_zero", "self_s"),
    ("specfun.bessel_deriv_zero.calls", "count", "specfun.bessel_deriv_zero", "calls"),
    ("disk_spectrum.disk_spectrum_list.self_s", "s", "disk_spectrum.disk_spectrum_list", "self_s"),
    ("disk_spectrum.disk_spectrum_list.calls", "count", "disk_spectrum.disk_spectrum_list", "calls"),
    ("asymptotics.osborn_residual.self_s", "s", "asymptotics.osborn_residual", "self_s"),
    ("asymptotics.energy_estimate.self_s", "s", "asymptotics.energy_estimate", "self_s"),
    ("asymptotics.recover_quadratic.self_s", "s", "asymptotics.recover_quadratic", "self_s"),
    ("harness.run_sweep.self_s", "s", "harness.run_sweep", "self_s"),
    ("harness.weyl_check.self_s", "s", "harness.weyl_check", "self_s"),
    ("harness.sup_norm_bound_table.self_s", "s", "harness.sup_norm_bound_table", "self_s"),
)
SMALLEST_EPS_POINT = ("harness.smallest_eps_point_s", "s")
PEAK_SPANS = {span for _, _, span, what in PER_LAYER if what == "peak_alloc_mb"}
TRACE_RUN = ("trace.run_s", "s")


class Tracer:
    """Records one round's spans; ``install`` patches, ``uninstall`` restores.

    ``tracemalloc`` runs only inside the spans that report a memory peak,
    so its cost stays out of the other layers' times.
    """

    def __init__(self, round_id: str):
        self.round_id = round_id
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def span(self, name: str, fn, counts=None):
        """Wrap fn so that each call records one span."""
        peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {
                "round": self.round_id,
                "id": len(self.spans),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name,
            }
            self.spans.append(record)
            self._stack.append(record)
            measure = peak and not tracemalloc.is_tracing()
            if measure:
                tracemalloc.start()
            record["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = time.perf_counter()
                if measure:
                    record["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            if counts is not None:
                record["counts"] = counts(args, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        for name, target, counts in BOUNDARIES:
            module_name, path = target.split(":")
            owner = importlib.import_module("eigenshift." + module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            wrapper = self.span(name, original, counts)
            # every eigenshift namespace that bound the function by name
            holders = [owner] + [
                mod for key, mod in list(sys.modules.items())
                if mod is not None and mod is not owner
                and (key == "eigenshift" or key.startswith("eigenshift."))
                and getattr(mod, attr, None) is original
            ]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()


def layer_metrics(spans: list) -> dict:
    """Per-layer values of one round's spans; a layer no span reached reads 0."""
    child_time: dict = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    by_name: dict = {}
    for s in spans:
        agg = by_name.setdefault(s["name"], {"self_s": 0.0, "calls": 0, "peak_alloc_mb": 0.0})
        agg["self_s"] += s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        agg["calls"] += 1
        agg["peak_alloc_mb"] = max(agg["peak_alloc_mb"], s.get("peak_alloc_b", 0) / 2**20)
        for key, value in s.get("counts", {}).items():
            agg[key] = agg.get(key, 0) + value
    out = {
        metric: by_name.get(span_name, {}).get(what, 0)
        for metric, _, span_name, what in PER_LAYER
    }
    points = [s for s in spans if s["name"] == "harness.sweep_point"]
    smallest = min((s["counts"]["eps"] for s in points), default=None)
    out[SMALLEST_EPS_POINT[0]] = sum(
        s["end"] - s["start"] for s in points if s["counts"]["eps"] == smallest
    )
    return out
