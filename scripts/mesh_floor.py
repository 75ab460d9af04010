"""Mesh size, quality and the two-axis discretization floor of the shift, per eps.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/mesh_floor.py [--eps 0.02,0.032,0.05,0.08]

For each eps, meshes the benchmark scene as a sweep point does and prints
one JSON object: the node count, the minimum angle, the `build_mesh` and
`observe` times, the observed shift of the rank-2 group, its signed
remainder against the literature-convention prediction (1/m), and the
shift's floor on two separate axes:

* `floor_h0`: |shift - shift with the mesh schedule coefficient 1.4x
  larger|, the spacing near the inclusion and the boundary; null where
  `mesh_h` caps both schedules at the same h0, so there is no coarser
  mesh to compare with;
* `floor_interface`: |shift - shift with `refine_factor` doubled|, the
  spacing along the inclusion interface alone.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace

import numpy as np

from eigenshift import geometry, harness
from eigenshift import polarization as pol
from eigenshift.asymptotics import predicted_shift

RANK = 2


def _shift(scene, eps: float, coeff: float, groups) -> float:
    _, unpert, matched = harness._observe(scene, eps, RANK, 0, coeff, groups)
    return matched[RANK - 1].harmonic_average - unpert[RANK - 1].lam


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", default=",".join(map(str, harness.BENCHMARK_EPS)),
                        help="comma-separated eps values")
    args = parser.parse_args()

    scene = harness.benchmark_scene()
    coeff = harness.MESH_SCHEDULE_COEFF
    groups = harness._analytic_groups(scene, RANK)
    gradients = np.stack([groups[RANK - 1].gradients_at(inc.center)
                          for inc in scene.inclusions], axis=1)
    tensors = [pol.polarization_tensor(inc.shape, inc.k, "literature", 256)
               for inc in scene.inclusions]
    for eps in (float(e) for e in args.eps.split(",")):
        config = harness._point_config(scene, eps, coeff)
        t0 = time.perf_counter()
        mesh = geometry.build_mesh(config)
        build_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        shift = _shift(scene, eps, coeff, groups)
        observe_s = time.perf_counter() - t0
        predicted = predicted_shift(gradients, tensors, eps)
        coarse_coeff = harness.FLOOR_COARSENING * coeff
        capped = (harness.schedule_mesh_h(eps, scene.mesh_h, coarse_coeff)
                  == harness.schedule_mesh_h(eps, scene.mesh_h, coeff))
        coarse = None if capped else _shift(scene, eps, coarse_coeff, groups)
        interface = _shift(replace(scene, refine_factor=2.0 * scene.refine_factor), eps,
                           coeff, groups)
        print(json.dumps({
            "eps": eps,
            "nodes": len(mesh.nodes),
            "min_angle": round(mesh.min_angle(), 2),
            "build_mesh_s": round(build_s, 3),
            "observe_s": round(observe_s, 3),
            "shift": shift,
            "signed_remainder": shift - predicted,
            "floor_h0": None if coarse is None else abs(shift - coarse),
            "floor_interface": abs(shift - interface),
        }), flush=True)


if __name__ == "__main__":
    main()
