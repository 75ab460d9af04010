"""LU fill, factorization and solve times of the grounded stiffness at one eps.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 scripts/lu_fill.py [--eps 0.02] [--solves 20]

Builds the benchmark scene's mesh at the given eps with the sweep's mesh
schedule, assembles the unperturbed and the perturbed system, and
factorizes each through `AssembledSystem._source_lu`, the factorization
every source solve and eigensolve uses.  Prints one JSON object: the node
count and, per system, the fill L.nnz + U.nnz, the factorization time
(the first system's includes any ordering computed on first use) and the
mean time of one solve on a random load.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace

import numpy as np

from eigenshift import field_solver as fs
from eigenshift import harness


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--eps", type=float, default=0.02)
    parser.add_argument("--solves", type=int, default=20)
    args = parser.parse_args()

    scene = harness.benchmark_scene()
    inclusions = tuple(replace(inc, epsilon=args.eps) for inc in scene.inclusions)
    cfg = replace(scene, inclusions=inclusions,
                  mesh_h=harness.schedule_mesh_h(args.eps, scene.mesh_h))
    ops = fs.build_operators(cfg)
    report = {"eps": args.eps, "nodes": len(ops.mesh.nodes)}
    load = np.random.default_rng(0).standard_normal(len(ops.mesh.nodes) - 1)
    for name in ("unperturbed", "perturbed"):
        system = getattr(ops, name)
        t0 = time.perf_counter()
        lu = system._source_lu()
        factor_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(args.solves):
            lu.solve(load)
        solve_s = (time.perf_counter() - t0) / args.solves
        report[name] = {"lu_fill": int(lu.L.nnz + lu.U.nnz), "factor_s": round(factor_s, 3),
                        "solve_ms": round(1e3 * solve_s, 1)}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
