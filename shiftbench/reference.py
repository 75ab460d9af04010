"""A fixed reference kernel that measures how fast the machine is right now.

    python3 shiftbench/reference.py WORKLOAD [UNITS]

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within a minute.  ``run.py`` times this kernel just before and just
after every untraced round and scales the round's time by it, so a slow
minute slows both and cancels out.

The kernel is the benchmark's own code on inputs it builds itself; it
calls nothing of eigenshift, so a change to the program never moves it.
Each workload has its own mix (``MIXES``), made of the kinds of work that
workload does, in roughly its shares:

* interpreted loops over small numpy arrays (a Bessel power series and a
  backward recurrence, as the Bessel-zero scan runs them),
* a sparse LU factorization, solves with it and a shift-invert ``eigsh``
  on a 5-point Laplacian (the finite-element layers),
* a dense solve and products (the boundary-integral tensors),
* a dense log-distance kernel from many targets to a few hundred panels,
  summed panel-wise (the corrector).

Run as a script it prints the time of UNITS units (default ``UNITS``).
"""

from __future__ import annotations

import sys
import time
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

UNITS = 16          # units timed before the first round and after each
SMALL = 8           # length of the small arrays in the interpreted loops
PANELS = 256        # panels of the corrector-like kernel


class Mix(NamedTuple):
    interpreted: int    # Bessel evaluations per unit
    grid: int           # 5-point Laplacian on a grid x grid interior grid
    dense: int          # order of the dense system, 0 for none
    targets: int        # targets of the corrector-like kernel, 0 for none
    nominal_s: float    # typical time of UNITS units on the reference machine


MIXES = {
    "analytic": Mix(interpreted=200, grid=30, dense=600, targets=0, nominal_s=3.9),
    "calibrate": Mix(interpreted=40, grid=100, dense=0, targets=12000, nominal_s=4.8),
}


class Reference:
    """Fixed inputs of one workload's mix, built once; ``sample()``
    times UNITS kernel units."""

    def __init__(self, workload: str) -> None:
        self.mix = mix = MIXES[workload]
        rng = np.random.default_rng(20161201)
        one_d = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(mix.grid, mix.grid))
        eye = sp.identity(mix.grid)
        self.laplacian = (sp.kron(one_d, eye) + sp.kron(eye, one_d)).tocsc()
        self.rhs = rng.standard_normal((mix.grid * mix.grid, 4))
        self.start = rng.standard_normal(mix.grid * mix.grid)
        self.dense = rng.standard_normal((mix.dense, mix.dense)) + mix.dense * np.eye(mix.dense)
        self.points = np.linspace(0.5, 20.0, SMALL)
        self.targets = rng.uniform(-1.0, 1.0, (mix.targets, 2))
        angles = np.linspace(0.0, 2.0 * np.pi, PANELS, endpoint=False)
        self.panels = 0.05 * np.column_stack([np.cos(angles), np.sin(angles)])
        self.density = rng.standard_normal(PANELS)

    def _interpreted(self) -> float:
        acc = 0.0
        for k in range(self.mix.interpreted):
            s = k % 12
            # ascending series of J_s
            half = 0.5 * self.points
            term = np.ones_like(half)
            for j in range(1, s + 1):
                term = term * half / j
            total = term.copy()
            for m in range(1, 60):
                term = -term * half * half / (m * (m + s))
                total += term
            # backward recurrence
            bjp, bj = np.zeros_like(half), np.full_like(half, 1e-30)
            for m in range(80, 0, -1):
                bjp, bj = bj, (2.0 * m / self.points) * bj - bjp
                if np.any(np.abs(bj) > 1e250):
                    bj, bjp = bj * 1e-250, bjp * 1e-250
            acc += float(total[0]) + float(bj[0] / (1.0 + abs(bj[-1])))
        return acc

    def _sparse(self) -> float:
        lu = spla.splu(self.laplacian)
        acc = float(lu.solve(self.rhs)[0, 0])
        vals = spla.eigsh(self.laplacian, k=4, sigma=0.0, v0=self.start,
                          return_eigenvectors=False)
        return acc + float(vals[0])

    def _dense(self) -> float:
        if not self.mix.dense:
            return 0.0
        x = np.linalg.solve(self.dense, self.dense[:, :40])
        return float((self.dense @ self.dense @ x)[0, 0])

    def _kernel(self) -> float:
        if not self.mix.targets:
            return 0.0
        dx = self.targets[:, None, 0] - self.panels[None, :, 0]
        dy = self.targets[:, None, 1] - self.panels[None, :, 1]
        r2 = dx * dx + dy * dy
        return float(np.sum((dx / r2) @ self.density) + np.sum(np.log(r2) @ self.density))

    def unit(self) -> float:
        return self._interpreted() + self._sparse() + self._dense() + self._kernel()

    def sample(self, units: int = UNITS) -> float:
        """Wall time of ``units`` units."""
        t0 = time.perf_counter()
        for _ in range(units):
            self.unit()
        return time.perf_counter() - t0


if __name__ == "__main__":
    ref = Reference(sys.argv[1])
    ref.unit()
    print(ref.sample(int(sys.argv[2]) if len(sys.argv) > 2 else UNITS))
