"""Session fixtures shared by more than one test module."""

import time

import pytest

from eigenshift import field_solver as fs
from eigenshift import harness


@pytest.fixture(scope="session")
def calibration():
    """`harness.calibrate()` on the benchmark scene, with its wall time and
    the size of every sparse LU it made attached to the base sweep."""
    splu = fs.spla.splu
    factorizations = []

    def counted(matrix, **kwargs):
        factorizations.append(matrix.shape[0])
        return splu(matrix, **kwargs)

    fs.spla.splu = counted
    try:
        t0 = time.time()
        result = harness.calibrate()
        result.base_sweep.elapsed = time.time() - t0  # type: ignore[attr-defined]
    finally:
        fs.spla.splu = splu
    result.base_sweep.factorizations = factorizations  # type: ignore[attr-defined]
    return result
