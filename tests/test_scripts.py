"""Smoke tests of the measurement scripts under scripts/: each runs as
documented in its docstring and prints JSON with the fields it promises."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def test_mesh_floor():
    (record,) = run_script("mesh_floor.py", "--eps", "0.05")
    assert record["eps"] == 0.05
    assert record["nodes"] > 0 and record["min_angle"] >= 20.0
    assert record["shift"] > 0.0
    assert abs(record["signed_remainder"]) < record["shift"]
    # at eps = 0.05 mesh_h does not cap the coarse schedule: an h0 floor exists
    assert record["floor_h0"] is not None and record["floor_h0"] >= 0.0
    assert record["floor_interface"] >= 0.0


def test_lu_fill():
    (report,) = run_script("lu_fill.py", "--eps", "0.08", "--solves", "2")
    assert report["eps"] == 0.08 and report["nodes"] > 0
    for name in ("unperturbed", "perturbed"):
        system = report[name]
        assert system["lu_fill"] > report["nodes"]
        assert system["factor_s"] >= 0.0 and system["solve_ms"] >= 0.0
