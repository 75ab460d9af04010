import json

import numpy as np
import pytest
from click.testing import CliRunner

from eigenshift import geometry as geo
from eigenshift import harness
from eigenshift.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_exit_code_mapping():
    from eigenshift.cli import _exit_code
    from eigenshift.errors import (
        CalibrationError,
        FitError,
        MeshError,
        SolverError,
        ThresholdError,
        ValidationError,
    )

    assert _exit_code(ValidationError()) == 2
    assert _exit_code(FitError()) == 2
    assert _exit_code(SolverError()) == 3
    assert _exit_code(MeshError()) == 3
    assert _exit_code(ThresholdError()) == 4
    assert _exit_code(CalibrationError()) == 4


def write_scene(path, scene=None):
    scene = scene or harness.benchmark_scene(mesh_h=0.06)
    path.write_text(json.dumps(geo.scene_to_json(scene)))
    return str(path)


class TestSpectrumCommand:
    def test_csv(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path), "spectrum", "--count", "6"])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "rank,s,i,lambda,multiplicity"
        first = lines[1].split(",")
        assert first[0] == "1" and float(first[3]) == 0.0
        second = lines[2].split(",")
        assert float(second[3]) == pytest.approx(3.38996, abs=1e-4)
        assert second[4] == "2"


class TestPolarizationCommand:
    def test_json_paper_disk(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "polarization", "--k", "2.0", "--convention", "paper"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["entries"][0][0] == pytest.approx(-4 * np.pi / 3, rel=1e-3)
        assert 0.0 < payload["residual"] <= 1e-13
        assert 0.0 <= payload["zero_charge"] <= 1e-13

    def test_k_one_gives_zero_tensor(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "polarization", "--k", "1.0"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["entries"] == [[0.0, 0.0], [0.0, 0.0]]
        assert payload["residual"] is None and payload["zero_charge"] is None

    def test_inaccurate_cell_solve_exit_3(self, runner, tmp_path, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-8))
        result = runner.invoke(main, ["--out", str(tmp_path), "polarization", "--k", "2.0"])
        assert result.exit_code == 3
        assert "residual" in result.output

    def test_negative_contrast_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "polarization", "--k", "-3.0"]
        )
        assert result.exit_code == 2


class TestPerturbedCommand:
    def test_csv_schema(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        result = runner.invoke(
            main, ["--out", str(tmp_path), "perturbed", "--config", cfg, "--count", "4"]
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "perturbed.csv").read_text().splitlines()
        assert lines[0].startswith("rank,lambda_unpert,lambda_pert_1")
        assert lines[0].endswith("harmonic_average,overlap")

    def test_rectangle_scene_uses_gap_clustering(self, runner, tmp_path):
        scene = geo.SceneConfig(
            domain=geo.DomainSpec(kind="rectangle", width=np.pi, height=np.pi),
            inclusions=(
                geo.InclusionSpec(
                    z=(np.pi / 2, np.pi / 2), shape=geo.DiskShape(1.0), epsilon=0.06, k=2.0
                ),
            ),
            d0=0.5,
            mesh_h=0.09,
        )
        cfg = write_scene(tmp_path / "rect.json", scene)
        result = runner.invoke(
            main, ["--out", str(tmp_path), "perturbed", "--config", cfg, "--count", "5"]
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "perturbed.csv").read_text().splitlines()
        assert len(lines) >= 4

    def test_invalid_scene_exit_2(self, runner, tmp_path):
        bad = harness.benchmark_scene(mesh_h=0.06)
        from dataclasses import replace

        bad = replace(
            bad,
            inclusions=(
                geo.InclusionSpec(z=(0.98, 0.0), shape=geo.DiskShape(1.0), epsilon=0.03, k=2.0),
            ),
        )
        cfg = write_scene(tmp_path / "bad.json", bad)
        result = runner.invoke(
            main, ["--out", str(tmp_path), "perturbed", "--config", cfg, "--count", "4"]
        )
        assert result.exit_code == 2


    def test_csv_unchanged_on_the_shared_observation(self, runner, tmp_path):
        # the command's output on the one-triangulation mesh, to 12 digits
        cfg = write_scene(tmp_path / "scene.json")
        result = runner.invoke(
            main, ["--out", str(tmp_path), "perturbed", "--config", cfg, "--count", "4"]
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "perturbed.csv").read_text() == (
            "rank,lambda_unpert,lambda_pert_1,lambda_pert_2,harmonic_average,overlap\n"
            "1,0,0,nan,0,1\n"
            "2,3.3938238617,3.4014436678,3.40417583267,3.40280920181,0.999987393981\n"
        )


class TestWeylCommand:
    def test_rectangle(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "weyl", "--domain", "rectangle", "--lam-max", "200"],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads((tmp_path / "weyl.json").read_text())
        assert abs(payload["counting_slope"] - np.pi / 4) <= 0.15 * np.pi / 4


class TestBoundsCommand:
    def test_table(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path), "bounds", "--count", "12"])
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "bounds.csv").read_text().splitlines()
        assert len(lines) == 13
        checks = json.loads(result.output.split("\n", 1)[1])
        assert all(checks[c]["max_le_10_median"] for c in checks)

    def test_no_groups_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path), "bounds", "--count", "0"])
        assert result.exit_code == 2, result.output
        assert "n_groups" in result.output


class TestSweepCommand:
    def test_insufficient_eps_exit_2(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", cfg, "--eps", "0.05,0.08",
             "--convention", "literature"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("args, message", [
        pytest.param(["--group", "0"], "group_rank", id="rank-0"),
        pytest.param(["--group", "-1"], "group_rank", id="rank-negative"),
        pytest.param(["--group", "1"], "group_rank", id="rank-1-constant-mode"),
        pytest.param(["--eps", ""], "eps", id="no-eps"),
        pytest.param(["--eps", "0.05"], "eps", id="one-eps"),
        pytest.param(["--eps", "0.05,0.05,0.07"], "eps", id="repeated-eps"),
        pytest.param(["--eps", "0,0.05,0.07"], "eps", id="zero-eps"),
        pytest.param(["--alpha", "nan"], "alpha", id="alpha-nan"),
        pytest.param(["--sched-coeff", "nan"], "sched_coeff", id="sched-coeff-nan"),
        # the mesh_h cap makes the floor's coarse mesh the base mesh at eps = 0.05
        pytest.param(["--sched-coeff", "3", "--estimate-floor"], "noise floor",
                     id="floor-mesh-not-coarser"),
    ])
    def test_invalid_sweep_input_exit_2_before_meshing(self, runner, tmp_path, monkeypatch,
                                                         args, message):
        def no_mesh(config):
            raise AssertionError("a mesh was built before validation")

        monkeypatch.setattr(geo, "build_mesh", no_mesh)
        cfg = write_scene(tmp_path / "scene.json")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", cfg, "--eps", "0.05,0.07,0.09",
             "--convention", "literature", *args],
        )
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_malformed_eps_exit_2(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", cfg, "--eps", "0.02:0.08",
             "--convention", "literature"],
        )
        assert result.exit_code == 2, result.output
        assert "--eps" in result.output

    @pytest.mark.parametrize("text", [
        "",
        "{}",
        pytest.param(json.dumps({**geo.scene_to_json(harness.benchmark_scene(mesh_h=0.06)),
                                 "d0": "x"}), id="d0-not-a-number"),
        pytest.param("[1, 2]", id="scene-not-an-object"),
        pytest.param(json.dumps({"domain": [1], "d0": 0.3, "mesh_h": 0.06}),
                     id="domain-not-an-object"),
    ])
    def test_malformed_scene_exit_2(self, runner, tmp_path, text):
        cfg = tmp_path / "scene.json"
        cfg.write_text(text)
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", str(cfg), "--eps", "0.05,0.07,0.09",
             "--convention", "literature"],
        )
        assert result.exit_code == 2, result.output

    def test_calibration_missing_exit_2(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", cfg, "--eps", "0.05,0.07,0.09"],
        )
        assert result.exit_code == 2, result.output
        assert "run calibrate first" in result.output

    def test_calibration_without_keys_exit_2(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        (tmp_path / "calibration.json").write_text("{}")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", cfg, "--eps", "0.05,0.07,0.09"],
        )
        assert result.exit_code == 2, result.output

    def test_sweep_csv_and_summary(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", cfg,
             "--eps", "0.05,0.07,0.09", "--convention", "literature",
             "--no-thresholds"],
        )
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == (
            "eps,lambda_bar,lambda,observed_shift,predicted_shift,remainder,overlap"
        )
        assert len(lines) == 4
        summary = json.loads((tmp_path / "sweep_summary.json").read_text())
        for key in ("shift_order", "remainder_order", "convention", "group"):
            assert key in summary

    def test_threshold_failure_exit_4(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        # the paper convention misses the measured shift, so the remainder
        # order sits at ~2 and the threshold gate must trip
        result = runner.invoke(
            main,
            ["--out", str(tmp_path), "sweep", "--config", cfg,
             "--eps", "0.05,0.07,0.09", "--convention", "paper",
             "--min-remainder-order", "2.3"],
        )
        assert result.exit_code == 4

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg = write_scene(tmp_path / "scene.json")
        args = ["--out", str(tmp_path), "sweep", "--config", cfg,
                "--eps", "0.05,0.07,0.09", "--convention", "literature",
                "--no-thresholds"]
        assert runner.invoke(main, args).exit_code == 0
        first = (tmp_path / "sweep.csv").read_bytes()
        assert runner.invoke(main, args).exit_code == 0
        assert (tmp_path / "sweep.csv").read_bytes() == first
