import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenshift import disk_spectrum as ds
from eigenshift import field_solver as fs
from eigenshift import geometry as geo
from eigenshift import harness
from eigenshift.errors import CalibrationError, FitError, ValidationError
from eigenshift.geometry import DomainSpec

EPS3 = [0.05, 0.07, 0.09]
DIAGNOSTICS = ("osborn_lhs", "osborn_bound", "osborn_inner", "osborn_eigen",
               "energy_h1", "energy_h1_corrected", "energy_rhs_proxy")


class TestFitRate:
    def test_exact_square_law(self):
        eps = [0.02, 0.04, 0.08, 0.16]
        rep = harness.fit_rate([(e, e**2) for e in eps])
        assert rep.slope == pytest.approx(2.0, abs=1e-12)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_noisy_power_law(self):
        rng = np.random.default_rng(5)
        eps = np.geomspace(0.01, 0.2, 8)
        vals = 3.0 * eps**2.5 * (1.0 + 0.05 * rng.standard_normal(8))
        rep = harness.fit_rate(list(zip(eps, vals)))
        assert 2.3 <= rep.slope <= 2.7

    def test_insufficient_data(self):
        with pytest.raises(FitError, match="insufficient"):
            harness.fit_rate([(0.1, 1.0), (0.2, 2.0)])

    def test_nonpositive_value(self):
        with pytest.raises(FitError):
            harness.fit_rate([(0.1, 1.0), (0.2, 0.0), (0.4, 2.0)])

    def test_duplicate_eps(self):
        with pytest.raises(FitError):
            harness.fit_rate([(0.1, 1.0), (0.1, 2.0), (0.4, 2.0)])

    def test_preasymptotic_refit(self):
        eps = [0.02, 0.04, 0.08, 0.4]
        vals = [e**2 for e in eps[:3]] + [50.0]  # contaminated largest point
        rep = harness.fit_rate(list(zip(eps, vals)))
        assert rep.r_squared < 0.98
        assert rep.refit is not None
        assert rep.preferred.slope == pytest.approx(2.0, abs=1e-9)
        assert 3 not in rep.preferred.window

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.5, 4.0), st.floats(0.1, 10.0))
    def test_recovers_any_power_law(self, slope, scale):
        eps = np.geomspace(0.01, 0.3, 6)
        rep = harness.fit_rate([(e, scale * e**slope) for e in eps])
        assert rep.slope == pytest.approx(slope, abs=1e-8)
        assert rep.r_squared >= 1.0 - 1e-9


class TestWeyl:
    def test_rectangle_counting_constant(self):
        rect = DomainSpec(kind="rectangle", width=np.pi, height=np.pi)
        rep = harness.weyl_check(rect, lam_max=200.0)
        target = np.pi / 4.0
        assert rep.weyl_constant == pytest.approx(target, rel=1e-12)
        assert abs(rep.counting_slope - target) <= 0.15 * target

    def test_rectangle_against_enumeration(self):
        # brute-force oracle: N(200) = #{(m,n) >= 0 : m^2 + n^2 <= 200}
        count = sum(
            1
            for m_ in range(0, 16)
            for n_ in range(0, 16)
            if m_ * m_ + n_ * n_ <= 200
        )
        lams = harness._rectangle_eigenvalues(np.pi, np.pi, 200.0)
        assert len(lams) == count

    def test_rectangle_counts_match_lattice_on_grid(self):
        # N(lambda) on the pi x pi square counts m^2 + n^2 <= lambda; grid
        # points such as 170 = 1 + 169 = 49 + 121 are eigenvalues themselves
        rep = harness.weyl_check(DomainSpec(kind="rectangle", width=np.pi, height=np.pi))
        lattice = [
            sum(1 for m_ in range(15) for n_ in range(15) if m_ * m_ + n_ * n_ <= lam)
            for lam in rep.lambda_grid
        ]
        assert len(lattice) == 20
        assert rep.counts.tolist() == lattice

    def test_disk_index_linearity(self):
        rep = harness.weyl_check(DomainSpec(kind="disk", radius=1.0), count=160)
        assert rep.index_fit_r2 >= 0.99
        assert rep.index_fit_slope > 0

    def test_counts_nondecreasing(self):
        rep = harness.weyl_check(DomainSpec(kind="disk", radius=1.0), count=120)
        assert np.all(np.diff(rep.counts) >= 0)

    def test_polygon_unsupported(self):
        poly = DomainSpec(kind="polygon", vertices=((0, 0), (1, 0), (0, 1)))
        with pytest.raises(ValidationError):
            harness.weyl_check(poly)


class TestBoundTable:
    def test_constant_mode_row(self):
        table = harness.sup_norm_bound_table(n_groups=5)
        assert table["sup_u"][0] == pytest.approx(1.0 / np.sqrt(np.pi), rel=1e-12)
        assert table["sup_grad_scaled"][0] == 0.0
        assert table["sup_hess_scaled"][0] == 0.0

    def test_max_within_ten_medians(self):
        table = harness.sup_norm_bound_table(n_groups=30)
        for col in ("sup_u", "sup_grad_scaled", "sup_hess_scaled"):
            vals = table[col]
            assert np.max(vals) <= 10.0 * np.median(vals)

    def test_probe_outside_domain(self):
        with pytest.raises(ValidationError):
            harness.sup_norm_bound_table(probe_center=(0.99, 0.0), probe_radius=0.05)

    def test_no_groups_rejected(self):
        with pytest.raises(ValidationError, match="n_groups"):
            harness.sup_norm_bound_table(n_groups=0)


class TestScheduleAndScenes:
    def test_schedule_capped(self):
        assert harness.schedule_mesh_h(0.5, cap=0.03) == 0.03
        small = harness.schedule_mesh_h(0.02, cap=0.03)
        assert small == pytest.approx(0.8 * 0.02**1.25, rel=1e-12)

    def test_benchmark_scene_valid(self):
        from eigenshift.geometry import validate_scene

        validate_scene(harness.benchmark_scene())

    def test_calibrate_rejects_no_contrast(self):
        scene = harness.benchmark_scene()
        from dataclasses import replace

        # bypass the InclusionSpec guard to model a contrast-free request
        object.__setattr__(scene.inclusions[0], "k", 1.0)
        with pytest.raises(CalibrationError, match="no contrast"):
            harness.calibrate(scene)


def _hand_made_sweep(signed_remainder):
    """A SweepResult built without FEM, scored with the given signed
    remainders over ascending eps (unscored for None); nothing else in it
    is meaningful."""
    eps = harness.BENCHMARK_EPS[: 4 if signed_remainder is None else len(signed_remainder)]
    values = {f.name: 0.0 for f in fields(harness.SweepPoint)}
    points = [harness.SweepPoint(**{**values, "eps": e, "group_rank": 2, "multiplicity": 2,
                                    "mesh_nodes": 0, "gradients": np.zeros((2, 1, 2))})
              for e in eps]
    signed = None if signed_remainder is None else np.array(signed_remainder)
    return harness.SweepResult(
        points=points, scene=harness.benchmark_scene(), observed=np.zeros(len(eps)),
        group_rank=2, alpha=0.0, noise_floor=None, floor_dominated=False,
        convention=None if signed is None else "literature", signed_remainder=signed,
        remainder=None if signed is None else np.abs(signed),
    )


class TestRemainderSignChanges:
    @pytest.mark.parametrize("signed, changes", [
        # the benchmark scene's pattern: one change between eps = 0.02 and 0.032
        ([2.6e-7, -3.0e-6, -2.6e-5, -1.9e-4], 1),
        ([-1e-7, -3.0e-6, -2.6e-5, -1.9e-4], 0),
        ([1e-7, 3.0e-6, 2.6e-5, 1.9e-4], 0),
        ([1e-7, -3.0e-6, 2.6e-5, -1.9e-4], 3),
        # an exact zero is no sign: -, 0, + is one change
        ([-1e-7, 0.0, 2.6e-5], 1),
    ])
    def test_count(self, signed, changes):
        sweep = _hand_made_sweep(signed)
        assert sweep.remainder_sign_changes == changes
        assert sweep.summary()["remainder_sign_changes"] == changes

    def test_unscored_is_none(self):
        sweep = _hand_made_sweep(None)
        assert sweep.remainder_sign_changes is None
        assert sweep.summary()["remainder_sign_changes"] is None


@pytest.fixture(scope="module")
def small_sweep():
    # coarse, fast sweep exercising the full pipeline
    scene = harness.benchmark_scene(mesh_h=0.05)
    return harness.run_sweep(
        scene, [0.05, 0.07, 0.09], group_rank=2, convention="literature",
        sched_coeff=3.0,
    )


class TestSweep:
    def test_summary_schema(self, small_sweep):
        summary = small_sweep.summary()
        for key in ("shift_order", "remainder_order", "convention", "group"):
            assert key in summary
        assert set(summary["group"]) == {"lambda", "m"}
        assert summary["group"]["m"] == 2

    def test_summary_points(self, small_sweep):
        points = small_sweep.summary()["points"]
        assert [p["eps"] for p in points] == [0.05, 0.07, 0.09]
        signed = np.array([p["signed_remainder"] for p in points])
        assert np.array_equal(signed, small_sweep.observed - small_sweep.predicted)
        assert np.array_equal(np.abs(signed), small_sweep.remainder)
        for p, point in zip(points, small_sweep.points):
            assert p["mesh_nodes"] == point.mesh_nodes and p["mesh_h0"] == point.mesh_h0
            assert p["mesh_min_angle"] == point.mesh_min_angle >= 20.0
            assert p["stiffness_nnz"] == point.stiffness_nnz > point.mesh_nodes
            assert p["lu_fill"] == point.lu_fill >= point.stiffness_nnz // 2
            for key in ("overlap",) + DIAGNOSTICS:
                assert p[key] == getattr(point, key)
        json.dumps(points)  # plain JSON types

    def test_shift_positive_and_ordered(self, small_sweep):
        assert np.all(small_sweep.observed > 0)
        assert np.all(np.diff(small_sweep.observed) > 0)  # grows with eps

    def test_gap_shrinks_with_eps(self, small_sweep):
        gaps = np.abs(small_sweep.observed)
        assert gaps[0] < gaps[-1]

    def test_deterministic(self):
        scene = harness.benchmark_scene(mesh_h=0.05)
        kw = dict(group_rank=2, convention="literature", sched_coeff=3.0)
        a = harness.run_sweep(scene, [0.05, 0.07, 0.09], **kw)
        b = harness.run_sweep(scene, [0.05, 0.07, 0.09], **kw)
        assert np.array_equal(a.observed, b.observed)
        assert np.array_equal(a.predicted, b.predicted)

    def test_two_workers_match_one(self, small_sweep):
        scene = harness.benchmark_scene(mesh_h=0.05)
        pooled = harness.run_sweep(
            scene, [0.05, 0.07, 0.09], group_rank=2, convention="literature",
            sched_coeff=3.0, workers=2,
        )
        assert len(pooled.points) == len(small_sweep.points) == 3
        for a, b in zip(small_sweep.points, pooled.points):
            for name in DIAGNOSTICS + ("mesh_min_angle",):
                assert np.isfinite(getattr(a, name)), name
            for name in ("stiffness_nnz", "lu_fill"):
                assert isinstance(getattr(a, name), int) and getattr(a, name) > 0, name
            for f in fields(a):
                va, vb = getattr(a, f.name), getattr(b, f.name)
                if isinstance(va, np.ndarray):
                    assert np.array_equal(va, vb), f.name
                else:
                    assert va == vb, f.name

    def test_alpha_bounds(self):
        scene = harness.benchmark_scene(mesh_h=0.05)
        with pytest.raises(ValidationError):
            harness.run_sweep(scene, [0.05, 0.07, 0.1], alpha=0.8)

    @pytest.mark.parametrize("eps, kwargs, message", [
        pytest.param(EPS3, dict(group_rank=0), "group_rank", id="rank-0"),
        pytest.param(EPS3, dict(group_rank=-1), "group_rank", id="rank-negative"),
        pytest.param(EPS3, dict(group_rank=1), "group_rank", id="rank-1-constant-mode"),
        pytest.param([], {}, "eps", id="no-eps"),
        pytest.param([0.05], {}, "eps", id="one-eps"),
        pytest.param([0.05, 0.05, 0.07], {}, "eps", id="repeated-eps"),
        pytest.param([0.0, 0.05, 0.07], {}, "eps", id="zero-eps"),
        pytest.param([0.05, 0.07, 0.5], {}, "too large", id="eps-too-large-for-d0"),
        pytest.param(EPS3, dict(sched_coeff=0.0), "sched_coeff", id="sched-coeff-0"),
        pytest.param(EPS3, dict(sched_coeff=float("nan")), "sched_coeff", id="sched-coeff-nan"),
        pytest.param(EPS3, dict(alpha=float("nan")), "alpha", id="alpha-nan"),
        # h0 = min(0.05, c * 0.05^1.25) is the cap for c = 3 and for 1.4 c alike
        pytest.param(EPS3, dict(estimate_floor=True), "noise floor", id="floor-mesh-not-coarser"),
    ])
    def test_invalid_input_rejected_before_meshing(self, monkeypatch, eps, kwargs, message):
        def no_mesh(config):
            raise AssertionError("a mesh was built before validation")

        monkeypatch.setattr(geo, "build_mesh", no_mesh)
        scene = harness.benchmark_scene(mesh_h=0.05)
        kwargs = {"sched_coeff": 3.0, **kwargs}
        with pytest.raises(ValidationError, match=message):
            harness.run_sweep(scene, eps, convention="literature", **kwargs)

    def test_needs_inclusion(self):
        from dataclasses import replace

        scene = replace(harness.benchmark_scene(), inclusions=())
        with pytest.raises(ValidationError):
            harness.run_sweep(scene, [0.05, 0.07, 0.1])

    def test_calibrated_needs_path(self):
        scene = harness.benchmark_scene(mesh_h=0.05)
        with pytest.raises(ValidationError):
            harness.run_sweep(scene, [0.05, 0.07, 0.1], convention="calibrated")


FLOOR_COEFF = 1.5  # 1.4x coarser is still below the scene's mesh_h cap at eps = 0.05


def test_sweep_point_solve_budget(monkeypatch):
    # one T_eps solve per mode of the tracked group (m = 2 at rank 2) and
    # none with the unperturbed factor, which observe has already freed
    observe, solve_source = fs.observe, fs.solve_source
    seen, solves, lu_alive = [], [], []

    def observing(*args, **kwargs):
        seen.append(observe(*args, **kwargs))
        lu_alive.append(seen[0][0].unperturbed._lu is not None)
        return seen[-1]

    def counting(system, g):
        solves.append(system)
        if seen:
            lu_alive.append(seen[0][0].unperturbed._lu is not None)
        return solve_source(system, g)

    monkeypatch.setattr(fs, "observe", observing)
    monkeypatch.setattr(fs, "solve_source", counting)
    scene = harness.benchmark_scene(mesh_h=0.05)
    analytic = harness._analytic_groups(scene, 2)
    harness._sweep_point(scene, 0.09, 2, 0, 3.0, analytic)
    assert len(seen) == 1 and analytic[1].multiplicity == 2
    ops = seen[0][0]
    assert len(solves) == 2 and all(system is ops.perturbed for system in solves)
    assert lu_alive == [False] * 3 and ops.unperturbed._lu is None


@pytest.fixture(scope="module")
def floor_sweep():
    calls = []
    original = geo.build_mesh

    def counting(config):
        calls.append(config.near_h)
        return original(config)

    geo.build_mesh = counting
    try:
        result = harness.run_sweep(
            harness.benchmark_scene(mesh_h=0.05), EPS3, convention="literature",
            sched_coeff=FLOOR_COEFF, estimate_floor=True,
        )
    finally:
        geo.build_mesh = original
    return result, calls


class TestNoiseFloor:
    def test_one_extra_mesh(self, floor_sweep):
        # three sweep points and the coarse mesh; the base point is not rebuilt
        _, calls = floor_sweep
        assert len(calls) == 4

    def test_floor_against_coarse_observation(self, floor_sweep):
        result, calls = floor_sweep
        scene = harness.benchmark_scene(mesh_h=0.05)
        eps = EPS3[0]
        h0 = harness.schedule_mesh_h(eps, scene.mesh_h, 1.4 * FLOOR_COEFF)
        assert h0 < scene.mesh_h and calls[-1] == h0
        coarse_scene = replace(
            scene, inclusions=(replace(scene.inclusions[0], epsilon=eps),), near_h=h0
        )
        mults = [g.multiplicity for g in ds.disk_spectrum_list(1.0, 12)[:3]]
        _, groups, matched = fs.observe(coarse_scene, sum(mults) + 2, mults, seed=0)
        coarse = matched[1].harmonic_average - groups[1].lam
        assert result.noise_floor == abs(result.points[0].observed - coarse)
        assert result.noise_floor > 0.0
