from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenshift import harness
from eigenshift.errors import CalibrationError, FitError, ValidationError
from eigenshift.geometry import DomainSpec


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

    def test_rows_schema(self, small_sweep):
        rows = small_sweep.csv_rows()
        assert len(rows) == 3
        for row in rows:
            for key in ("eps", "lambda_bar", "lambda", "observed_shift",
                        "predicted_shift", "remainder"):
                assert key in row

    def test_shift_positive_and_ordered(self, small_sweep):
        assert np.all(small_sweep.observed > 0)
        assert np.all(np.diff(small_sweep.observed) > 0)  # grows with eps

    def test_gap_shrinks_with_eps(self, small_sweep):
        gaps = np.abs(small_sweep.observed)
        assert gaps[0] < gaps[-1]

    def test_deterministic(self):
        scene = harness.benchmark_scene(mesh_h=0.05)
        kw = dict(group_rank=2, convention="literature", sched_coeff=3.0,
                  diagnostics=False)
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

    def test_needs_inclusion(self):
        from dataclasses import replace

        scene = replace(harness.benchmark_scene(), inclusions=())
        with pytest.raises(ValidationError):
            harness.run_sweep(scene, [0.05, 0.07, 0.1])

    def test_calibrated_needs_path(self):
        scene = harness.benchmark_scene(mesh_h=0.05)
        with pytest.raises(ValidationError):
            harness.run_sweep(scene, [0.05, 0.07, 0.1], convention="calibrated")
