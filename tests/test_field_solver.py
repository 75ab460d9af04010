import weakref

import numpy as np
import pytest
import scipy.linalg

from eigenshift import disk_spectrum as ds
from eigenshift import field_solver as fs
from eigenshift import geometry as geo
from eigenshift.errors import MatchingError, SolverError, ValidationError

UNIT_DISK = geo.DomainSpec(kind="disk", radius=1.0)
RECT = geo.DomainSpec(kind="rectangle", width=np.pi, height=np.pi)


@pytest.fixture(scope="module")
def rect_system():
    cfg = geo.SceneConfig(domain=RECT, inclusions=(), d0=0.3, mesh_h=0.05)
    mesh = geo.build_mesh(cfg)
    return fs.assemble(mesh, ())


@pytest.fixture(scope="module")
def disk_system():
    cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.04)
    mesh = geo.build_mesh(cfg)
    return fs.assemble(mesh, ())


@pytest.fixture(scope="module")
def inclusion_scene():
    inc = geo.InclusionSpec(z=(0.4, 0.0), shape=geo.DiskShape(1.0), epsilon=0.05, k=2.0)
    cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(inc,), d0=0.4, mesh_h=0.04)
    mesh = geo.build_mesh(cfg)
    return cfg, mesh, fs.assemble(mesh, ()), fs.assemble(mesh, cfg.inclusions)


class TestAssemble:
    def test_neumann_kernel(self, disk_system):
        ones = np.ones(disk_system.n)
        knorm = np.abs(disk_system.stiffness).sum()
        assert np.linalg.norm(disk_system.stiffness.dot(ones)) <= 1e-12 * knorm

    def test_stiffness_symmetric(self, disk_system):
        diff = disk_system.stiffness - disk_system.stiffness.T
        assert (np.max(np.abs(diff.data)) if diff.nnz else 0.0) <= 1e-14

    def test_mass_total(self, disk_system):
        area = disk_system.mesh.areas.sum()
        assert disk_system.domain_measure == pytest.approx(area, rel=1e-12)

    def test_no_inclusions_is_unit_coefficient(self, inclusion_scene):
        _, mesh, unpert, pert = inclusion_scene
        # the perturbed operator differs exactly on tagged triangles
        assert (pert.stiffness - unpert.stiffness).nnz > 0
        probe = np.ones(unpert.n)
        assert np.linalg.norm(pert.stiffness.dot(probe)) <= 1e-10

    def test_tag_mismatch(self, inclusion_scene):
        cfg, mesh, _, _ = inclusion_scene
        with pytest.raises(SolverError, match="mismatch"):
            fs.assemble(mesh, cfg.inclusions * 2)


class TestSolveSource:
    def test_zero_source(self, rect_system):
        u = fs.solve_source(rect_system, np.zeros(rect_system.n))
        assert np.max(np.abs(u)) == 0.0

    def test_cosine_oracle(self, rect_system):
        # -lap u = cos x with zero Neumann flux at x = 0, pi -> u = cos x
        x = rect_system.mesh.nodes[:, 0]
        g = np.cos(x)
        u = fs.solve_source(rect_system, g)
        err = u - np.cos(x)
        l2 = np.sqrt(err @ rect_system.mass.dot(err))
        assert l2 < 3e-3  # O(h^2) at h = 0.05

    def test_mean_zero(self, rect_system):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(rect_system.n) + 0.5
        u = fs.solve_source(rect_system, g)
        assert abs(rect_system.mean(u)) < 1e-12

    def test_self_adjoint(self, rect_system):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(rect_system.n)
        h = rng.standard_normal(rect_system.n)
        tg = fs.solve_source(rect_system, g)
        th = fs.solve_source(rect_system, h)
        lhs = rect_system.inner(tg, h)
        rhs = rect_system.inner(g, th)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_positive_semidefinite(self, rect_system):
        rng = np.random.default_rng(2)
        for _ in range(3):
            g = rng.standard_normal(rect_system.n)
            tg = fs.solve_source(rect_system, g)
            assert rect_system.inner(g, tg) >= -1e-12

    def test_perturbed_operator_self_adjoint(self, inclusion_scene):
        _, _, _, pert = inclusion_scene
        rng = np.random.default_rng(3)
        g = rng.standard_normal(pert.n)
        h = rng.standard_normal(pert.n)
        tg = fs.solve_source(pert, g)
        th = fs.solve_source(pert, h)
        lhs = pert.inner(tg, h)
        rhs = pert.inner(g, th)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
        assert pert.inner(g, tg) >= -1e-12

    @pytest.mark.parametrize("c", [1.0, 3.7, -2.0])
    def test_constant_source_maps_to_zero(self, c):
        # T kills constants; the projected load is rounding noise that the
        # residual check would reject relative to its own tiny norm
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.1)
        system = fs.assemble(geo.build_mesh(cfg), ())
        u = fs.solve_source(system, np.full(system.n, c))
        assert np.array_equal(u, np.zeros(system.n))
        assert system._lu is None  # answered without a factorization

    def test_nonfinite_rejected(self, disk_system):
        bad = np.full(disk_system.n, np.nan)
        with pytest.raises(SolverError):
            fs.solve_source(disk_system, bad)


class TestDissectionOrder:
    def test_solve_matches_default_factorization(self, inclusion_scene):
        _, _, _, pert = inclusion_scene
        g = np.random.default_rng(7).standard_normal(pert.n)
        u = fs.solve_source(pert, g)
        b = pert.mass.dot(g - pert.mean(g))
        ref = np.zeros(pert.n)
        ref[1:] = fs.spla.splu(pert.stiffness[1:, 1:].tocsc()).solve(b[1:])
        ref -= pert.mean(ref)
        assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_lu_fill_reads_the_live_factor(self, inclusion_scene):
        ops = fs.build_operators(inclusion_scene[0])
        system = ops.perturbed
        assert system.lu_fill is None
        lu = system._source_lu()
        assert system.lu_fill == lu.nnz >= system.stiffness.nnz // 2
        system.drop_factor()
        assert system.lu_fill is None

    def test_one_mass_matrix_per_mesh(self, inclusion_scene):
        ops = fs.build_operators(inclusion_scene[0])
        assert ops.unperturbed.mass is ops.perturbed.mass is ops.mesh.mass

    # perturbed-system LU fill per benchmark eps with the nested-dissection
    # order that SuperLU's minimum degree replaced
    DISSECTION_FILL = {0.02: 1_502_218, 0.032: 825_224, 0.05: 690_390, 0.08: 614_880}

    def test_calibration_fill_guard(self, calibration):
        fills = {p.eps: p.lu_fill for p in calibration.base_sweep.points}
        assert fills.keys() == self.DISSECTION_FILL.keys()
        for eps, fill in fills.items():
            assert fill <= 1.1 * self.DISSECTION_FILL[eps], eps
        # the smallest eps sets calibrate's peak memory
        assert fills[0.02] <= self.DISSECTION_FILL[0.02]


class TestSolveEigen:
    def test_rectangle_spectrum(self, rect_system):
        pairs = fs.solve_eigen(rect_system, 9)
        exact = [0, 1, 1, 2, 4, 4, 5, 5, 8]
        assert abs(pairs[0][0]) < 1e-8
        for (lam, _), ex in zip(pairs[1:], exact[1:]):
            assert lam == pytest.approx(ex, rel=5e-3)

    def test_rectangle_spectrum_fine(self):
        # cos(mx)cos(ny) eigenvalues m^2 + n^2, each within 1% at h = 0.02
        cfg = geo.SceneConfig(domain=RECT, inclusions=(), d0=0.3, mesh_h=0.02)
        system = fs.assemble(geo.build_mesh(cfg), ())
        pairs = fs.solve_eigen(system, 9)
        for (lam, _), ex in zip(pairs[1:], [1, 1, 2, 4, 4, 5, 5, 8]):
            assert lam == pytest.approx(ex, rel=0.01)

    def test_disk_spectrum(self, disk_system):
        pairs = fs.solve_eigen(disk_system, 4)
        lam2 = ds.disk_spectrum_list(1.0, 4)[1].lam
        assert pairs[1][0] == pytest.approx(lam2, rel=0.01)

    def test_orthonormality(self, disk_system):
        pairs = fs.solve_eigen(disk_system, 6)
        vecs = np.column_stack([p[1] for p in pairs])
        gram = vecs.T @ disk_system.mass.dot(vecs)
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-8

    def test_constant_first_mode(self, disk_system):
        lam1, u1 = fs.solve_eigen(disk_system, 2)[0]
        assert abs(lam1) < 1e-8
        spread = np.max(u1) - np.min(u1)
        assert spread < 1e-6 * np.max(np.abs(u1))

    def test_deterministic(self, disk_system):
        a = fs.solve_eigen(disk_system, 3, seed=0)
        b = fs.solve_eigen(disk_system, 3, seed=0)
        for (la, ua), (lb, ub) in zip(a, b):
            assert la == lb
            assert np.array_equal(ua, ub)

    def test_small_mesh_matches_dense_reference(self):
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.12)
        system = fs.assemble(geo.build_mesh(cfg), ())
        assert system.n == 281
        pairs = fs.solve_eigen(system, 6)
        ref = scipy.linalg.eigh(
            system.stiffness.toarray(), system.mass.toarray(), eigvals_only=True,
            subset_by_index=[0, 5],
        )
        assert pairs[0][0] == 0.0 and abs(ref[0]) < 1e-10 * ref[1]
        for (lam, _), ex in zip(pairs[1:], ref[1:]):
            assert lam == pytest.approx(ex, rel=1e-10)

    def test_one_factorization_per_system(self, inclusion_scene):
        _, _, _, pert = inclusion_scene
        # a fresh system, so no earlier test's factorization is in place
        system = fs.AssembledSystem(stiffness=pert.stiffness, mass=pert.mass,
                                    mesh=pert.mesh, inclusions=pert.inclusions)
        pairs = fs.solve_eigen(system, 4)
        lu = system._lu
        assert lu is not None
        tu = fs.solve_source(system, pairs[1][1])
        assert system._lu is lu
        assert np.max(np.abs(tu - pairs[1][1] / pairs[1][0])) < 1e-8 * np.max(np.abs(tu))

    def test_residual_check_rejects_inexact_pairs(self, disk_system, monkeypatch):
        eigsh = fs.spla.eigsh

        def perturbed(*args, **kwargs):
            w, v = eigsh(*args, **kwargs)
            noise = np.random.default_rng(5).standard_normal(v.shape)
            return w, v + 1e-4 * np.max(np.abs(v)) * noise

        monkeypatch.setattr(fs.spla, "eigsh", perturbed)
        with pytest.raises(SolverError, match="residual"):
            fs.solve_eigen(disk_system, 4)

    def test_reciprocity_source_vs_eigen(self, disk_system):
        pairs = fs.solve_eigen(disk_system, 3)
        lam, u = pairs[1]
        tu = fs.solve_source(disk_system, u)
        assert np.max(np.abs(tu - u / lam)) < 1e-8 * np.max(np.abs(u))

    def test_h2_convergence(self):
        lam2 = ds.disk_spectrum_list(1.0, 4)[1].lam
        errs = []
        for h in (0.16, 0.08, 0.04):
            cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=h)
            system = fs.assemble(geo.build_mesh(cfg), ())
            pairs = fs.solve_eigen(system, 3)
            errs.append(abs(pairs[1][0] - lam2))
        order = np.log2(errs[0] / errs[2]) / 2.0
        assert order >= 1.6

    def test_count_bounds(self, disk_system):
        with pytest.raises(ValidationError):
            fs.solve_eigen(disk_system, 0)
        with pytest.raises(ValidationError):
            fs.solve_eigen(disk_system, 301)


class TestObserve:
    def test_unperturbed_factor_freed_before_perturbed_factorization(self, inclusion_scene,
                                                                     monkeypatch):
        splu = fs.spla.splu

        class Factor:  # SuperLU objects take no weak references
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return self.lu.solve(b)

        refs, live_before = [], []  # every factor made; live ones at each factorization

        def tracked(matrix, **kwargs):
            live_before.append(sum(ref() is not None for ref in refs))
            factor = Factor(splu(matrix, **kwargs))
            refs.append(weakref.ref(factor))
            return factor

        monkeypatch.setattr(fs.spla, "splu", tracked)
        mults = [g.multiplicity for g in ds.disk_spectrum_list(1.0, 4)]
        ops, _, _ = fs.observe(inclusion_scene[0], sum(mults) + 2, mults)
        # the unperturbed system is factorized first, the perturbed one second
        assert live_before == [0, 0]
        assert refs[0]() is None and ops.unperturbed._lu is None
        assert ops.perturbed._lu is not None  # the Osborn and energy solves still need it


class TestMatching:
    def test_harmonic_average(self):
        assert fs.harmonic_average(np.array([2.0, 2.0])) == pytest.approx(2.0)
        assert fs.harmonic_average(np.array([1.0, 3.0])) == pytest.approx(1.5)
        assert fs.harmonic_average(np.array([0.0])) == 0.0

    def test_epsilon_zero_identity(self, disk_system):
        pairs = fs.solve_eigen(disk_system, 5)
        mults = [g.multiplicity for g in ds.disk_spectrum_list(1.0, 5)]
        groups = fs.cluster_spectrum(pairs, multiplicities=mults)
        matched = fs.match_groups(groups, pairs, disk_system)
        for grp, pg in zip(groups, matched):
            assert np.allclose(pg.lambdas, grp.lambdas)
            assert pg.overlap > 1.0 - 1e-10
            assert pg.harmonic_average == pytest.approx(grp.lam, rel=1e-12)

    def test_matched_shift_sign(self, inclusion_scene):
        _, _, unpert, pert = inclusion_scene
        mults = [g.multiplicity for g in ds.disk_spectrum_list(1.0, 6)]
        groups = fs.cluster_spectrum(fs.solve_eigen(unpert, 6), multiplicities=mults)
        matched = fs.match_groups(groups, fs.solve_eigen(pert, 6), unpert)
        # k = 2 > 1 raises the Rayleigh quotient: the shift must be positive
        assert matched[1].harmonic_average > groups[1].lam
        assert matched[1].overlap > 0.99

    def test_matching_error_when_modes_missing(self, disk_system):
        pairs = fs.solve_eigen(disk_system, 6)
        mults = [g.multiplicity for g in ds.disk_spectrum_list(1.0, 6)]
        groups = fs.cluster_spectrum(pairs, multiplicities=mults)
        # offer only the wrong eigenpairs to the second group
        with pytest.raises(MatchingError, match="overlap"):
            fs.match_groups([groups[1]], pairs[4:], disk_system)

    def test_same_mesh_shift_consistency(self):
        shifts = []
        for h in (0.05, 0.035):
            inc = geo.InclusionSpec(z=(0.4, 0.0), shape=geo.DiskShape(1.0), epsilon=0.05, k=2.0)
            cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(inc,), d0=0.4, mesh_h=h)
            mesh = geo.build_mesh(cfg)
            unpert = fs.assemble(mesh, ())
            pert = fs.assemble(mesh, cfg.inclusions)
            mults = [g.multiplicity for g in ds.disk_spectrum_list(1.0, 4)]
            groups = fs.cluster_spectrum(fs.solve_eigen(unpert, 4), multiplicities=mults)
            matched = fs.match_groups(groups, fs.solve_eigen(pert, 4), unpert)
            shifts.append(matched[1].harmonic_average - groups[1].lam)
        assert abs(shifts[1] - shifts[0]) <= 0.1 * abs(shifts[1])
