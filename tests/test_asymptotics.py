import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigenshift import asymptotics as asy
from eigenshift import disk_spectrum as ds
from eigenshift import field_solver as fs
from eigenshift import geometry as geo
from eigenshift import polarization as pol
from eigenshift.errors import ValidationError

UNIT_DISK = geo.DomainSpec(kind="disk", radius=1.0)


def make_inclusion(z=(0.4, 0.0), eps=0.05, k=2.0):
    return geo.InclusionSpec(z=z, shape=geo.DiskShape(1.0), epsilon=eps, k=k)


@pytest.fixture(scope="module")
def analytic_groups():
    return ds.disk_spectrum_list(1.0, 8)


@pytest.fixture(scope="module")
def disk_tensor():
    return pol.polarization_tensor(geo.DiskShape(1.0), 2.0, "literature", 128)


@pytest.fixture(scope="module")
def scene_ops():
    inc = make_inclusion()
    cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(inc,), d0=0.4, mesh_h=0.05)
    return fs.build_operators(cfg)


def stacked_gradients(group, inclusions):
    """The (m, L, 2) gradients of an analytic group at the inclusion centers."""
    return np.stack([group.gradients_at(inc.center) for inc in inclusions], axis=1)


def t_eps_images(system, group):
    """T_eps u_j in column j, as a sweep point solves them."""
    return np.column_stack([fs.solve_source(system, u) for u in group.vectors.T])


@pytest.fixture(scope="module")
def matched_pair(scene_ops, analytic_groups):
    mults = [g.multiplicity for g in analytic_groups[:4]]
    pairs_un = fs.solve_eigen(scene_ops.unperturbed, sum(mults))
    pairs_pe = fs.solve_eigen(scene_ops.perturbed, sum(mults))
    groups = fs.cluster_spectrum(pairs_un, multiplicities=mults)
    matched = fs.match_groups(groups, pairs_pe, scene_ops.unperturbed)
    return groups, matched


class TestPredictedShift:
    def test_exact_eps_squared_scaling(self, analytic_groups, disk_tensor):
        grads = stacked_gradients(analytic_groups[1], [make_inclusion()])
        p1 = asy.predicted_shift(grads, [disk_tensor], 0.05)
        p2 = asy.predicted_shift(grads, [disk_tensor], 0.10)
        assert p2 == pytest.approx(4.0 * p1, rel=1e-14)

    def test_additive_over_inclusions(self, analytic_groups, disk_tensor):
        g2 = analytic_groups[1]
        inc_a = make_inclusion(z=(0.4, 0.0))
        inc_b = make_inclusion(z=(-0.3, 0.3))
        both = asy.predicted_shift(
            stacked_gradients(g2, [inc_a, inc_b]), [disk_tensor, disk_tensor], 0.05)
        sep = (
            asy.predicted_shift(stacked_gradients(g2, [inc_a]), [disk_tensor], 0.05)
            + asy.predicted_shift(stacked_gradients(g2, [inc_b]), [disk_tensor], 0.05)
        )
        assert both == pytest.approx(sep, rel=1e-14)

    def test_zero_tensor_gives_zero(self, analytic_groups):
        zero = pol.PolarizationTensor(
            entries=np.zeros((2, 2)), shape=geo.DiskShape(1.0), k=1.0, convention="paper"
        )
        grads = stacked_gradients(analytic_groups[1], [make_inclusion()])
        pred = asy.predicted_shift(grads, [zero], 0.05)
        assert pred == 0.0

    def test_centered_radial_mode_gives_zero(self, analytic_groups, disk_tensor):
        # rank-4 group is the first radial (s=0) mode; grad u(0) = 0
        grads = stacked_gradients(analytic_groups[3], [make_inclusion(z=(0.0, 0.0))])
        pred = asy.predicted_shift(grads, [disk_tensor], 0.05)
        assert pred == pytest.approx(0.0, abs=1e-22)

    def test_m_factor_halves_pair(self, analytic_groups, disk_tensor):
        grads = stacked_gradients(analytic_groups[1], [make_inclusion()])
        with_m = asy.predicted_shift(grads, [disk_tensor], 0.05, use_m_factor=True)
        without = asy.predicted_shift(grads, [disk_tensor], 0.05, use_m_factor=False)
        assert without == pytest.approx(2.0 * with_m, rel=1e-14)

    def test_basis_invariance_of_sum(self, analytic_groups, disk_tensor):
        # rotating the degenerate pair changes per-mode forms, not the sum
        grads = stacked_gradients(analytic_groups[1], [make_inclusion()])
        theta = 0.35
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        mixed = np.einsum("jk,kld->jld", rot, grads)
        base = asy.predicted_shift(grads, [disk_tensor], 0.05)
        turned = asy.predicted_shift(mixed, [disk_tensor], 0.05)
        assert turned == pytest.approx(base, rel=1e-12)

    def test_tensor_count_mismatch(self, analytic_groups, disk_tensor):
        grads = stacked_gradients(analytic_groups[1], [make_inclusion()])
        with pytest.raises(ValidationError):
            asy.predicted_shift(grads, [], 0.05)

    def test_benchmark_constant(self, analytic_groups):
        # delta_pred / eps^2 for the disk benchmark (first m=2 group,
        # inclusion at (0.4, 0), k=2): 3.59426 from the closed-form disk
        # tensor 2 pi (k-1)/(k+1) and analytic gradients; the measured
        # eigenvalue shifts extrapolate to the same constant (3.5948
        # observed/eps^2 at eps=0.02, converging from above)
        inc = make_inclusion()
        tensor = pol.polarization_tensor(geo.DiskShape(1.0), 2.0, "literature", 512)
        pred = asy.predicted_shift(stacked_gradients(analytic_groups[1], [inc]), [tensor], 1.0)
        closed_form = (
            2.0 * np.pi / 3.0 * np.sum(analytic_groups[1].gradients_at((0.4, 0.0)) ** 2) / 2.0
        )
        assert closed_form == pytest.approx(3.5942572846, abs=1e-9)
        assert pred == pytest.approx(closed_form, rel=2e-4)


class TestRecovery:
    def test_quadratic_recovered_exactly(self, scene_ops):
        mesh = scene_ops.mesh
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        vals = 1.5 + 2.0 * x - y + 0.5 * x * x + 0.25 * x * y - 0.75 * y * y
        v, grad, hess = asy.recover_quadratic(mesh, vals, (0.1, -0.2), radius=0.15)
        x0, y0 = 0.1, -0.2
        assert grad[0] == pytest.approx(2.0 + x0 + 0.25 * y0, abs=1e-9)
        assert grad[1] == pytest.approx(-1.0 + 0.25 * x0 - 1.5 * y0, abs=1e-9)
        assert hess[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert hess[0, 1] == pytest.approx(0.25, abs=1e-9)
        assert hess[1, 1] == pytest.approx(-1.5, abs=1e-9)

    def test_eigenfunction_gradient_accuracy(self, scene_ops, analytic_groups):
        pairs = fs.solve_eigen(scene_ops.unperturbed, 5)
        mults = [g.multiplicity for g in analytic_groups[:3]]
        groups = fs.cluster_spectrum(pairs, multiplicities=mults)
        grp = groups[1]
        rec = np.array([
            [asy.recover_quadratic(scene_ops.mesh, grp.vectors[:, j], (0.4, 0.0), radius=0.15)[1]]
            for j in range(grp.multiplicity)
        ])  # (m, 1, 2)
        exact = np.stack([analytic_groups[1].gradients_at((0.4, 0.0))], axis=1)
        # compare the basis-invariant Gram matrices of the gradient sets;
        # the fit bias is O(radius^2) ~ 1e-2 at radius = 3h
        gram_rec = np.einsum("jld,kld->jk", rec, rec)
        gram_exact = np.einsum("jld,kld->jk", exact, exact)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(gram_rec)),
            np.sort(np.linalg.eigvalsh(gram_exact)),
            rtol=2e-2,
        )


class TestOsborn:
    def test_identity_perturbation(self, scene_ops, analytic_groups):
        mults = [g.multiplicity for g in analytic_groups[:3]]
        pairs = fs.solve_eigen(scene_ops.unperturbed, sum(mults))
        groups = fs.cluster_spectrum(pairs, multiplicities=mults)
        matched = fs.match_groups(groups, pairs, scene_ops.unperturbed)
        rep = asy.osborn_residual(
            groups[1], matched[1], scene_ops.unperturbed,
            t_eps_images(scene_ops.unperturbed, groups[1]),
        )
        assert rep.lhs <= 1e-12
        assert rep.bound_proxy <= 1e-14

    def test_finite_and_nonnegative(self, scene_ops, matched_pair):
        groups, matched = matched_pair
        rep = asy.osborn_residual(
            groups[1], matched[1], scene_ops.unperturbed,
            t_eps_images(scene_ops.perturbed, groups[1]),
        )
        assert rep.lhs >= 0 and np.isfinite(rep.lhs)
        assert rep.bound_proxy > 0
        assert rep.eigen_term == pytest.approx(
            1.0 / groups[1].lam - 1.0 / matched[1].harmonic_average, rel=1e-12
        )

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.1, 50.0), st.floats(0.1, 50.0))
    @example(0.1, 0.10000000000000002)
    def test_reciprocal_identity(self, lam_a, lam_b):
        # |mu_eps - mu| = |lam_eps - lam| / (lam_eps lam) for matched scalars;
        # rounding the two reciprocals costs up to one ulp of the larger one,
        # which the subtraction cannot cancel when lam_a and lam_b nearly agree
        lhs = abs(1.0 / lam_a - 1.0 / lam_b)
        rhs = abs(lam_b - lam_a) / (lam_a * lam_b)
        ulp = np.spacing(max(1.0 / lam_a, 1.0 / lam_b))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=4.0 * ulp)


class TestEnergy:
    def test_no_contrast_zero_difference(self, scene_ops, matched_pair):
        # a = 1 on both sides: u_eps = T g = g/lam for an unperturbed mode g,
        # and the report is zero
        ops = fs.SceneOperators(
            config=scene_ops.config,
            mesh=scene_ops.mesh,
            unperturbed=scene_ops.unperturbed,
            perturbed=scene_ops.unperturbed,
        )
        grp = matched_pair[0][1]
        g, lam = grp.vectors[:, 0], grp.lambdas[0]
        density = pol.solve_cell_problem(geo.DiskShape(1.0), 2.0, 64)
        corrector = pol.corrector_field(density, np.zeros(2), 1.0)
        rep = asy.energy_estimate(ops, g, lam, fs.solve_source(ops.perturbed, g), corrector)
        assert rep.h1_uncorrected == pytest.approx(0.0, abs=1e-12)

    def test_constant_mode_is_no_source(self, scene_ops, matched_pair):
        grp = matched_pair[0][0]  # lambda = 0: T g = g/lam does not exist
        density = pol.solve_cell_problem(geo.DiskShape(1.0), 2.0, 64)
        corrector = pol.corrector_field(density, np.zeros(2), 1.0)
        with pytest.raises(ValidationError):
            asy.energy_estimate(scene_ops, grp.vectors[:, 0], grp.lambdas[0],
                                np.zeros(scene_ops.unperturbed.n), corrector)

    def test_corrector_improves(self, scene_ops, matched_pair):
        groups, _ = matched_pair
        grp = groups[1]
        g_mode = grp.vectors[:, 0]
        inc = [i for i in scene_ops.config.inclusions][0]
        density = pol.solve_cell_problem(inc.shape, inc.k, 128)
        _, grad, _ = asy.recover_quadratic(
            scene_ops.mesh, g_mode, inc.center, radius=0.12
        )
        corrector = pol.corrector_field(density, grad / grp.lambdas[0], 1.0)
        u_eps = fs.solve_source(scene_ops.perturbed, g_mode)
        rep = asy.energy_estimate(scene_ops, g_mode, grp.lambdas[0], u_eps, corrector)
        assert rep.improved
        assert rep.h1_corrected < rep.h1_uncorrected
        assert rep.rhs_proxy > 0
        assert all(f >= 0 for f in rep.factors)

    def test_flipped_sign_degrades(self, scene_ops, matched_pair):
        groups, _ = matched_pair
        grp = groups[1]
        g_mode = grp.vectors[:, 0]
        inc = scene_ops.config.inclusions[0]
        density = pol.solve_cell_problem(inc.shape, inc.k, 128)
        _, grad, _ = asy.recover_quadratic(
            scene_ops.mesh, g_mode, inc.center, radius=0.12
        )
        # the opposite sign (1 - k) of the coefficient, exactly: -grad negates
        # the product (k - 1) / lam * grad bit for bit
        good = pol.corrector_field(density, grad / grp.lambdas[0], 1.0)
        bad = pol.corrector_field(density, -grad / grp.lambdas[0], 1.0)
        u_eps = fs.solve_source(scene_ops.perturbed, g_mode)
        rep_good = asy.energy_estimate(scene_ops, g_mode, grp.lambdas[0], u_eps, good)
        rep_bad = asy.energy_estimate(scene_ops, g_mode, grp.lambdas[0], u_eps, bad)
        assert rep_good.h1_corrected < rep_bad.h1_corrected
