import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigenshift import polarization as pol
from eigenshift.errors import SolverError, ValidationError
from eigenshift.geometry import DiskShape, EllipseShape

K_DEFAULT = 2.0

# separation-of-variables oracle for the unit disk: ansatz a*xi_p inside,
# b*xi_p/|xi|^2 outside; continuity gives b = a, the flux jump
# -b nu_p - k a nu_p = nu_p gives a = -1/(1+k)
def disk_interior_coeff(k: float) -> float:
    return -1.0 / (1.0 + k)


def contrasts():
    return st.floats(0.05, 10.0).filter(lambda k: abs(k - 1.0) > 0.05)


class TestCellProblem:
    def test_disk_interior_trace(self):
        dens = pol.solve_cell_problem(DiskShape(1.0), K_DEFAULT, 256)
        a = disk_interior_coeff(K_DEFAULT)
        for p in range(2):
            expected = a * dens.panels.normals[:, p]
            assert np.max(np.abs(dens.interior_trace[:, p] - expected)) < 1e-4

    def test_zero_charge(self):
        dens = pol.solve_cell_problem(EllipseShape(1.0, 0.6, 0.4), 3.0, 128)
        assert abs(dens.charge(0)) < 1e-8
        assert abs(dens.charge(1)) < 1e-8

    def test_no_contrast_rejected(self):
        with pytest.raises(ValidationError, match="no contrast"):
            pol.solve_cell_problem(DiskShape(1.0), 1.0, 64)

    def test_nonpositive_conductivity_rejected(self):
        with pytest.raises(ValidationError):
            pol.solve_cell_problem(DiskShape(1.0), -2.0, 64)

    def test_min_panels(self):
        with pytest.raises(ValidationError):
            pol.solve_cell_problem(DiskShape(1.0), 2.0, 16)

    @pytest.mark.parametrize("panels", [256, 1024])
    def test_recorded_checks(self, panels):
        shape, k = EllipseShape(1.0, 0.5, 0.7), K_DEFAULT
        dens = pol.solve_cell_problem(shape, k, panels)
        pan = dens.panels
        # the system as written before the row-block rewrite, with eye and outer
        kstar = pol.adjoint_np_matrix(pan)
        lam_np = (k + 1.0) / (2.0 * (k - 1.0))
        a = lam_np * np.eye(pan.n) + kstar + np.outer(np.ones(pan.n), pan.lengths) / pan.perimeter
        rhs = -pan.normals / (k - 1.0)
        residual = np.linalg.norm(a @ dens.values - rhs) / np.linalg.norm(rhs)
        assert dens.residual == pytest.approx(residual, rel=1e-6)
        assert 0.0 < dens.residual <= 1e-13
        worst = max(abs(dens.charge(0)), abs(dens.charge(1))) / pan.perimeter
        assert dens.zero_charge == worst <= 1e-13
        tensor = pol.polarization_tensor(shape, k, "literature", panels)
        assert (tensor.residual, tensor.zero_charge) == (dens.residual, dens.zero_charge)

    def test_inaccurate_solve_raises(self, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(pol.np.linalg, "solve", lambda a, b: solve(a, b) * (1.0 + 1e-8))
        with pytest.raises(SolverError, match="residual"):
            pol.solve_cell_problem(DiskShape(1.0), K_DEFAULT, 64)

    def test_cell_solve_memory(self):
        # K*, the system matrix and LAPACK's copy are the only n x n arrays;
        # a (t, n, 2) kernel would hold several more at 1024 panels
        tracemalloc.start()
        try:
            pol.solve_cell_problem(EllipseShape(1.0, 0.5, 0.7), K_DEFAULT, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class SquareShape:
    """Four straight sides of n/4 panels each: midpoints lie collinear with
    the other panels of their side, beyond those panels' ends."""

    def boundary_points(self, n):
        t = np.arange(n // 4) / (n // 4)
        one, zero = np.ones_like(t), np.zeros_like(t)
        sides = [(t, zero), (one, t), (1.0 - t, one), (zero, 1.0 - t)]
        return np.concatenate([np.column_stack(side) for side in sides]) - 0.5


KERNEL_SHAPES = [DiskShape(1.0), EllipseShape(1.0, 0.5, 0.7), SquareShape()]
KERNEL_IDS = ["disk", "ellipse", "square"]


def dense_panel_coordinates(pan, targets):
    """(d, s, p, tang, perp) with d the (t, n, 2) target-minus-vertex array."""
    a = pan.vertices
    tang = (np.roll(a, -1, axis=0) - a) / pan.lengths[:, None]
    perp = np.column_stack([tang[:, 1], -tang[:, 0]])
    d = targets[:, None, :] - a[None, :, :]
    return d, np.einsum("tnd,nd->tn", d, tang), np.einsum("tnd,nd->tn", d, perp), tang, perp


def dense_single_layer(pan, targets):
    _, s, p, _, _ = dense_panel_coordinates(pan, targets)
    upper = pol._log_antiderivative(pan.lengths[None, :] - s, p)
    return -(upper - pol._log_antiderivative(-s, p)) / (2.0 * np.pi)


def dense_gradient(pan, targets):
    """The (t, n, 2) gradient of the exact panel potentials, on-panel
    targets nudged to the exterior side."""
    _, s, p, tang, perp = dense_panel_coordinates(pan, targets)
    on_panel = (np.abs(p) < 1e-12) & (s > -1e-12) & (s < pan.lengths[None, :] + 1e-12)
    p = np.where(on_panel, 1e-12, p)
    w1, w0 = pan.lengths[None, :] - s, -s
    with np.errstate(divide="ignore", invalid="ignore"):
        dlds = 0.5 * (np.log(w0 * w0 + p * p) - np.log(w1 * w1 + p * p))
        dldp = np.arctan(w1 / p) - np.arctan(w0 / p)
        dldp = np.where(np.isfinite(dldp), dldp, 0.0)
    grad = dlds[..., None] * tang[None] + dldp[..., None] * perp[None]
    return -grad / (2.0 * np.pi)


class TestRowBlockKernels:
    """The row-block kernels against the (t, n, 2) formulas they replace."""

    @pytest.mark.parametrize("n", [64, 300])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=KERNEL_IDS)
    def test_single_layer_matches_dense_formula(self, shape, n):
        pan = pol.panelize(shape, n)
        a, b = pan.vertices, np.roll(pan.vertices, -1, axis=0)
        cloud = np.random.default_rng(4).uniform(-3.0, 3.0, (700, 2))
        targets = np.concatenate([
            pan.midpoints, a,                   # on a panel, and on its ends
            a + 1.5 * (b - a), a - 0.5 * (b - a),  # collinear beyond either end
            cloud,
        ])
        dense = dense_single_layer(pan, targets)
        assert np.all(np.isfinite(dense))
        err = np.abs(pol.single_layer_matrix(pan, targets) - dense)
        assert np.max(err) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n", [64, 300])
    @pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=KERNEL_IDS)
    def test_adjoint_matches_dense_formula(self, shape, n):
        # every midpoint lies on its own panel; on the square it also lies
        # collinear with the other panels of its side
        pan = pol.panelize(shape, n)
        grad = dense_gradient(pan, pan.midpoints)
        dense = np.einsum("tnd,td->tn", grad, pan.normals)
        np.fill_diagonal(dense, 0.0)
        col = (pan.lengths[:, None] * dense).sum(axis=0)
        np.fill_diagonal(dense, (-0.5 * pan.lengths - col) / pan.lengths)
        # the scale is the (t, n, 2) gradient's: its dot with the target
        # normal cancels, and the diagonal's column sums cancel against
        # -len/2, so both formulas round at that scale, not at max |K*|
        err = np.abs(pol.adjoint_np_matrix(pan) - dense)
        assert np.max(err) <= 1e-14 * np.max(np.abs(grad))

    @pytest.mark.parametrize("rows, panels", [(1024, 1024), (1000, 256), (7, 2**18), (0, 64)])
    def test_row_blocks_cover_every_row(self, rows, panels):
        blocks = list(pol._row_blocks(rows, panels))
        covered = np.concatenate([np.arange(rows)[b] for b in blocks] + [np.zeros(0, int)])
        assert np.array_equal(covered, np.arange(rows))
        assert all(b.stop - b.start <= max(1, pol.BLOCK_PAIRS // panels) for b in blocks)


class TestPolarizationTensor:
    def test_disk_paper_value(self):
        t = pol.polarization_tensor(DiskShape(1.0), 2.0, "paper", 256)
        target = 2.0 * np.pi * 2.0 * (1.0 - 2.0) / 3.0  # 2 pi k (1-k)/(1+k)
        assert target == pytest.approx(-4.0 * np.pi / 3.0, rel=1e-15)
        assert t.entries[0, 0] == pytest.approx(target, rel=1e-3)
        assert t.entries[1, 1] == pytest.approx(target, rel=1e-3)

    def test_disk_literature_value(self):
        t = pol.polarization_tensor(DiskShape(1.0), 2.0, "literature", 256)
        target = 2.0 * np.pi * (2.0 - 1.0) / (2.0 + 1.0)
        assert t.entries[0, 0] == pytest.approx(target, rel=1e-3)

    def test_k_one_zero_tensor(self):
        t = pol.polarization_tensor(DiskShape(1.0), 1.0, "paper", 64)
        assert np.all(t.entries == 0.0)

    def test_disk_isotropy(self):
        t = pol.polarization_tensor(DiskShape(1.0), 2.0, "paper", 256)
        assert abs(t.entries[0, 0] - t.entries[1, 1]) < 1e-6 * abs(t.entries[0, 0])
        assert abs(t.entries[0, 1]) < 1e-6 * abs(t.entries[0, 0])

    def test_ellipse_against_closed_form(self):
        # literature-convention ellipse tensor in its principal frame:
        # (k-1)|B| diag((a+b)/(a+kb), (a+b)/(b+ka))
        a, b, k = 1.0, 0.5, 2.0
        t = pol.polarization_tensor(EllipseShape(a, b, 0.0), k, "literature", 256)
        area = np.pi * a * b
        exact = (k - 1) * area * np.array([(a + b) / (a + k * b), (a + b) / (b + k * a)])
        assert np.abs(t.entries[0, 0] - exact[0]) < 1e-3 * exact[0]
        assert np.abs(t.entries[1, 1] - exact[1]) < 1e-3 * exact[1]

    def test_rotation_equivariance(self):
        theta = 0.7
        base = pol.polarization_tensor(EllipseShape(1.0, 0.5, 0.0), 2.0, "literature", 256)
        rot = pol.polarization_tensor(EllipseShape(1.0, 0.5, theta), 2.0, "literature", 256)
        c, s = np.cos(theta), np.sin(theta)
        rmat = np.array([[c, -s], [s, c]])
        predicted = rmat @ base.entries @ rmat.T
        assert np.max(np.abs(rot.entries - predicted)) < 1e-6 * np.max(np.abs(base.entries))

    def test_self_convergence(self):
        errs = []
        exact = -4.0 * np.pi / 3.0
        for n in (64, 128, 256):
            t = pol.polarization_tensor(DiskShape(1.0), 2.0, "paper", n)
            errs.append(abs(t.entries[0, 0] - exact))
        order = np.log2(errs[0] / errs[2]) / 2.0
        assert order >= 1.0
        t256 = pol.polarization_tensor(DiskShape(1.0), 2.0, "paper", 256)
        t512 = pol.polarization_tensor(DiskShape(1.0), 2.0, "paper", 512)
        rel = np.max(np.abs(t256.entries - t512.entries)) / abs(t512.entries[0, 0])
        assert rel <= 1e-4

    def test_dense_direct_oracle_ellipse(self):
        # independent assembly path: nodal Gauss quadrature of the kernel at
        # 4x panels instead of exact flat-panel integrals
        shape = EllipseShape(1.0, 0.6, 0.3)
        k = 3.0
        n = 1024
        pan = pol.panelize(shape, n)
        xg, wg = np.polynomial.legendre.leggauss(4)
        verts = pan.vertices
        nxt = np.roll(verts, -1, axis=0)
        frac = 0.5 * (xg + 1.0)
        ypts = verts[None, :, :] + frac[:, None, None] * (nxt - verts)[None, :, :]
        kstar = np.zeros((n, n))
        for q in range(4):
            d = pan.midpoints[:, None, :] - ypts[q][None, :, :]
            r2 = np.sum(d * d, axis=2)
            kern = -np.einsum("tnd,td->tn", d, pan.normals) / (2.0 * np.pi * r2)
            kstar += 0.5 * wg[q] * kern * pan.lengths[None, :]
        np.fill_diagonal(kstar, 0.0)
        col = (pan.lengths[:, None] * kstar).sum(axis=0)
        np.fill_diagonal(kstar, (-0.5 * pan.lengths - col) / pan.lengths)
        lam_np = (k + 1.0) / (2.0 * (k - 1.0))
        a = lam_np * np.eye(n) + kstar + np.outer(np.ones(n), pan.lengths) / pan.perimeter
        psi = np.linalg.solve(a, -pan.normals / (k - 1.0))
        trace = kstar @ psi + 0.5 * psi
        moment = np.einsum("j,jp,jq->pq", pan.lengths, pan.midpoints, trace)
        direct = (1.0 - k) * shape.area * np.eye(2) + (1.0 - k) ** 2 * moment
        direct = 0.5 * (direct + direct.T)
        bem = pol.polarization_tensor(shape, k, "paper", 256)
        rel = np.max(np.abs(bem.entries - direct)) / np.max(np.abs(direct))
        assert rel < 1e-3

    @settings(max_examples=20, deadline=None)
    @given(contrasts())
    def test_symmetry_and_definiteness(self, k):
        t = pol.polarization_tensor(EllipseShape(1.0, 0.7, 0.3), k, "literature", 64)
        assert abs(t.entries[0, 1] - t.entries[1, 0]) <= 1e-8 * np.max(np.abs(t.entries))
        eigs = np.linalg.eigvalsh(t.entries)
        if k > 1:
            assert np.all(eigs > 0)
        else:
            assert np.all(eigs < 0)


@pytest.fixture(scope="module")
def density():
    return pol.solve_cell_problem(DiskShape(1.0), K_DEFAULT, 256)


class TestCorrector:

    def test_interior_linear(self, density):
        grad_u = np.array([0.7, -0.3])
        lam = 3.39
        cor = pol.corrector_field(density, grad_u, lam)
        pts = np.array([[0.2, 0.1], [-0.3, 0.4], [0.0, 0.0]])
        a = disk_interior_coeff(K_DEFAULT)
        exact = (K_DEFAULT - 1.0) / lam * a * (pts @ grad_u)
        assert np.max(np.abs(cor.evaluate(pts) - exact)) < 1e-5

    def test_interior_hessian_zero(self, density):
        # central second differences of v, mixed term included; h = 1e-2
        # keeps the rounding of v (~1e-16) amplified by 1/h^2 far below 1e-6
        cor = pol.corrector_field(density, np.array([1.0, 0.0]), 1.0)
        h = 1e-2
        p0 = np.array([0.2, 0.1])

        def v(dx, dy):
            return cor.evaluate(p0 + np.array([dx, dy]))[0]

        hxx = (v(h, 0) - 2.0 * v(0, 0) + v(-h, 0)) / h**2
        hyy = (v(0, h) - 2.0 * v(0, 0) + v(0, -h)) / h**2
        hxy = (v(h, h) - v(h, -h) - v(-h, h) + v(-h, -h)) / (4.0 * h * h)
        assert max(abs(hxx), abs(hyy), abs(hxy)) < 1e-6

    def test_far_field_decay(self, density):
        cor = pol.corrector_field(density, np.array([0.7, -0.3]), 3.39)
        rr = np.geomspace(10.0, 100.0, 12)
        pts = np.column_stack([rr / np.sqrt(2.0), rr / np.sqrt(2.0)])
        vals = np.abs(cor.evaluate(pts))
        slope = np.polyfit(np.log(rr), np.log(vals), 1)[0]
        assert slope <= -0.9

    def test_zero_gradient(self, density):
        cor = pol.corrector_field(density, np.zeros(2), 2.0)
        pts = np.array([[0.5, 0.5], [3.0, -1.0]])
        assert np.all(cor.evaluate(pts) == 0.0)

    def test_continuity_across_interface(self, density):
        cor = pol.corrector_field(density, np.array([0.7, -0.3]), 3.39)
        inner = cor.evaluate(np.array([[0.9999, 0.0]]))[0]
        outer = cor.evaluate(np.array([[1.0001, 0.0]]))[0]
        assert abs(inner - outer) < 1e-6

    def test_scaled_physical(self, density):
        cor = pol.corrector_field(density, np.array([0.7, -0.3]), 3.39)
        x = np.array([[0.41, 0.005]])
        xi = (x - np.array([0.4, 0.0])) / 0.05
        assert np.allclose(cor.scaled_physical(x, (0.4, 0.0), 0.05), 0.05 * cor.evaluate(xi))

    def test_bad_gradient_shape(self, density):
        with pytest.raises(ValidationError):
            pol.corrector_field(density, np.zeros(3), 1.0)


class TestNearFarEvaluator:
    """evaluate is exact within NEAR_RADIUS * rho and a multipole series
    beyond; both must agree with the dense exact panel integral."""

    @pytest.mark.parametrize(
        "shape", [DiskShape(1.0), EllipseShape(1.0, 0.5, 0.7)], ids=["disk", "ellipse"]
    )
    def test_matches_dense_panel_integral(self, shape):
        dens = pol.solve_cell_problem(shape, K_DEFAULT, 256)
        grad_u, lam = np.array([0.7, -0.3]), 3.39
        cor = pol.corrector_field(dens, grad_u, lam)
        rho = np.max(np.hypot(dens.panels.vertices[:, 0], dens.panels.vertices[:, 1]))
        edge = pol.NEAR_RADIUS * rho
        radii = np.concatenate([
            np.geomspace(0.05, 4.0 * edge, 200),
            np.full(40, edge),  # exactly on the near/far boundary
            edge * (1.0 + np.array([-1e-9, 1e-12, 1e-9, 1e-6, 1e-3])),
        ])
        theta = np.random.default_rng(3).uniform(0.0, 2.0 * np.pi, len(radii))
        xi = np.column_stack([radii * np.cos(theta), radii * np.sin(theta)])
        assert np.any(np.hypot(xi[:, 0], xi[:, 1]) > edge)
        assert np.any(np.hypot(xi[:, 0], xi[:, 1]) <= edge)
        coef = (K_DEFAULT - 1.0) / lam * grad_u
        dense = pol.single_layer_matrix(dens.panels, xi) @ (dens.values @ coef)
        err = np.abs(cor.evaluate(xi) - dense)
        assert np.max(err) <= 1e-11 * np.max(np.abs(dense))

    def test_memory_does_not_grow_with_near_targets(self, density):
        cor = pol.corrector_field(density, np.array([0.7, -0.3]), 3.39)
        rng = np.random.default_rng(5)
        z, eps = np.array([0.4, 0.0]), 0.02

        def peak(n):
            # every target lies within the near radius of the inclusion
            r = pol.NEAR_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, n))
            t = rng.uniform(0.0, 2.0 * np.pi, n)
            x = z + eps * np.column_stack([r * np.cos(t), r * np.sin(t)])
            tracemalloc.start()
            try:
                cor.scaled_physical(x, z, eps)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(200_000) <= 2.0 * peak(20_000)
