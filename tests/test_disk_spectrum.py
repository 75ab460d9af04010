import itertools
from collections import Counter

import numpy as np
import pytest
import scipy.special as sp

from eigenshift import disk_spectrum as ds
from eigenshift import specfun
from eigenshift.errors import DomainError


def disk_quad(f, R=1.0, nr=80, nt=256):
    """Tensor Gauss-Legendre x trapezoid quadrature over the disk."""
    xg, wg = np.polynomial.legendre.leggauss(nr)
    r = 0.5 * R * (xg + 1)
    wr = 0.5 * R * wg
    t = 2 * np.pi * np.arange(nt) / nt
    rr, tt = np.meshgrid(r, t, indexing="ij")
    pts = np.column_stack([(rr * np.cos(tt)).ravel(), (rr * np.sin(tt)).ravel()])
    vals = f(pts).reshape(nr, nt)
    return float(np.sum(vals * (wr[:, None] * rr * (2 * np.pi / nt))))


@pytest.fixture(scope="module")
def groups():
    return ds.disk_spectrum_list(1.0, 12)


class TestSpectrumList:
    def test_constant_mode_first(self, groups):
        assert groups[0].lam == 0.0
        assert groups[0].multiplicity == 1

    def test_first_pair(self, groups):
        # lambda_2 = lambda_3 = beta_{1,1}^2
        beta = specfun.bessel_deriv_zero(1, 1).beta
        assert groups[1].lam == pytest.approx(beta**2, abs=0.0)
        assert groups[1].lam == pytest.approx(3.38996, abs=1e-5)
        assert groups[1].multiplicity == 2

    def test_sorted(self, groups):
        lams = [g.lam for g in groups]
        assert lams == sorted(lams)

    def test_multiplicity_structure(self, groups):
        for g in groups[1:]:
            s_orders = {m.s for m in g.modes}
            if s_orders == {0}:
                assert g.multiplicity == 1
            else:
                assert g.multiplicity % 2 == 0

    def test_count_coverage(self):
        few = ds.disk_spectrum_list(1.0, 1)
        assert len(few) == 1
        many = ds.disk_spectrum_list(1.0, 50)
        assert sum(g.multiplicity for g in many) >= 50

    def test_each_zero_looked_up_once(self, monkeypatch):
        calls = []
        lookup = specfun.bessel_deriv_zero

        def counted(s, i):
            calls.append((s, i))
            return lookup(s, i)

        monkeypatch.setattr(specfun, "bessel_deriv_zero", counted)
        ds.disk_spectrum_list(1.0, 400)
        assert calls and len(calls) == len(set(calls))

    def test_normalization_once_per_zero(self, monkeypatch):
        calls = Counter()
        bessel_j = specfun.bessel_j

        def counted(s, x):
            if np.ndim(x) == 0:
                calls[(s, float(x))] += 1
            return bessel_j(s, x)

        monkeypatch.setattr(specfun, "bessel_j", counted)
        groups = ds.disk_spectrum_list(1.0, 60)
        for g in groups[1:]:
            zeros = {(m.s, m.beta) for m in g.modes}
            assert sum(calls[z] for z in zeros) == len(zeros)

    def test_matches_scipy_enumeration(self):
        groups = ds.disk_spectrum_list(1.0, 400)
        top = np.sqrt(groups[-1].lam) * (1.0 + 1e-9)
        zeros = {s: sp.jnp_zeros(s, 20) for s in range(61)}  # s = 0 excludes x = 0
        reference = sorted(
            (beta, 1 if s == 0 else 2) for s, z in zeros.items() for beta in z if beta <= top
        )
        assert [g.multiplicity for g in groups[1:]] == [m for _, m in reference]
        for g, (beta, _) in zip(groups[1:], reference):
            for mode in g.modes:
                assert abs(mode.beta - zeros[mode.s][mode.i - 1]) <= 1e-10
                assert abs(mode.beta - beta) <= 1e-10
        assert sum(g.multiplicity for g in groups) >= 400

    def test_radius_scaling(self):
        g1 = ds.disk_spectrum_list(1.0, 5)
        g2 = ds.disk_spectrum_list(2.0, 5)
        for a, b in zip(g1[1:], g2[1:]):
            assert b.lam == pytest.approx(a.lam / 4.0, rel=1e-12)


class TestEigenfunctions:
    def test_constant_mode_value(self, groups):
        f = groups[0].functions[0]
        pts = np.array([[0.0, 0.0], [0.5, 0.2], [-0.9, 0.1]])
        assert np.allclose(f.value(pts), 1.0 / np.sqrt(np.pi))

    def test_unit_norm(self, groups):
        for g in groups[:6]:
            for f in g.functions:
                assert disk_quad(lambda p: f.value(p) ** 2) == pytest.approx(1.0, abs=1e-8)

    def test_mass_orthogonality(self, groups):
        fns = [f for g in groups[:4] for f in g.functions]
        for fa, fb in itertools.combinations(fns, 2):
            assert abs(disk_quad(lambda p: fa.value(p) * fb.value(p))) < 1e-8

    def test_eigen_residual(self, groups):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-0.7, 0.7, (150, 2))
        pts = pts[np.hypot(pts[:, 0], pts[:, 1]) < 0.95][:100]
        for g in groups[1:]:
            for f in g.functions:
                hess = f.hessian(pts)
                lap = hess[:, 0, 0] + hess[:, 1, 1]
                assert np.max(np.abs(lap + g.lam * f.value(pts))) <= 1e-6 * g.lam

    def test_neumann_residual(self, groups):
        t = np.linspace(0, 2 * np.pi, 65)[:-1]
        bp = np.column_stack([np.cos(t), np.sin(t)])
        for g in groups[1:]:
            for f in g.functions:
                normal_der = np.sum(f.gradient(bp) * bp, axis=1)
                assert np.max(np.abs(normal_der)) <= 1e-9

    def test_hessian_matches_finite_differences(self, groups):
        h = 1e-6
        p0 = np.array([[0.31, -0.22]])
        for g in groups[:5]:
            for f in g.functions:
                H = f.hessian(p0)[0]
                Hfd = np.zeros((2, 2))
                for j in range(2):
                    dp = np.zeros(2)
                    dp[j] = h
                    Hfd[:, j] = (f.gradient(p0 + dp)[0] - f.gradient(p0 - dp)[0]) / (2 * h)
                assert np.max(np.abs(H - Hfd)) < 1e-4 * max(1.0, np.max(np.abs(H)))

    def test_center_gradient_limits(self, groups):
        origin = np.array([[0.0, 0.0]])
        pair = groups[1]  # s = 1 pair has the only nonzero gradient at 0
        g_cos = pair.functions[0].gradient(origin)[0]
        g_sin = pair.functions[1].gradient(origin)[0]
        assert g_cos[1] == 0.0 and g_sin[0] == 0.0
        assert g_cos[0] == pytest.approx(g_sin[1], rel=1e-12)
        for g in groups[2:5]:
            assert np.allclose(g.gradients_at((0.0, 0.0)), 0.0)

    def test_polar_entry_point(self, groups):
        mode = groups[1].modes[0]
        val, grad, hess = ds.disk_eigenfunction(mode, (0.4, 0.0))
        pt = np.array([[0.4, 0.0]])
        f = groups[1].functions[0]
        assert val == pytest.approx(float(f.value(pt)[0]), rel=1e-14)
        assert np.allclose(grad, f.gradient(pt)[0])
        assert np.allclose(hess, f.hessian(pt)[0])
        with pytest.raises(DomainError):
            ds.disk_eigenfunction(mode, (1.2, 0.0))
