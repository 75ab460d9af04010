"""Tests for the Bessel layer.

The bisection oracles below evaluate J_s through a direct power series
written in this file, independent of the package's evaluation paths.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, strategies as st

from eigenshift import specfun
from eigenshift.errors import DomainError, ValidationError


def series_j(s: int, x: float, terms: int = 60) -> float:
    """Plain ascending series, independent of the package implementation."""
    term = (0.5 * x) ** s / math.factorial(s) if x != 0 else (1.0 if s == 0 else 0.0)
    total = term
    for m in range(1, terms):
        term *= -(0.25 * x * x) / (m * (m + s))
        total += term
    return total


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * f_lo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# first J_0 zero / first zeros of J_1' and J_0', frozen from the oracles:
J0_FIRST_ZERO = bisect(lambda x: series_j(0, x), 2.0, 3.0)
BETA_11 = bisect(lambda x: 0.5 * (series_j(0, x) - series_j(2, x)), 1.0, 2.5)
BETA_01 = bisect(lambda x: -series_j(1, x), 3.0, 4.5)


class TestBesselJ:
    def test_j0_at_zero(self):
        assert specfun.bessel_j(0, 0.0) == 1.0

    def test_j1_at_zero(self):
        assert specfun.bessel_j(1, 0.0) == 0.0

    def test_first_j0_zero(self):
        assert abs(J0_FIRST_ZERO - 2.404825557695773) < 1e-12
        assert abs(specfun.bessel_j(0, J0_FIRST_ZERO)) < 1e-10

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(7)
        for s in [0, 1, 2, 5, 11, 40, 90, 200]:
            xs = rng.uniform(0.0, 500.0, 150)
            err = np.max(np.abs(specfun.bessel_j(s, xs) - sp.jv(s, xs)))
            assert err < 1e-12, (s, err)

    def test_series_seam_against_scipy(self):
        # the power series cancels more as x grows (largest term ~4e3 at
        # x = 12, ~7e2 at x = 10); J_0 and J_1 err most where it hands over
        xs = 9.0 + 1e-5 * np.arange(400_001)  # [9, 13]
        for s in (0, 1, 2):
            err = np.max(np.abs(specfun.bessel_j(s, xs) - sp.jv(s, xs)))
            assert err <= 1e-12, (s, err)

    def test_series_asymptotic_overlap_band(self):
        # the two closed-form evaluation paths must agree on a shared band
        xs = np.linspace(14.0, 17.0, 23)
        for s in (0, 1, 2):
            diff = np.abs(specfun._series(s, xs) - specfun._hankel(s, xs))
            assert np.max(diff) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            specfun.bessel_j(0, 2.0e4)
        with pytest.raises(DomainError):
            specfun.bessel_j(0, -1.0)
        with pytest.raises(DomainError):
            specfun.bessel_j(0, np.nan)
        with pytest.raises(ValidationError):
            specfun.bessel_j(201, 1.0)
        with pytest.raises(ValidationError):
            specfun.bessel_j(-1, 1.0)

    def test_two_dimensional_input_keeps_shape(self):
        # the grid spans all three regimes: series, Miller and Hankel
        xs = np.linspace(0.0, 60.0, 24).reshape(4, 6)
        for s in (0, 3):
            j = specfun.bessel_j(s, xs)
            jp = specfun.bessel_j_prime(s, xs)
            assert j.shape == xs.shape and jp.shape == xs.shape
            assert np.max(np.abs(j - sp.jv(s, xs))) < 1e-12
            assert np.max(np.abs(jp - sp.jvp(s, xs))) < 1e-11

    def test_miller_matches_rescale_test_on_every_step(self):
        def reference(orders, x):
            # the backward recurrence with the rescale test run on every step
            top = float(max(np.max(x), max(orders)))
            m_start = int(top + np.sqrt(160.0 * top)) + 12
            m_start += m_start % 2
            bjp, bj, norm = np.zeros_like(x), np.full_like(x, 1e-30), np.zeros_like(x)
            out = {n: np.zeros_like(x) for n in orders}
            for m in range(m_start, 0, -1):
                bjp, bj = bj, (2.0 * m / x) * bj - bjp
                big = np.abs(bj) > 1e250
                if np.any(big):
                    scale = np.where(big, 1e-250, 1.0)
                    bj, bjp, norm = bj * scale, bjp * scale, norm * scale
                    out = {n: v * scale for n, v in out.items()}
                if (m - 1) % 2 == 0 and m - 1 > 0:
                    norm = norm + 2.0 * bj
                if m - 1 in out:
                    out[m - 1] = bj.copy()
            norm = norm + bj
            return np.stack([out[n] / norm for n in orders])

        cases = [
            ((0,), np.array([20.0])),
            ((4, 5, 6), np.linspace(12.5, 29.0, 40)),
            ((120,), np.array([13.0])),                        # rescales once
            ((198, 199, 200), np.linspace(12.5, 600.0, 50)),  # rescales some entries only
        ]
        for orders, x in cases:
            assert np.array_equal(specfun._miller(orders, x), reference(orders, x))


class TestBesselJPrime:
    def test_at_zero(self):
        assert specfun.bessel_j_prime(0, 0.0) == 0.0
        assert specfun.bessel_j_prime(1, 0.0) == 0.5

    def test_zero_of_j0_prime(self):
        assert abs(specfun.bessel_j_prime(0, BETA_01)) < 1e-10

    def test_against_scipy(self):
        rng = np.random.default_rng(3)
        for s in [0, 1, 3, 8]:
            xs = rng.uniform(0.0, 80.0, 60)
            err = np.max(np.abs(specfun.bessel_j_prime(s, xs) - sp.jvp(s, xs)))
            assert err < 1e-11

    def test_order_range(self):
        # J_s' needs J_{s+1}, so the top supported order has no derivative
        x = np.array([50.0, 250.0])
        assert np.max(np.abs(specfun.bessel_j_prime(199, x) - sp.jvp(199, x))) < 1e-12
        with pytest.raises(ValidationError, match="derivative order 200"):
            specfun.bessel_j_prime(200, 1.0)


class TestMcMahon:
    @pytest.mark.parametrize(
        "s,i,expected",
        [(0, 3, 2.25 * np.pi), (2, 1, 1.25 * np.pi), (0, 1, 0.25 * np.pi)],
    )
    def test_formula(self, s, i, expected):
        assert specfun.mcmahon_estimate(s, i) == pytest.approx(expected, abs=0.0)

    @given(st.integers(0, 50), st.integers(1, 100))
    def test_monotone_in_index(self, s, i):
        assert specfun.mcmahon_estimate(s, i + 1) > specfun.mcmahon_estimate(s, i)


class TestDerivZeros:
    def test_beta11_oracle(self):
        mode = specfun.bessel_deriv_zero(1, 1)
        assert mode.beta == pytest.approx(BETA_11, abs=1e-5)
        assert mode.beta == pytest.approx(1.841184, abs=1e-5)

    def test_beta01_oracle(self):
        mode = specfun.bessel_deriv_zero(0, 1)
        assert mode.beta == pytest.approx(BETA_01, abs=1e-5)
        assert mode.beta == pytest.approx(3.831706, abs=1e-5)

    def test_residual_invariant(self):
        for s in (0, 1, 4, 17, 60):
            for i in (1, 2, 9, 40):
                mode = specfun.bessel_deriv_zero(s, i)
                assert abs(specfun.bessel_j_prime(s, mode.beta)) <= 1e-12

    def test_interlacing(self):
        # classical interlacing in the order holds for s >= 1; the s = 0
        # count excludes the trivial zero, which shifts its row by one:
        # beta_{1,i} < beta_{0,i} < beta_{1,i+1}.
        betas = {
            (s, i): specfun.bessel_deriv_zero(s, i).beta
            for s in range(0, 7)
            for i in range(1, 9)
        }
        for s in range(0, 7):
            for i in range(1, 8):
                assert betas[(s, i)] < betas[(s, i + 1)]
        for s in range(1, 6):
            for i in range(1, 9):
                assert betas[(s, i)] < betas[(s + 1, i)]
        for i in range(1, 8):
            assert betas[(1, i)] < betas[(0, i)] < betas[(1, i + 1)]

    def test_mcmahon_consistency_large_index(self):
        # beta_si = beta'_si + O(1/beta'_si) for fixed s, large i.  The
        # actual asymptotic offset is (4s^2+3)/(8 beta'), so a 10/beta'
        # envelope holds for s <= 4; s = 0 needs the index shifted by one
        # because this package's count excludes the trivial zero.
        for s in range(1, 5):
            for i in (10, 25, 60, 120):
                beta = specfun.bessel_deriv_zero(s, i).beta
                est = specfun.mcmahon_estimate(s, i)
                assert abs(beta - est) <= 10.0 / est
        for i in (10, 25, 60, 120):
            beta = specfun.bessel_deriv_zero(0, i).beta
            est = specfun.mcmahon_estimate(0, i + 1)
            assert abs(beta - est) <= 10.0 / est

    def test_cache_hit_skips_scan_and_refinement(self, monkeypatch):
        monkeypatch.setattr(specfun, "_zero_cache", {})
        ninth = specfun.bessel_deriv_zero(3, 9)
        calls = []
        for name in ("_j_pair", "_refine_zeros"):
            fn = getattr(specfun, name)
            monkeypatch.setattr(
                specfun, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args)
            )
        fourth = specfun.bessel_deriv_zero(3, 4)
        assert calls == []
        assert 0.0 < fourth.beta < ninth.beta

    def test_index_bounds(self):
        with pytest.raises(ValidationError):
            specfun.bessel_deriv_zero(61, 1)
        with pytest.raises(ValidationError):
            specfun.bessel_deriv_zero(0, 0)
        with pytest.raises(ValidationError):
            specfun.bessel_deriv_zero(0, 201)
