"""Acceptance suite.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (run pytest with -rA
or -s to see them all).  The heavy artifacts - the calibration sweep over
the disk benchmark and the growing-index sweep - are session fixtures
shared across criteria; `calibration` lives in conftest.py, where the
geometry tests reuse it.
"""

import math
import time

import numpy as np
import pytest

from eigenshift import disk_spectrum as ds
from eigenshift import field_solver as fs
from eigenshift import geometry as geo
from eigenshift import harness
from eigenshift import polarization as pol
from eigenshift import specfun

UNIT_DISK = geo.DomainSpec(kind="disk", radius=1.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# shared heavy artifacts
# ---------------------------------------------------------------------------
@pytest.fixture(scope="session")
def calibrated_sweep(calibration):
    return harness.apply_convention(
        calibration.base_sweep, calibration.convention, calibration.use_m_factor
    )


@pytest.fixture(scope="session")
def alpha_sweep():
    return harness.run_sweep(
        harness.benchmark_scene(),
        harness.BENCHMARK_EPS,
        alpha=0.5,
        convention="literature",
        estimate_floor=True,
    )


# ---------------------------------------------------------------------------
# 1. analytic vs discrete disk spectrum
# ---------------------------------------------------------------------------
def test_criterion_1_discrete_spectrum():
    t0 = time.time()
    exact_groups = ds.disk_spectrum_list(1.0, 16)
    exact = [g.lam for g in exact_groups for _ in range(g.multiplicity)][1:11]
    max_errs = {}
    for h in (0.08, 0.04, 0.02):
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=h)
        system = fs.assemble(geo.build_mesh(cfg), ())
        pairs = fs.solve_eigen(system, 11)
        rel = [
            abs(lam - ex) / ex for (lam, _), ex in zip(pairs[1:], exact)
        ]
        max_errs[h] = max(rel)
    order = harness.fit_rate([(h, e) for h, e in max_errs.items()]).slope
    elapsed = time.time() - t0
    ok = max_errs[0.02] <= 0.01 and order >= 1.7 and elapsed <= 120.0
    report(
        1,
        ok,
        f"max rel err at h=0.02: {max_errs[0.02]:.2e} (tol 1e-2); "
        f"order in h: {order:.2f} (>= 1.7); runtime {elapsed:.0f}s (<= 120s)",
    )
    assert max_errs[0.02] <= 0.01
    assert order >= 1.7
    assert elapsed <= 120.0


# ---------------------------------------------------------------------------
# 2. Bessel layer
# ---------------------------------------------------------------------------
def _series_j(s, x, terms=60):
    term = (0.5 * x) ** s / math.factorial(s)
    total = term
    for m in range(1, terms):
        term *= -(0.25 * x * x) / (m * (m + s))
        total += term
    return total


def _bisect(f, lo, hi, iters=200):
    f_lo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) * f_lo <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_2_bessel_zero_oracles():
    beta11_oracle = _bisect(lambda x: 0.5 * (_series_j(0, x) - _series_j(2, x)), 1.0, 2.5)
    beta01_oracle = _bisect(lambda x: -_series_j(1, x), 3.0, 4.5)
    err11 = abs(specfun.bessel_deriv_zero(1, 1).beta - beta11_oracle)
    err01 = abs(specfun.bessel_deriv_zero(0, 1).beta - beta01_oracle)
    ok = err11 <= 1e-8 and err01 <= 1e-8
    report(2, ok, f"beta_11 err {err11:.1e}, beta_01 err {err01:.1e} (tol 1e-8)")
    assert err11 <= 1e-8
    assert err01 <= 1e-8


@pytest.mark.parametrize(
    "s",
    [
        pytest.param(
            0,
            marks=pytest.mark.xfail(
                reason="spec defect: with the trivial zero excluded (this package's "
                "and the spec's own BesselMode convention), beta_{0,i} sits one "
                "McMahon slot higher, leaving |beta - (i-3/4)pi| ~ pi for every i; "
                "the criterion's bound 10/beta' can never hold at s=0",
                strict=True,
            ),
        ),
        1,
        2,
        3,
        4,
        pytest.param(
            5,
            marks=pytest.mark.xfail(
                reason="spec defect: the true asymptotic offset of beta_{5,i} is "
                "(4 s^2 + 3)/(8 beta') = 12.875/beta' > 10/beta' for all i, so the "
                "criterion's constant 10 is below the mathematical constant at s=5 "
                "(measured 13.03/beta' at i=10)",
                strict=True,
            ),
        ),
    ],
)
def test_criterion_2_mcmahon_consistency(s):
    checked = []
    for i in range(10, 61, 10):
        beta = specfun.bessel_deriv_zero(s, i).beta
        est = specfun.mcmahon_estimate(s, i)
        checked.append(abs(beta - est) <= 10.0 / est)
    ok = all(checked)
    if s in (1, 4):  # one line for the passing family, one per defect
        report(2, ok, f"McMahon |beta - beta'| <= 10/beta' holds for s={s}, i in [10,60]")
    assert ok


# ---------------------------------------------------------------------------
# 3. polarization tensor oracle
# ---------------------------------------------------------------------------
def test_criterion_3_polarization_oracle():
    target = -4.0 * np.pi / 3.0
    tensor = pol.polarization_tensor(geo.DiskShape(1.0), 2.0, "paper", 256)
    rel = max(
        abs(tensor.entries[0, 0] - target) / abs(target),
        abs(tensor.entries[1, 1] - target) / abs(target),
    )
    sym = abs(tensor.entries[0, 1] - tensor.entries[1, 0])
    base = pol.polarization_tensor(geo.EllipseShape(1.0, 0.5, 0.0), 2.0, "paper", 256)
    rot = pol.polarization_tensor(geo.EllipseShape(1.0, 0.5, 0.7), 2.0, "paper", 256)
    c, s = np.cos(0.7), np.sin(0.7)
    rmat = np.array([[c, -s], [s, c]])
    equiv = np.max(np.abs(rot.entries - rmat @ base.entries @ rmat.T)) / np.max(
        np.abs(base.entries)
    )
    zero = pol.polarization_tensor(geo.DiskShape(1.0), 1.0, "paper", 64)
    ok = rel <= 1e-3 and sym <= 1e-6 and equiv <= 1e-6 and np.all(zero.entries == 0.0)
    report(
        3,
        ok,
        f"disk k=2 vs -4pi/3 rel err {rel:.1e} (tol 1e-3); symmetry {sym:.1e}, "
        f"equivariance {equiv:.1e} (tol 1e-6); k=1 tensor exactly zero: "
        f"{bool(np.all(zero.entries == 0.0))}",
    )
    assert rel <= 1e-3
    assert sym <= 1e-6
    assert equiv <= 1e-6
    assert np.all(zero.entries == 0.0)


# ---------------------------------------------------------------------------
# 4. main theorem: shift and remainder orders under the calibrated convention
# ---------------------------------------------------------------------------
def test_criterion_4_main_theorem(calibration, calibrated_sweep):
    res = calibrated_sweep
    shift_order = res.shift_fit.preferred.slope
    rem_order = res.remainder_fit.preferred.slope
    elapsed = getattr(calibration.base_sweep, "elapsed", 0.0)
    ok = (
        abs(shift_order - 2.0) <= 0.15
        and rem_order >= 2.3
        and res.ratio_monotone
        and elapsed <= 900.0
    )
    report(
        4,
        ok,
        f"calibrated ({res.convention}, 1/m={res.use_m_factor}): shift order "
        f"{shift_order:.3f} (2.0 +- 0.15); remainder order {rem_order:.2f} (>= 2.3); "
        f"remainder/shift monotone: {res.ratio_monotone}; runtime {elapsed:.0f}s (<= 900s)",
    )
    assert abs(shift_order - 2.0) <= 0.15
    assert rem_order >= 2.3
    assert res.ratio_monotone
    assert elapsed <= 900.0


# ---------------------------------------------------------------------------
# 5. Osborn residual over the same sweep
# ---------------------------------------------------------------------------
def test_criterion_5_osborn(calibrated_sweep):
    pts = calibrated_sweep.points
    lhs = np.array([p.osborn_lhs for p in pts])
    bound = np.array([p.osborn_bound for p in pts])
    ratio = lhs / bound
    med = float(np.median(ratio))
    spread = max(float(np.max(ratio / med)), float(np.max(med / ratio)))
    eps = np.array([p.eps for p in pts])
    lhs_order = harness.fit_rate(list(zip(eps, lhs))).slope
    ok = spread <= 3.0 and lhs_order >= 2.2
    report(
        5,
        ok,
        f"lhs/bound within factor {spread:.2f} of median (<= 3); inner-product "
        f"term matches the eigenvalue defect with difference order {lhs_order:.2f} (>= 2.2)",
    )
    assert spread <= 3.0
    assert lhs_order >= 2.2


# ---------------------------------------------------------------------------
# 6. energy estimate over the same sweep
# ---------------------------------------------------------------------------
def test_criterion_6_energy(calibrated_sweep):
    pts = sorted(calibrated_sweep.points, key=lambda p: p.eps)
    eps = np.array([p.eps for p in pts])
    h1 = np.array([p.energy_h1 for p in pts])
    h1c = np.array([p.energy_h1_corrected for p in pts])
    order = harness.fit_rate(list(zip(eps, h1))).slope
    improved = bool(h1c[0] < h1[0] and h1c[1] < h1[1])
    ok = order >= 1.0 and improved
    report(
        6,
        ok,
        f"||u_eps - u||_H1 order {order:.3f} (>= 1.0); corrector reduces the H1 "
        f"error at the two smallest eps: {improved}",
    )
    assert order >= 1.0
    assert improved


# ---------------------------------------------------------------------------
# 7. Weyl asymptotics
# ---------------------------------------------------------------------------
def test_criterion_7_weyl():
    rect = geo.DomainSpec(kind="rectangle", width=np.pi, height=np.pi)
    rep = harness.weyl_check(rect, lam_max=200.0)
    # independent brute-force oracle for the counting function at lam = 200
    oracle = sum(
        1 for m in range(0, 16) for n in range(0, 16) if m * m + n * n <= 200
    )
    n_at_200 = int(np.sum(harness._rectangle_eigenvalues(np.pi, np.pi, 200.0) <= 200.0))
    target = np.pi / 4.0
    dev = abs(rep.counting_slope - target) / target
    disk = harness.weyl_check(geo.DomainSpec(kind="disk", radius=1.0), count=160)
    ok = n_at_200 == oracle and dev <= 0.15 and disk.index_fit_r2 >= 0.99
    report(
        7,
        ok,
        f"rectangle N(200)={n_at_200} matches enumeration ({oracle}); counting "
        f"constant within {dev:.1%} of pi/4 (<= 15%); disk lambda_i-vs-i r^2 = "
        f"{disk.index_fit_r2:.4f} (>= 0.99)",
    )
    assert n_at_200 == oracle
    assert dev <= 0.15
    assert disk.index_fit_r2 >= 0.99


# ---------------------------------------------------------------------------
# 8. uniform sup-norm bounds on the probe disk
# ---------------------------------------------------------------------------
def test_criterion_8_bounds():
    table = harness.sup_norm_bound_table(
        probe_center=(0.4, 0.0), probe_radius=0.05, n_groups=50
    )
    ratios = {}
    for col in ("sup_u", "sup_grad_scaled", "sup_hess_scaled"):
        vals = table[col]
        ratios[col] = float(np.max(vals) / np.median(vals))
    ok = all(r <= 10.0 for r in ratios.values())
    report(
        8,
        ok,
        "max/median over 50 groups: "
        + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
        + " (each <= 10)",
    )
    for r in ratios.values():
        assert r <= 10.0


# ---------------------------------------------------------------------------
# 9. growing-index variant at alpha = 1/2
# ---------------------------------------------------------------------------
def test_criterion_9_growing_index(alpha_sweep):
    res = alpha_sweep
    eps = np.array([p.eps for p in res.points])
    gaps = np.abs(res.observed)
    order = harness.fit_rate(list(zip(eps, gaps))).slope
    ok = order >= 1.4 or res.floor_dominated
    report(
        9,
        ok,
        f"gap |lambda_bar - lambda| order {order:.2f} at alpha=1/2 with ranks "
        f"{[p.group_rank for p in res.points]} (>= 1.4); noise floor "
        f"{res.noise_floor:.1e}, floor_dominated={res.floor_dominated}",
    )
    assert order >= 1.4 or res.floor_dominated


# ---------------------------------------------------------------------------
# cost invariant of the calibration sweep (not an acceptance criterion)
# ---------------------------------------------------------------------------
def test_calibration_factorizes_each_operator_once(calibration):
    # four sweep points, each factorizing its unperturbed and its perturbed
    # grounded stiffness once: freeing a factor early must not force a second LU
    sizes = calibration.base_sweep.factorizations
    assert len(sizes) == 2 * len(harness.BENCHMARK_EPS) == 8
    assert sizes[0::2] == sizes[1::2]  # the two systems of a point share a mesh
