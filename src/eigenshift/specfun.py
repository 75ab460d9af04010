"""Bessel functions J_s of integer order, their derivatives, and the zeros
beta_si of J_s'.

Evaluation uses three regimes stitched together:

* ascending power series for small argument (x <= 10; the largest series
  term stays below ~7e2, so cancellation costs < 3 digits and the absolute
  error stays below 2e-13; at x = 12 the largest term nears 4e3 and J_0
  errs by 1.1e-12),
* Miller's backward recurrence with even-order normalization for the
  middle band, where neither the series nor the large-argument expansion
  is trustworthy in double precision,
* Hankel's large-argument asymptotic expansion for x >= max(30, s^2).

Zeros of J_s' are located by a sequential bracket scan with step pi/3
(consecutive zeros of J_s' are never closer than pi, so no bracket can
hold two zeros) followed by a safeguarded Newton iteration inside the
verified bracket.  The closed-form large-index estimate
(i + s/2 - 3/4)*pi is used to bound the scan horizon and to seed Newton
for large i; it misorders zeros for large s, so brackets stay mandatory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ValidationError

_SERIES_X_MAX = 10.0
_ASYMPTOTIC_X_MIN = 30.0
_X_MAX = 1.0e4
_S_MAX = 200
_ZERO_RESIDUAL_TOL = 1.0e-12

# refined zeros of J_s' per order s, ascending
_zero_cache: dict[int, list[float]] = {}


@dataclass(frozen=True)
class BesselMode:
    """One root beta_si of J_s', i.e. one radial Neumann mode of the disk.

    ``i`` counts positive zeros (1-based); for s = 0 the trivial zero at
    x = 0 is excluded (the constant mode is represented elsewhere).
    """

    s: int
    i: int
    beta: float

    def __post_init__(self) -> None:
        if self.s < 0 or self.i < 1:
            raise ValidationError(f"invalid mode indices s={self.s}, i={self.i}")
        if not self.beta > 0.0:
            raise ValidationError(f"beta must be positive, got {self.beta}")


def _check_order(s: int) -> int:
    if not isinstance(s, (int, np.integer)) or s < 0:
        raise ValidationError(f"order must be a non-negative integer, got {s!r}")
    if s > _S_MAX:
        raise ValidationError(f"order {s} exceeds supported maximum {_S_MAX}")
    return int(s)


def _series(s: int, x: np.ndarray, max_terms: int = 80) -> np.ndarray:
    """Ascending series sum_m (-1)^m (x/2)^(s+2m) / (m! (m+s)!)."""
    half = 0.5 * x
    # (x/2)^s / s! computed multiplicatively; underflow to 0 is fine, the
    # true value is then far below the 1e-12 absolute contract.
    term = np.ones_like(x)
    for j in range(1, s + 1):
        term = term * half / j
    total = term.copy()
    q = half * half
    # The stop test over the grid can pass only where it passes at the
    # largest argument, whose term decays last, so it runs only on those
    # steps: the series stops at exactly the same term.
    top = int(np.argmax(x))
    for m in range(1, max_terms):
        term = -term * q / (m * (m + s))
        total += term
        if not abs(term[top]) <= 1e-18 * (1.0 + abs(total[top])):
            continue
        if np.all(np.abs(term) <= 1e-18 * (1.0 + np.abs(total))):
            break
    return total


def _hankel(s: int, x: np.ndarray, max_terms: int = 30) -> np.ndarray:
    """Large-argument expansion sqrt(2/pi x) (P cos chi - Q sin chi)."""
    mu = 4.0 * s * s
    chi = x - (0.5 * s + 0.25) * np.pi
    p = np.ones_like(x)
    q = np.zeros_like(x)
    term = np.ones_like(x)
    prev = np.full_like(x, np.inf)
    for k in range(1, max_terms):
        term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * x)
        mag = np.max(np.abs(term))
        if mag > np.max(prev):
            break  # asymptotic tail started to diverge; stop at smallest term
        prev = np.abs(term)
        sign = -1.0 if (k % 4) in (2, 3) else 1.0
        if k % 2 == 0:
            p = p + sign * term
        else:
            q = q + sign * term
        if mag < 1e-18:
            break
    return np.sqrt(2.0 / (np.pi * x)) * (p * np.cos(chi) - q * np.sin(chi))


def _miller(orders: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """Backward recurrence with even-order normalization (Miller's algorithm).

    Returns the stacked rows J_n(x), n in ``orders``, from one pass.
    """
    top = float(max(np.max(x), max(orders)))
    m_start = int(top + np.sqrt(160.0 * top)) + 12
    if m_start % 2 == 1:
        m_start += 1
    bjp = np.zeros_like(x)          # J_{m+1} trial
    bj = np.full_like(x, 1e-30)     # J_m trial
    norm = np.zeros_like(x)
    out = {n: np.zeros_like(x) for n in orders}
    # Upper bounds on max|bj| and max|bjp| from |J_{m-1}| <= (2m/x)|J_m| +
    # |J_{m+1}|: the rescale test runs only on steps where the bound allows
    # an entry above 1e250, and the tenfold margin exceeds any rounding of
    # either recurrence, so it rescales at exactly the same steps.
    bound, bound_p = 1e-30, 0.0
    growth = 2.0 / float(np.min(x))
    for m in range(m_start, 0, -1):
        bjm = (2.0 * m / x) * bj - bjp
        bjp, bj = bj, bjm
        bound, bound_p = m * growth * bound + bound_p, bound
        if not bound <= 1e249:
            big = np.abs(bj) > 1e250
            if np.any(big):
                scale = np.where(big, 1e-250, 1.0)
                bj = bj * scale
                bjp = bjp * scale
                norm = norm * scale
                for n in out:
                    out[n] = out[n] * scale
            bound, bound_p = float(np.max(np.abs(bj))), float(np.max(np.abs(bjp)))
        if (m - 1) % 2 == 0 and m - 1 > 0:
            norm = norm + 2.0 * bj
        if m - 1 in out:
            out[m - 1] = bj.copy()
    norm = norm + bj  # J_0 contribution
    return np.stack([out[n] / norm for n in orders])


def _j_orders(orders: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """Rows J_n(x), n in ``orders``, on a flat grid; the highest order picks
    the regimes, and the middle band shares one Miller pass."""
    vals = np.empty((len(orders), x.size))
    top = float(max(orders))
    small = x <= _SERIES_X_MAX
    large = x >= max(_ASYMPTOTIC_X_MIN, top * top)
    mid = ~(small | large)
    for j, n in enumerate(orders):
        if np.any(small):
            vals[j, small] = _series(n, x[small])
        if np.any(large):
            vals[j, large] = _hankel(n, x[large])
    if np.any(mid):
        vals[:, mid] = _miller(orders, x[mid])
    return vals


def bessel_j_orders(orders, x) -> np.ndarray:
    """Rows J_n(x), n in ``orders`` (integers >= 0), stacked on a leading
    axis over x of any shape, from one pass: the highest order picks the
    regimes and the middle band shares one Miller recurrence.

    Absolute error <= 1e-12 for x <= 500; supported up to x = 1e4.
    """
    orders = tuple(_check_order(n) for n in orders)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    if np.any(arr < 0.0):
        raise DomainError("argument must be non-negative")
    if np.any(arr > _X_MAX):
        raise DomainError(f"argument above supported range {_X_MAX:g}")
    return _j_orders(orders, arr.ravel()).reshape((len(orders),) + arr.shape)


def bessel_j(s: int, x):
    """Bessel function J_s(x) for integer s >= 0: the one row of
    ``bessel_j_orders((s,), x)``, a float for scalar x."""
    out = bessel_j_orders((s,), x)[0]
    return float(out) if out.ndim == 0 else out


def _j_pair(s: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(J_s, J_s') on a positive grid, from one evaluation of J_{s-1}, J_s, J_{s+1}."""
    lo, js, hi = _j_orders((max(s - 1, 0), s, s + 1), x)
    return js, (-hi if s == 0 else 0.5 * (lo - hi))


def bessel_j_prime(s: int, x):
    """Derivative J_s'(x) via J_s' = (J_{s-1} - J_{s+1})/2, J_0' = -J_1."""
    s = _check_order(s)
    if s + 1 > _S_MAX:
        raise ValidationError(
            f"derivative order {s} needs J_{s + 1}, above supported maximum order {_S_MAX}"
        )
    if s == 0:
        return -1.0 * bessel_j(1, x) if np.ndim(x) == 0 else -bessel_j(1, x)
    return 0.5 * (bessel_j(s - 1, x) - bessel_j(s + 1, x))


def mcmahon_estimate(s: int, i: int) -> float:
    """Large-index estimate (i + s/2 - 3/4)*pi for the ith zero of J_s'."""
    s = _check_order(s)
    if i < 1:
        raise ValidationError(f"index must be >= 1, got {i}")
    return (i + 0.5 * s - 0.75) * np.pi


def _refine_zeros(s: int, lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray) -> np.ndarray:
    """Safeguarded Newton for J_s' = 0, run in lockstep over many brackets.

    Convergence is residual-driven so the |J_s'(beta)| <= 1e-12 invariant
    holds even where the amplitude sqrt(2/pi x) makes step-size tests lax.
    """
    lo = lo.copy()
    hi = hi.copy()
    x = 0.5 * (lo + hi)
    done = np.zeros(x.shape, dtype=bool)
    for _ in range(100):
        jsx, fx = _j_pair(s, x)
        done |= np.abs(fx) <= 0.5 * _ZERO_RESIDUAL_TOL
        if np.all(done):
            break
        same_side = (fx > 0.0) == (f_lo > 0.0)
        lo = np.where(~done & same_side, x, lo)
        hi = np.where(~done & ~same_side, x, hi)
        dfx = (s * s / (x * x) - 1.0) * jsx - fx / x
        with np.errstate(divide="ignore", invalid="ignore"):
            x_new = x - fx / dfx
        bad = ~np.isfinite(x_new) | (x_new <= lo) | (x_new >= hi)
        x_new = np.where(bad, 0.5 * (lo + hi), x_new)  # bisection keeps bracket
        stalled = np.abs(x_new - x) <= 4.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(x))
        done |= stalled  # at float64 resolution; final residual check below
        x = np.where(done, x, x_new)
    residual = np.abs(bessel_j_prime(s, x))
    if np.any(residual > _ZERO_RESIDUAL_TOL):
        worst = float(np.max(residual))
        raise ConvergenceError(f"zero refinement stalled for s={s} (residual {worst:.2e})")
    return x


def _extend_zeros(s: int, need: int) -> list[float]:
    zeros = _zero_cache.setdefault(s, [])
    if len(zeros) >= need:
        return zeros
    padded = min(need + 7, 200)  # one Newton batch through 7 zeros past the one asked for
    step = np.pi / 3.0
    x_start = zeros[-1] + 0.25 * step if zeros else max(1e-3, 0.8 * s)
    horizon = mcmahon_estimate(s, padded) + max(4.0 * np.pi, 0.9 * s)
    grid = np.arange(x_start, horizon + 2.0 * step, step)
    f = _j_pair(s, grid)[1]
    nz = f != 0.0  # drop underflow plateau left of the first extremum
    grid, f = grid[nz], f[nz]
    flips = np.nonzero(np.sign(f[1:]) != np.sign(f[:-1]))[0]
    flips = flips[: padded - len(zeros)]
    if flips.size:
        zeros.extend(_refine_zeros(s, grid[flips], grid[flips + 1], f[flips]).tolist())
    if len(zeros) < need:
        raise ConvergenceError(
            f"bracket scan exhausted for s={s}: found {len(zeros)} of {need} zeros"
        )
    return zeros


def bessel_deriv_zero(s: int, i: int) -> BesselMode:
    """The ith positive zero beta_si of J_s' (s <= 60, i <= 200).

    The residual |J_s'(beta)| is guaranteed <= 1e-12.
    """
    s = _check_order(s)
    if s > 60:
        raise ValidationError(f"zero finding supports s <= 60, got {s}")
    if not 1 <= i <= 200:
        raise ValidationError(f"zero index must be in [1, 200], got {i}")
    beta = _extend_zeros(s, i)[i - 1]
    residual = abs(bessel_j_prime(s, beta))
    if residual > _ZERO_RESIDUAL_TOL:
        raise ConvergenceError(
            f"residual {residual:.2e} above {_ZERO_RESIDUAL_TOL:g} at beta_{s}{i}"
        )
    return BesselMode(s=s, i=i, beta=beta)
