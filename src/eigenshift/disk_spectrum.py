"""Closed-form Neumann spectrum and eigenfunctions of a disk.

Modes are J_s(beta_si r/R) times a real angular factor; the complex pair
e^{+-i s phi} is realized as sqrt(2) cos(s phi) / sqrt(2) sin(s phi) so
mass-orthonormality holds in the real L^2 inner product.  The s = 0,
beta = 0 constant mode has an indeterminate closed-form normalization
and is represented explicitly as 1/sqrt(pi R^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import specfun
from .errors import DomainError, ValidationError

_GROUP_MERGE_RTOL = 1e-9
_R_TINY_FACTOR = 1e-9


@dataclass(frozen=True)
class DiskMode:
    """One real-form disk mode; parity is 'const', 'cos' or 'sin'."""

    s: int
    i: int
    R: float
    parity: str
    beta: float
    lam: float

    @property
    def is_constant(self) -> bool:
        return self.parity == "const"


def _amplitude(mode: DiskMode) -> float:
    """Factor that makes the mode mass-normalized on the disk."""
    R, s, beta = mode.R, mode.s, mode.beta
    if mode.is_constant:
        return 1.0 / np.sqrt(np.pi * R * R)
    norm = R * np.sqrt(np.pi * (1.0 - s * s / (beta * beta))) * abs(specfun.bessel_j(s, beta))
    amp = 1.0 / norm
    if s >= 1:
        amp *= np.sqrt(2.0)
    return amp


class DiskEigenfunction:
    """Evaluator for value, gradient and Hessian of one disk mode.

    Works on Cartesian points of shape (n, 2); gradient and Hessian are
    returned in Cartesian components.
    """

    def __init__(self, mode: DiskMode, amp: Optional[float] = None):
        """``amp`` is the mode's normalization, ``_amplitude(mode)`` when not
        given; the cos and sin modes of one zero share it."""
        self.mode = mode
        self._amp = _amplitude(mode) if amp is None else amp

    # -- radial factor and derivatives -------------------------------------
    def _radial(self, r: np.ndarray):
        m = self.mode
        rho = m.beta / m.R
        x = rho * r
        js = specfun.bessel_j(m.s, x)
        jp = specfun.bessel_j_prime(m.s, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            jpp = (m.s * m.s / (x * x) - 1.0) * js - jp / x
        return js, rho * jp, rho * rho * jpp

    def _angular(self, phi: np.ndarray):
        s = self.mode.s
        if self.mode.parity == "cos":
            return np.cos(s * phi), -s * np.sin(s * phi), -s * s * np.cos(s * phi)
        return np.sin(s * phi), s * np.cos(s * phi), -s * s * np.sin(s * phi)

    def value(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.mode.is_constant:
            return np.full(len(pts), self._amp)
        r = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        out = np.empty(len(pts))
        tiny = r < _R_TINY_FACTOR * self.mode.R
        if np.any(~tiny):
            f, _, _ = self._radial(r[~tiny])
            ang, _, _ = self._angular(phi[~tiny])
            out[~tiny] = self._amp * f * ang
        if np.any(tiny):
            out[tiny] = self._amp if self.mode.s == 0 else 0.0
        return out

    def gradient(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.zeros((len(pts), 2))
        if self.mode.is_constant:
            return out
        r = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        tiny = r < _R_TINY_FACTOR * self.mode.R
        if np.any(~tiny):
            rr, pp = r[~tiny], phi[~tiny]
            f, fr, _ = self._radial(rr)
            ang, angp, _ = self._angular(pp)
            u_r = fr * ang
            u_phi = f * angp
            c, s_ = np.cos(pp), np.sin(pp)
            out[~tiny, 0] = self._amp * (u_r * c - u_phi * s_ / rr)
            out[~tiny, 1] = self._amp * (u_r * s_ + u_phi * c / rr)
        if np.any(tiny) and self.mode.s == 1:
            # J_1(x) ~ x/2 near 0, so grad(J_1(rho r) ang) -> rho/2 * e_parity
            rho = self.mode.beta / self.mode.R
            g = self._amp * rho / 2.0
            if self.mode.parity == "cos":
                out[tiny, 0] = g
            else:
                out[tiny, 1] = g
        return out

    def hessian(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        out = np.zeros((len(pts), 2, 2))
        if self.mode.is_constant:
            return out
        r = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        tiny = r < _R_TINY_FACTOR * self.mode.R
        if np.any(~tiny):
            rr, pp = r[~tiny], phi[~tiny]
            f, fr, frr = self._radial(rr)
            ang, angp, angpp = self._angular(pp)
            u_rr = frr * ang
            u_rp = fr * angp
            u_pp = f * angpp
            u_r = fr * ang
            u_p = f * angp
            c, s_ = np.cos(pp), np.sin(pp)
            cc, ss, cs = c * c, s_ * s_, c * s_
            h_xx = u_rr * cc - 2 * u_rp * cs / rr + u_pp * ss / rr**2 + u_r * ss / rr + 2 * u_p * cs / rr**2
            h_yy = u_rr * ss + 2 * u_rp * cs / rr + u_pp * cc / rr**2 + u_r * cc / rr - 2 * u_p * cs / rr**2
            h_xy = u_rr * cs + u_rp * (cc - ss) / rr - u_pp * cs / rr**2 - u_r * cs / rr + u_p * (ss - cc) / rr**2
            out[~tiny, 0, 0] = self._amp * h_xx
            out[~tiny, 1, 1] = self._amp * h_yy
            out[~tiny, 0, 1] = out[~tiny, 1, 0] = self._amp * h_xy
        if np.any(tiny):
            rho = self.mode.beta / self.mode.R
            if self.mode.s == 0:
                # J_0(x) ~ 1 - x^2/4
                out[tiny, 0, 0] = out[tiny, 1, 1] = -self._amp * rho * rho / 2.0
            elif self.mode.s == 2:
                # J_2(x) ~ x^2/8; r^2 cos 2phi = x^2 - y^2, r^2 sin 2phi = 2xy
                q = self._amp * rho * rho / 4.0
                if self.mode.parity == "cos":
                    out[tiny, 0, 0] = q
                    out[tiny, 1, 1] = -q
                else:
                    out[tiny, 0, 1] = out[tiny, 1, 0] = q
        return out

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.value(pts)


@dataclass(frozen=True)
class EigenGroup:
    """One eigenvalue with its multiplicity and mass-orthonormal modes."""

    lam: float
    multiplicity: int
    functions: tuple            # DiskEigenfunction per mode
    rank: int                   # 1-based position in the sorted spectrum
    modes: tuple                # DiskMode per function

    def gradients_at(self, z) -> np.ndarray:
        """Stacked gradients (m, 2) of the group's modes at a point."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return np.vstack([f.gradient(z)[0] for f in self.functions])


def disk_eigenfunction(mode: DiskMode, point) -> tuple:
    """Value, Cartesian gradient and Hessian at a polar point (r, phi)."""
    r, phi = float(point[0]), float(point[1])
    if r > mode.R * (1.0 + 1e-12):
        raise DomainError(f"point radius {r} outside disk of radius {mode.R}")
    fn = DiskEigenfunction(mode)
    pt = np.array([[r * np.cos(phi), r * np.sin(phi)]])
    return float(fn.value(pt)[0]), fn.gradient(pt)[0], fn.hessian(pt)[0]


def disk_spectrum_list(R: float, count: int) -> list:
    """First `count` Neumann eigenvalues of the disk, grouped by equal lambda.

    Groups are returned whole, so the returned groups cover at least
    `count` eigenvalues counted with multiplicity.
    """
    if R <= 0:
        raise ValidationError("disk radius must be positive")
    if not 1 <= count <= 400:
        raise ValidationError("count must be in [1, 400]")

    beta_cut = np.sqrt(4.5 * count + 60.0)
    while True:
        entries = []  # (lam, s, i, beta), each zero looked up once
        s = 0
        while True:
            i = 1
            while True:
                beta = specfun.bessel_deriv_zero(s, i).beta
                if beta > beta_cut:
                    break
                entries.append(((beta / R) ** 2, s, i, beta))
                i += 1
            if i == 1:
                break  # no zero of this order below the cut, nor of any higher one
            s += 1
        total = 1 + sum(1 if s == 0 else 2 for (_, s, _, _) in entries)
        if total >= count:
            break
        beta_cut *= 1.3

    entries.sort()
    const = DiskMode(s=0, i=0, R=R, parity="const", beta=0.0, lam=0.0)
    groups = [
        EigenGroup(
            lam=0.0,
            multiplicity=1,
            functions=(DiskEigenfunction(const),),
            rank=1,
            modes=(const,),
        )
    ]
    covered = 1
    rank = 1
    pending = []  # accumulating one merged group of (lam, s, i, beta)
    for lam, s, i, beta in entries:
        if covered >= count and not pending:
            break
        if pending and abs(lam - pending[-1][0]) > _GROUP_MERGE_RTOL * max(lam, pending[-1][0]):
            rank += 1
            groups.append(_finalize_group(pending, R, rank))
            covered += groups[-1].multiplicity
            pending = []
            if covered >= count:
                break
        pending.append((lam, s, i, beta))
    if pending and covered < count:
        rank += 1
        groups.append(_finalize_group(pending, R, rank))
    return groups


def _finalize_group(pending: list, R: float, rank: int) -> EigenGroup:
    """One group from its (lam, s, i, beta) entries: a cos and a sin mode for
    s >= 1, a single radial mode for s = 0."""
    modes, functions = [], []
    for lam, s, i, beta in pending:
        pair = [DiskMode(s=s, i=i, R=R, parity=parity, beta=beta, lam=lam)
                for parity in (("cos",) if s == 0 else ("cos", "sin"))]
        amp = _amplitude(pair[0])
        modes += pair
        functions += [DiskEigenfunction(m, amp) for m in pair]
    return EigenGroup(
        lam=pending[0][0],
        multiplicity=len(modes),
        functions=tuple(functions),
        rank=rank,
        modes=tuple(modes),
    )
