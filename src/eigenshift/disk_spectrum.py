"""Closed-form Neumann spectrum and eigenfunctions of a disk.

Modes are J_s(beta_si r/R) times a real angular factor; the complex pair
e^{+-i s phi} is realized as sqrt(2) cos(s phi) / sqrt(2) sin(s phi) so
mass-orthonormality holds in the real L^2 inner product.  The s = 0,
beta = 0 constant mode has an indeterminate closed-form normalization
and is represented explicitly as 1/sqrt(pi R^2).

Value, gradient and Hessian of a mode come from one Bessel pass.  With
k = beta/R and F_n = J_n(k r) e^{i n phi}, the ladder identities
(DLMF 10.6) (d/dx + i d/dy) F_n = -k F_{n+1} and (d/dx - i d/dy) F_n =
k F_{n-1} give

    d/dx F_s = k (F_{s-1} - F_{s+1}) / 2,  d/dy F_s = i k (F_{s-1} + F_{s+1}) / 2,
    d2/dx2 F_s = k^2 (F_{s+2} - 2 F_s + F_{s-2}) / 4,
    d2/dy2 F_s = -k^2 (F_{s+2} + 2 F_s + F_{s-2}) / 4,
    d2/dxdy F_s = -i k^2 (F_{s+2} - F_{s-2}) / 4,

so with J_{-n} = (-1)^n J_n every quantity is read from J_n(k r), n =
max(s-2, 0) ... s+2.  No term divides by r: the centre needs no limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import specfun
from .errors import DomainError, ValidationError

_GROUP_MERGE_RTOL = 1e-9


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
    """Value, gradient and Hessian of one disk mode at Cartesian points:
    a cos (or constant, beta = 0) mode is amp Re F_s and a sin mode
    amp Im F_s, differentiated by the ladder identities above."""

    def __init__(self, mode: DiskMode, amp: Optional[float] = None):
        """``amp`` is the mode's normalization, ``_amplitude(mode)`` when not
        given; the cos and sin modes of one zero share it."""
        self.mode = mode
        self._amp = _amplitude(mode) if amp is None else amp

    def evaluate(self, pts) -> tuple:
        """(value (n,), gradient (n, 2), Hessian (n, 2, 2)) at points (n, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        s, k = self.mode.s, self.mode.beta / self.mode.R
        lo = max(s - 2, 0)
        bessel = specfun.bessel_j_orders(range(lo, s + 3), k * np.hypot(pts[:, 0], pts[:, 1]))
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        fm2, fm1, f0, fp1, fp2 = (
            (-1.0) ** max(-n, 0) * bessel[abs(n) - lo] * np.exp(1j * n * phi)
            for n in range(s - 2, s + 3)
        )
        q = 0.25 * k * k
        c = np.stack([
            f0,
            0.5 * k * (fm1 - fp1), 0.5j * k * (fm1 + fp1),
            q * (fp2 - 2.0 * f0 + fm2), -1j * q * (fp2 - fm2), -q * (fp2 + 2.0 * f0 + fm2),
        ], axis=1)
        part = self._amp * (c.imag if self.mode.parity == "sin" else c.real)
        return part[:, 0], part[:, 1:3], part[:, [3, 4, 4, 5]].reshape(-1, 2, 2)


@dataclass(frozen=True)
class EigenGroup:
    """One eigenvalue with its multiplicity and mass-orthonormal modes."""

    lam: float
    functions: tuple            # DiskEigenfunction per mode
    rank: int                   # 1-based position in the sorted spectrum

    @property
    def multiplicity(self) -> int:
        return len(self.functions)

    @property
    def modes(self) -> tuple:
        """DiskMode per function."""
        return tuple(f.mode for f in self.functions)

    def gradients_at(self, z) -> np.ndarray:
        """Stacked gradients (m, 2) of the group's modes at a point."""
        return np.vstack([f.evaluate(z)[1] for f in self.functions])


def disk_eigenfunction(mode: DiskMode, point) -> tuple:
    """Value, Cartesian gradient and Hessian at a polar point (r, phi)."""
    r, phi = float(point[0]), float(point[1])
    if r > mode.R * (1.0 + 1e-12):
        raise DomainError(f"point radius {r} outside disk of radius {mode.R}")
    value, grad, hess = DiskEigenfunction(mode).evaluate([r * np.cos(phi), r * np.sin(phi)])
    return float(value[0]), grad[0], hess[0]


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
        EigenGroup(lam=0.0, functions=(DiskEigenfunction(const),), rank=1)
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
    functions = []
    for lam, s, i, beta in pending:
        pair = [DiskMode(s=s, i=i, R=R, parity=parity, beta=beta, lam=lam)
                for parity in (("cos",) if s == 0 else ("cos", "sin"))]
        amp = _amplitude(pair[0])
        functions += [DiskEigenfunction(m, amp) for m in pair]
    return EigenGroup(lam=pending[0][0], functions=tuple(functions), rank=rank)
