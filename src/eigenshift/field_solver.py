"""P1 finite elements on scene meshes.

Assembles the conductivity-weighted stiffness form for
a(x) = 1 + sum_l (k_l - 1) chi(D_l) and the consistent mass form, provides
zero-mean Neumann source solves (the compact solution operators T and
T_eps for the unperturbed and perturbed problems), the generalized
symmetric eigensolve, and overlap-based matching of perturbed eigenvalues
to unperturbed groups.  Fields are nodal arrays only; gradients at a
point are recovered by `asymptotics.recover_quadratic`.

The pure-Neumann kernel (constants) is handled by grounding one node in
the source solve - the reduced matrix is symmetric positive definite and
the grounded solution satisfies the full singular system exactly because
the projected right-hand side is range-compatible - followed by a
mass-mean shift.  The reduced matrix is factorized in the mesh's
nested-dissection order without pivoting, as its being SPD allows.  The
eigensolve iterates the same T, whose largest eigenvalues are 1/lambda,
so one factorization of each system serves its source solves and its
eigenpairs; the constant mode (lambda = 0) is added exactly.  Perturbed
and unperturbed systems share one inclusion-conforming mesh, and with it
one ordering, so eigenvalue differences cancel the leading
discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import MatchingError, SolverError, ValidationError
from .geometry import InclusionSpec, Mesh, p1_geometry


@dataclass
class AssembledSystem:
    stiffness: sp.csr_matrix
    mass: sp.csr_matrix
    mesh: Mesh
    inclusions: tuple
    _lu: Optional[object] = field(default=None, repr=False)
    _perm: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.stiffness.shape[0]

    @property
    def domain_measure(self) -> float:
        return float(self.mass.sum())

    def mean(self, values: np.ndarray) -> float:
        return float(self.mass.dot(values).sum() / self.domain_measure)

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """L^2 (mass) inner product of nodal fields."""
        return float(u @ self.mass.dot(v))

    def h1_norm(self, u: np.ndarray) -> float:
        """Full H^1 norm in this system's energy and mass forms."""
        return float(np.sqrt(max(u @ self.stiffness.dot(u), 0.0) + max(u @ self.mass.dot(u), 0.0)))

    def _source_lu(self):
        """LU of the grounded stiffness K[1:, 1:], permuted symmetrically
        to K[perm][:, perm] with perm the mesh's dissection order less the
        grounded node 0."""
        if self._lu is None:
            order = self.mesh.dissection_order
            self._perm = order[order != 0]
            reduced = self.stiffness[self._perm][:, self._perm].tocsc()
            self._lu = spla.splu(reduced, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        return self._lu


@dataclass
class DiscreteGroup:
    """A cluster of discrete eigenpairs treated as one (near-)degenerate group."""

    lambdas: np.ndarray       # (m,) ascending
    vectors: np.ndarray       # (n, m) mass-orthonormal
    rank: int                 # 1-based group rank in the spectrum

    @property
    def multiplicity(self) -> int:
        return len(self.lambdas)

    @property
    def lam(self) -> float:
        """Harmonic-mean representative; cancels the discrete splitting
        exactly in the Osborn identity because the modes are normalized."""
        return harmonic_average(self.lambdas)


@dataclass
class PerturbedGroup:
    lambdas: np.ndarray
    vectors: np.ndarray
    matched_group: DiscreteGroup
    overlap: float

    def __post_init__(self):
        self.lambdas = np.sort(np.asarray(self.lambdas, dtype=float))

    @property
    def multiplicity(self) -> int:
        return len(self.lambdas)

    @property
    def harmonic_average(self) -> float:
        return harmonic_average(self.lambdas)


def harmonic_average(lams: np.ndarray) -> float:
    """m / sum(1/lambda); falls back to the arithmetic mean at lambda = 0."""
    lams = np.asarray(lams, dtype=float)
    if np.any(np.abs(lams) < 1e-300):
        return float(np.mean(lams))
    return float(len(lams) / np.sum(1.0 / lams))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------
def assemble(mesh: Mesh, inclusions: Sequence[InclusionSpec]) -> AssembledSystem:
    """Stiffness with per-region conductivity and consistent P1 mass.

    Pass an empty inclusion list for the unperturbed operator (a = 1)
    regardless of the mesh's tags.
    """
    inclusions = tuple(inclusions)
    if inclusions and len(inclusions) != mesh.n_inclusions:
        raise SolverError(
            f"assembly mismatch: mesh has {mesh.n_inclusions} tagged inclusions, "
            f"got {len(inclusions)} specs"
        )
    coeff = np.ones(len(mesh.triangles))
    if inclusions:
        for l, inc in enumerate(inclusions):
            coeff[mesh.region == l] = inc.k

    e, area = p1_geometry(mesh.nodes, mesh.triangles)  # K and M are orientation-free
    if np.any(area <= 0):
        raise SolverError("degenerate triangle in assembly")

    n = len(mesh.nodes)
    rows, cols, k_data, m_data = [], [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(mesh.triangles[:, i])
            cols.append(mesh.triangles[:, j])
            k_data.append(coeff * np.einsum("td,td->t", e[:, i], e[:, j]) / (4.0 * area))
            m_data.append(area / (6.0 if i == j else 12.0))
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    stiffness = sp.csr_matrix((np.concatenate(k_data), (rows, cols)), shape=(n, n))
    mass = sp.csr_matrix((np.concatenate(m_data), (rows, cols)), shape=(n, n))
    stiffness = 0.5 * (stiffness + stiffness.T)
    mass = 0.5 * (mass + mass.T)
    return AssembledSystem(stiffness=stiffness.tocsr(), mass=mass.tocsr(), mesh=mesh,
                           inclusions=inclusions)


# ---------------------------------------------------------------------------
# source solve (the compact operator T / T_eps)
# ---------------------------------------------------------------------------
def solve_source(system: AssembledSystem, g) -> np.ndarray:
    """Solve -div(a grad u) = g with zero Neumann data and mean(u) = 0.

    The right-hand side is projected onto zero mass-mean first.  Returns
    the nodal values of u = T g.
    """
    values = np.asarray(g, dtype=float)
    if values.shape != (system.n,):
        raise ValidationError("source field does not match the system size")
    return _grounded_solve(system, system.mass.dot(values - system.mean(values)))


def _grounded_solve(system: AssembledSystem, b: np.ndarray) -> np.ndarray:
    """Mass-mean-zero u with K u = b for a zero-sum load b, on the
    factorization of the grounded stiffness K[1:, 1:]."""
    lu = system._source_lu()
    u = np.zeros(system.n)
    u[system._perm] = lu.solve(b[system._perm])
    residual = np.linalg.norm(system.stiffness.dot(u) - b)
    b_norm = np.linalg.norm(b) or 1.0
    if not residual <= 1e-8 * b_norm:
        raise SolverError(f"source solve residual {residual:.2e} too large")
    u -= system.mean(u)
    return u


# ---------------------------------------------------------------------------
# eigensolver
# ---------------------------------------------------------------------------
def solve_eigen(system: AssembledSystem, count: int, seed: int = 0) -> list:
    """Smallest `count` eigenpairs of K u = lambda M u, mass-orthonormal.

    Returns a list of (lambda, nodal vector), lambda ascending.  The first
    pair is the constant mode, exactly: lambda = 0 with u = 1/sqrt(|Omega|).
    The others are the largest eigenvalues 1/lambda of the compact operator
    T that `solve_source` applies, iterated by ARPACK on the same grounded
    factorization, so each system is factorized once for both solves.
    Raises SolverError unless the vectors are M-orthonormal to 1e-8 and
    every iterated pair satisfies ||K v - lambda M v|| <= 1e-8 (||K v|| +
    |lambda| ||M v||).
    """
    if not 1 <= count <= 300:
        raise ValidationError("count must be in [1, 300]")
    n = system.n
    if count >= n - 1:
        raise ValidationError("count too large for this mesh")
    measure = system.domain_measure
    lams = np.zeros(1)
    vecs = np.full((n, 1), 1.0 / np.sqrt(measure))
    if count > 1:
        unit_load = system.mass.dot(np.ones(n)) / measure

        def apply_t(b):
            b = np.ravel(b)
            return _grounded_solve(system, b - b.sum() * unit_load)

        v0 = np.random.default_rng(seed).standard_normal(n)
        try:
            w, v = spla.eigsh(
                system.stiffness,
                k=count - 1,
                M=system.mass,
                sigma=0.0,
                which="LM",
                OPinv=spla.LinearOperator((n, n), matvec=apply_t, dtype=float),
                v0=v0 - system.mean(v0),
                ncv=min(n - 1, max(2 * count + 20, 40)),
            )
        except (spla.ArpackError, RuntimeError) as exc:
            raise SolverError(f"eigensolver failed: {exc}") from exc
        order = np.argsort(w)
        lams = np.concatenate([lams, w[order]])
        vecs = np.column_stack([vecs, v[:, order]])
    vecs = _mass_orthonormalize(system, vecs)
    mv = system.mass.dot(vecs)
    if not np.max(np.abs(vecs.T @ mv - np.eye(count))) <= 1e-8:
        raise SolverError("eigenvectors failed mass-orthonormality")
    # the constant mode is exact; its residual K 1 is the assembly's rounding
    kv = system.stiffness.dot(vecs[:, 1:])
    residual = np.linalg.norm(kv - mv[:, 1:] * lams[1:], axis=0)
    scale = np.linalg.norm(kv, axis=0) + np.abs(lams[1:]) * np.linalg.norm(mv[:, 1:], axis=0)
    if not np.all(residual <= 1e-8 * scale):
        raise SolverError(f"eigen residual {np.max(residual / scale):.2e} too large")
    return [(float(lams[j]), vecs[:, j]) for j in range(count)]


def _mass_orthonormalize(system: AssembledSystem, vecs: np.ndarray) -> np.ndarray:
    gram = vecs.T @ system.mass.dot(vecs)
    chol = np.linalg.cholesky(gram)
    return vecs @ np.linalg.inv(chol).T


# ---------------------------------------------------------------------------
# clustering and matching
# ---------------------------------------------------------------------------
def cluster_spectrum(
    eigenpairs: list,
    multiplicities: Optional[Sequence[int]] = None,
    rel_gap: float = 1e-5,
) -> list:
    """Group (lambda, nodal vector) pairs into DiscreteGroups.

    With `multiplicities` (e.g. from the analytic disk spectrum) the
    pairs are chunked by rank; otherwise consecutive relative gaps below
    `rel_gap` merge.
    """
    lams = np.array([p[0] for p in eigenpairs])
    vecs = np.column_stack([p[1] for p in eigenpairs])
    groups = []
    if multiplicities is not None:
        pos = 0
        for rank, m in enumerate(multiplicities, start=1):
            if pos + m > len(lams):
                break
            groups.append(
                DiscreteGroup(lambdas=lams[pos : pos + m], vectors=vecs[:, pos : pos + m],
                              rank=rank)
            )
            pos += m
        return groups
    start = 0
    rank = 1
    for j in range(1, len(lams) + 1):
        end_of_cluster = j == len(lams) or (
            lams[j] - lams[j - 1] > rel_gap * max(abs(lams[j]), 1e-30)
        )
        if end_of_cluster:
            groups.append(DiscreteGroup(lambdas=lams[start:j], vectors=vecs[:, start:j], rank=rank))
            start = j
            rank += 1
    return groups


def match_groups(
    unperturbed: Sequence[DiscreteGroup],
    perturbed_spectrum: list,
    system: AssembledSystem,
    min_overlap: float = 0.5,
) -> list:
    """Match each unperturbed group to the perturbed eigenpairs with the
    largest projection energy onto the group's span."""
    lams = np.array([p[0] for p in perturbed_spectrum])
    vecs = np.column_stack([p[1] for p in perturbed_spectrum])
    proj = system.mass.dot(vecs)
    used = np.zeros(len(lams), dtype=bool)
    out = []
    for group in unperturbed:
        m = group.multiplicity
        energy = np.sum((group.vectors.T @ proj) ** 2, axis=0)  # (n_pert,)
        energy = np.where(used, -np.inf, energy)
        pick = np.argsort(energy)[::-1][:m]
        overlap = float(np.mean(energy[pick]))
        if len(pick) < m or overlap < min_overlap:
            raise MatchingError(
                f"group rank {group.rank}: overlap {overlap:.3f} < {min_overlap} "
                "(perturbation too large or mesh too coarse)"
            )
        used[pick] = True
        order = np.sort(pick)
        out.append(
            PerturbedGroup(
                lambdas=lams[order],
                vectors=vecs[:, order],
                matched_group=group,
                overlap=overlap,
            )
        )
    return out


@dataclass
class SceneOperators:
    """Perturbed and unperturbed systems sharing one inclusion-conforming
    mesh, so eigenvalue differences are same-mesh differences."""

    config: object
    mesh: Mesh
    unperturbed: AssembledSystem
    perturbed: AssembledSystem


def build_operators(config) -> SceneOperators:
    from .geometry import build_mesh

    mesh = build_mesh(config)
    active = tuple(inc for inc in config.inclusions if inc.epsilon > 0.0)
    return SceneOperators(
        config=config,
        mesh=mesh,
        unperturbed=assemble(mesh, ()),
        perturbed=assemble(mesh, active),
    )
