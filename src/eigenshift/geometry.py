"""Domain and inclusion descriptors, scene validation, mesh generation, and
the mesh's fill-reducing elimination order.

The mesher builds a deterministic point cloud and takes its Delaunay
triangulation.  Each inclusion boundary is polygonalized with
arc-length-proportional spacing (>= 64 segments) and bracketed by
structured offset rings whose first offset is 0.75 of the boundary
spacing: every interface edge then owns an empty diametral disk (Gabriel
property), so it is guaranteed to appear in the Delaunay triangulation
and every triangle lies wholly inside or outside each inclusion.  The
conductivity indicator is therefore exactly piecewise constant on the
mesh.  Background points come from a hexagonal lattice smoothed by a few
Lloyd iterations; all structured points stay fixed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
from scipy.spatial import Delaunay

from .errors import MeshError, ValidationError

_MIN_SEGMENTS = 64
_RING_GROWTH = 1.4
# Parts of at most this many nodes are not dissected further.  On the
# 101k-node eps = 0.02 benchmark mesh the LU fill is 9.87M at 64, 9.07M at
# 16, 8.93M at 8 and 8.90M at 4, while the ordering (about 0.3 s) and the
# factorization times stay level.
_DISSECTION_LEAF = 8


# ---------------------------------------------------------------------------
# unit-scale inclusion shapes
# ---------------------------------------------------------------------------
def _polygon_area(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _points_in_polygon(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd ray casting, vectorized over pts."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(verts)
    for i in range(n):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % n]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < x_int)
    return inside


@dataclass(frozen=True)
class DiskShape:
    """Unit-scale disk of radius rho."""

    rho: float = 1.0

    def __post_init__(self):
        if self.rho <= 0:
            raise ValidationError("disk shape radius must be positive")

    @property
    def area(self) -> float:
        return np.pi * self.rho**2

    @property
    def perimeter(self) -> float:
        return 2.0 * np.pi * self.rho

    @property
    def max_radius(self) -> float:
        return self.rho

    @property
    def min_radius(self) -> float:
        return self.rho

    def boundary_points(self, n: int, stagger: float = 0.0) -> np.ndarray:
        t = 2.0 * np.pi * (np.arange(n) + stagger) / n
        return self.rho * np.column_stack([np.cos(t), np.sin(t)])

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return np.hypot(pts[:, 0], pts[:, 1]) <= self.rho


@dataclass(frozen=True)
class EllipseShape:
    """Unit-scale ellipse with semi-axes (a, b) rotated by theta."""

    a: float
    b: float
    theta: float = 0.0

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0:
            raise ValidationError("ellipse semi-axes must be positive")

    @property
    def area(self) -> float:
        return np.pi * self.a * self.b

    @property
    def perimeter(self) -> float:
        t = np.linspace(0.0, 2.0 * np.pi, 4097)
        dx = -self.a * np.sin(t)
        dy = self.b * np.cos(t)
        return float(np.trapezoid(np.hypot(dx, dy), t))

    @property
    def max_radius(self) -> float:
        return max(self.a, self.b)

    @property
    def min_radius(self) -> float:
        return min(self.a, self.b)

    def boundary_points(self, n: int, stagger: float = 0.0) -> np.ndarray:
        # equal-arclength sampling via inversion of the cumulative length
        t = np.linspace(0.0, 2.0 * np.pi, 16 * n + 1)
        speed = np.hypot(-self.a * np.sin(t), self.b * np.cos(t))
        arc = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(t))])
        targets = arc[-1] * ((np.arange(n) + stagger) % n) / n
        ts = np.interp(targets, arc, t)
        x = self.a * np.cos(ts)
        y = self.b * np.sin(ts)
        c, s = np.cos(self.theta), np.sin(self.theta)
        return np.column_stack([c * x - s * y, s * x + c * y])

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c, s = np.cos(self.theta), np.sin(self.theta)
        u = c * pts[:, 0] + s * pts[:, 1]
        v = -s * pts[:, 0] + c * pts[:, 1]
        return (u / self.a) ** 2 + (v / self.b) ** 2 <= 1.0


InclusionShape = Union[DiskShape, EllipseShape]


# ---------------------------------------------------------------------------
# scene description
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DomainSpec:
    """Bounded domain: disk (centered at origin), rectangle [0,w]x[0,h], or polygon."""

    kind: str
    radius: float = 0.0
    width: float = 0.0
    height: float = 0.0
    vertices: Optional[tuple] = None

    def __post_init__(self):
        if self.kind == "disk":
            if self.radius <= 0:
                raise ValidationError("disk radius must be positive")
        elif self.kind == "rectangle":
            if self.width <= 0 or self.height <= 0:
                raise ValidationError("rectangle sides must be positive")
        elif self.kind == "polygon":
            if self.vertices is None:
                raise ValidationError("polygon domain needs vertices")
            verts = np.asarray(self.vertices, dtype=float)
            if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
                raise ValidationError("polygon needs >= 3 planar vertices")
            if _polygon_area(verts) <= 0:
                raise ValidationError("polygon must be counterclockwise and non-degenerate")
        else:
            raise ValidationError(f"unknown domain kind {self.kind!r}")

    @property
    def measure(self) -> float:
        if self.kind == "disk":
            return np.pi * self.radius**2
        if self.kind == "rectangle":
            return self.width * self.height
        return _polygon_area(np.asarray(self.vertices, dtype=float))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.kind == "disk":
            return np.hypot(pts[:, 0], pts[:, 1]) <= self.radius
        if self.kind == "rectangle":
            return (
                (pts[:, 0] >= 0.0)
                & (pts[:, 0] <= self.width)
                & (pts[:, 1] >= 0.0)
                & (pts[:, 1] <= self.height)
            )
        return _points_in_polygon(pts, np.asarray(self.vertices, dtype=float))

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """Distance to the boundary, positive inside."""
        pts = np.atleast_2d(pts)
        if self.kind == "disk":
            return self.radius - np.hypot(pts[:, 0], pts[:, 1])
        if self.kind == "rectangle":
            return np.minimum.reduce(
                [pts[:, 0], self.width - pts[:, 0], pts[:, 1], self.height - pts[:, 1]]
            )
        v = np.asarray(self.vertices, dtype=float)
        w = np.roll(v, -1, axis=0)
        e = w - v
        d = pts[:, None, :] - v[None, :, :]
        t = np.clip(np.einsum("pij,ij->pi", d, e) / np.sum(e * e, axis=1), 0.0, 1.0)
        closest = v[None] + t[..., None] * e[None]
        dist = np.min(np.hypot(*(pts[:, None, :] - closest).transpose(2, 0, 1)), axis=1)
        sign = np.where(_points_in_polygon(pts, v), 1.0, -1.0)
        return sign * dist

    def boundary_loop(self, spacing: float) -> np.ndarray:
        """Closed boundary polyline sampled at roughly the requested spacing."""
        if self.kind == "disk":
            n = max(16, int(np.ceil(2.0 * np.pi * self.radius / spacing)))
            return DiskShape(self.radius).boundary_points(n)
        if self.kind == "rectangle":
            corners = np.array(
                [[0.0, 0.0], [self.width, 0.0], [self.width, self.height], [0.0, self.height]]
            )
        else:
            corners = np.asarray(self.vertices, dtype=float)
        pts = []
        for a, b in zip(corners, np.roll(corners, -1, axis=0)):
            n = max(1, int(np.ceil(np.hypot(*(b - a)) / spacing)))
            frac = np.arange(n) / n
            pts.append(a + frac[:, None] * (b - a))
        return np.vstack(pts)

    @property
    def bbox(self) -> tuple:
        if self.kind == "disk":
            r = self.radius
            return (-r, -r, r, r)
        if self.kind == "rectangle":
            return (0.0, 0.0, self.width, self.height)
        v = np.asarray(self.vertices, dtype=float)
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())


@dataclass(frozen=True)
class InclusionSpec:
    """Scaled inclusion z + eps*B with conductivity k != 1."""

    z: tuple
    shape: InclusionShape
    epsilon: float
    k: float

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")
        if self.k <= 0:
            raise ValidationError("conductivity must be positive")
        if self.k == 1.0:
            raise ValidationError("conductivity k = 1 is no contrast; use no inclusion")

    @property
    def center(self) -> np.ndarray:
        return np.asarray(self.z, dtype=float)

    @property
    def diam(self) -> float:
        return 2.0 * self.shape.max_radius

    def boundary_physical(self, n: int, stagger: float = 0.0) -> np.ndarray:
        return self.center + self.epsilon * self.shape.boundary_points(n, stagger)

    def contains_physical(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.epsilon == 0.0:
            return np.zeros(len(pts), dtype=bool)
        return self.shape.contains((pts - self.center) / self.epsilon)


@dataclass(frozen=True)
class SceneConfig:
    domain: DomainSpec
    inclusions: tuple
    d0: float
    mesh_h: float
    refine_factor: float = 4.0

    def __post_init__(self):
        if self.d0 <= 0 or self.mesh_h <= 0 or self.refine_factor < 1:
            raise ValidationError("d0, mesh_h must be positive and refine_factor >= 1")


def validate_scene(config: SceneConfig) -> SceneConfig:
    """Check the separation conditions; return the config when all hold."""
    incs = config.inclusions
    for l, inc in enumerate(incs):
        dist = float(config.domain.boundary_distance(inc.center[None])[0])
        if dist < config.d0:
            raise ValidationError(
                f"boundary distance violated for inclusion {l}: dist {dist:g} < d0 {config.d0:g}"
            )
        if inc.epsilon * inc.diam >= config.d0 / 2.0:
            raise ValidationError(
                f"inclusion {l} too large: eps*diam {inc.epsilon * inc.diam:g} >= d0/2"
            )
    for l in range(len(incs)):
        for m in range(l + 1, len(incs)):
            sep = float(np.hypot(*(incs[l].center - incs[m].center)))
            if sep < config.d0:
                raise ValidationError(
                    f"separation violated for inclusions {l},{m}: |z_l - z_m| {sep:g} < d0"
                )
    return config


# ---------------------------------------------------------------------------
# JSON round trip (the CLI scene file format)
# ---------------------------------------------------------------------------
def _shape_to_json(shape: InclusionShape) -> dict:
    if isinstance(shape, DiskShape):
        return {"kind": "disk", "radius": shape.rho}
    return {"kind": "ellipse", "a": shape.a, "b": shape.b, "theta": shape.theta}


def shape_from_json(obj: dict) -> InclusionShape:
    kind = obj.get("kind")
    if kind == "disk":
        return DiskShape(rho=float(obj.get("radius", 1.0)))
    if kind == "ellipse":
        return EllipseShape(a=float(obj["a"]), b=float(obj["b"]), theta=float(obj.get("theta", 0.0)))
    raise ValidationError(f"unknown inclusion shape kind {kind!r}")


def scene_to_json(config: SceneConfig) -> dict:
    dom = config.domain
    if dom.kind == "disk":
        domain = {"kind": "disk", "radius": dom.radius}
    elif dom.kind == "rectangle":
        domain = {"kind": "rectangle", "width": dom.width, "height": dom.height}
    else:
        domain = {"kind": "polygon", "vertices": [list(v) for v in dom.vertices]}
    return {
        "domain": domain,
        "inclusions": [
            {
                "z": list(map(float, inc.z)),
                "shape": _shape_to_json(inc.shape),
                "epsilon": inc.epsilon,
                "k": inc.k,
            }
            for inc in config.inclusions
        ],
        "d0": config.d0,
        "mesh_h": config.mesh_h,
        "refine_factor": config.refine_factor,
    }


def scene_from_json(obj: dict) -> SceneConfig:
    dom = obj["domain"]
    kind = dom.get("kind")
    if kind == "disk":
        domain = DomainSpec(kind="disk", radius=float(dom["radius"]))
    elif kind == "rectangle":
        domain = DomainSpec(kind="rectangle", width=float(dom["width"]), height=float(dom["height"]))
    elif kind == "polygon":
        domain = DomainSpec(kind="polygon", vertices=tuple(map(tuple, dom["vertices"])))
    else:
        raise ValidationError(f"unknown domain kind {kind!r}")
    inclusions = tuple(
        InclusionSpec(
            z=tuple(map(float, inc["z"])),
            shape=shape_from_json(inc["shape"]),
            epsilon=float(inc["epsilon"]),
            k=float(inc["k"]),
        )
        for inc in obj.get("inclusions", [])
    )
    return SceneConfig(
        domain=domain,
        inclusions=inclusions,
        d0=float(obj["d0"]),
        mesh_h=float(obj["mesh_h"]),
        refine_factor=float(obj.get("refine_factor", 4.0)),
    )


def load_scene(path: str) -> SceneConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return scene_from_json(json.load(fh))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValidationError(f"{path} is not a scene file: {exc!r}") from exc


# ---------------------------------------------------------------------------
# mesh
# ---------------------------------------------------------------------------
@dataclass
class Mesh:
    nodes: np.ndarray          # (n, 2)
    triangles: np.ndarray      # (m, 3)
    region: np.ndarray         # (m,) -1 background, l >= 0 inclusion index
    interface_nodes: tuple      # per inclusion: node index array on its boundary
    config: SceneConfig

    @property
    def n_inclusions(self) -> int:
        return len(self.interface_nodes)

    @property
    def areas(self) -> np.ndarray:
        return p1_geometry(self.nodes, self.triangles)[1]

    @property
    def centroids(self) -> np.ndarray:
        return self.nodes[self.triangles].mean(axis=1)

    @cached_property
    def dissection_order(self) -> np.ndarray:
        """Nested-dissection elimination order of the mesh's edge graph, the
        sparsity pattern of every stiffness assembled on this mesh."""
        return _nested_dissection(self.nodes, self.triangles)

    def min_angle(self) -> float:
        e, _ = p1_geometry(self.nodes, self.triangles)
        angles = []
        for i in range(3):
            # the two edges meeting at vertex i, both pointing away from it
            a, b = e[:, (i + 2) % 3], -e[:, (i + 1) % 3]
            cosang = np.sum(a * b, axis=1) / (np.hypot(*a.T) * np.hypot(*b.T))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
        return float(np.min(angles))


def p1_geometry(nodes: np.ndarray, triangles: np.ndarray):
    """Edge opposite each vertex, shape (t, 3, 2), and area, shape (t,).

    Edge i joins the other two vertices, so the P1 basis gradient of
    vertex i is rot90(e_i) / (2 * area) up to the triangle's orientation.
    """
    p = nodes[triangles]
    e = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    area = np.abs(0.5 * (e[:, 0, 0] * e[:, 1, 1] - e[:, 0, 1] * e[:, 1, 0]))
    return e, area


def _rank_in_group(labels: np.ndarray) -> np.ndarray:
    """Position of each entry among the equal entries of a sorted array."""
    return np.arange(labels.size) - np.searchsorted(labels, labels)


def _nested_dissection(nodes: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Fill-reducing elimination order: a permutation of all node indices.

    Geometric nested dissection (George 1973), one level per pass: each
    part with more than _DISSECTION_LEAF nodes is split at the median of
    its longer coordinate extent; the nodes of the lower half with an edge
    to the upper half form the separator, which takes the last positions
    of the part's range in the order, and the two halves take the ranges
    before it, lower half first.  Smaller parts are placed whole.
    """
    n = len(nodes)
    a = triangles.ravel()
    b = np.roll(triangles, -1, axis=1).ravel()
    graph = sp.coo_matrix((np.ones(a.size), (np.minimum(a, b), np.maximum(a, b))), shape=(n, n))
    edges = graph.tocsr().tocoo()          # each edge once
    u, v = edges.row, edges.col
    order = np.empty(n, dtype=np.intp)
    label = np.zeros(n, dtype=np.intp)     # part of each unplaced node, -1 once placed
    idx = np.arange(n)                     # unplaced nodes, grouped by part
    first = np.zeros(1, dtype=np.intp)     # each part's first position in the order
    while idx.size:
        inside = (label[u] == label[v]) & (label[u] >= 0)
        u, v = u[inside], v[inside]
        lab = label[idx]
        starts = np.flatnonzero(np.r_[True, lab[1:] != lab[:-1]])
        sizes = np.diff(np.r_[starts, idx.size])
        pts = nodes[idx]
        span = np.maximum.reduceat(pts, starts) - np.minimum.reduceat(pts, starts)
        axis = (span[:, 1] > span[:, 0]).astype(np.intp)
        idx = idx[np.lexsort((pts[np.arange(idx.size), axis[lab]], lab))]
        upper = np.zeros(n, dtype=bool)
        upper[idx] = _rank_in_group(lab) >= np.repeat(sizes // 2, sizes)
        cross = upper[u] != upper[v]
        in_sep = np.zeros(n, dtype=bool)
        in_sep[np.where(upper[u[cross]], v[cross], u[cross])] = True
        sep = in_sep[idx]
        child = 2 * lab + upper[idx]       # part 2p is the lower half of p, 2p + 1 the upper
        halves = np.bincount(child[~sep], minlength=2 * len(first)).reshape(-1, 2)
        sep_lab = lab[sep]
        order[first[sep_lab] + halves[sep_lab].sum(axis=1) + _rank_in_group(sep_lab)] = idx[sep]
        label[idx[sep]] = -1
        child_first = np.column_stack([first, first + halves[:, 0]]).ravel()
        sizes = halves.ravel()
        idx, child = idx[~sep], child[~sep]
        leaf = sizes[child] <= _DISSECTION_LEAF
        order[child_first[child[leaf]] + _rank_in_group(child[leaf])] = idx[leaf]
        label[idx[leaf]] = -1
        idx, child = idx[~leaf], child[~leaf]
        split = np.flatnonzero(sizes > _DISSECTION_LEAF)
        first = child_first[split]
        label[idx] = np.searchsorted(split, child)
    return order


def _hex_grid(bbox: tuple, h: float) -> np.ndarray:
    x0, y0, x1, y1 = bbox
    dy = h * np.sqrt(3.0) / 2.0
    rows = int(np.ceil((y1 - y0) / dy)) + 2
    cols = int(np.ceil((x1 - x0) / h)) + 2
    pts = []
    for r in range(rows):
        y = y0 + r * dy
        off = 0.5 * h if r % 2 else 0.0
        x = x0 + off + np.arange(cols) * h
        pts.append(np.column_stack([x, np.full(cols, y)]))
    return np.vstack(pts)


def _radial_offset_ring(
    inc: InclusionSpec, d: float, spacing: float, stagger: float
) -> np.ndarray:
    """Curve at radial offset d from the scaled inclusion boundary.

    Offsets are taken along rays from the inclusion center, which cannot
    self-intersect; the ring is then resampled uniformly in its own
    arclength so tip regions of eccentric shapes keep even spacing.
    """
    fine = inc.shape.boundary_points(512)
    radii = np.hypot(fine[:, 0], fine[:, 1])
    dirs = fine / radii[:, None]
    ring = (inc.epsilon * radii + d)[:, None] * dirs
    seg = np.hypot(*(np.roll(ring, -1, axis=0) - ring).T)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    n = max(8, int(np.round(arc[-1] / spacing)))
    targets = arc[-1] * ((np.arange(n) + stagger) % n) / n
    idx = np.clip(np.searchsorted(arc, targets, side="right") - 1, 0, len(seg) - 1)
    frac = (targets - arc[idx]) / np.maximum(seg[idx], 1e-300)
    nxt = (idx + 1) % len(ring)
    return inc.center + ring[idx] + frac[:, None] * (ring[nxt] - ring[idx])


def _inclusion_zone(inc: InclusionSpec, delta: float, mesh_h: float):
    """Structured points around one inclusion.

    Returns (interface_pts, fixed_pts, outer_extent, outer_spacing).
    """
    eps = inc.epsilon
    shape = inc.shape
    perim = eps * shape.perimeter
    n_seg = max(1, int(np.ceil(perim / delta)))
    n_seg = max(n_seg, _MIN_SEGMENTS)
    delta_b = perim / n_seg
    interface = inc.boundary_physical(n_seg)

    fixed = []
    min_r = eps * shape.min_radius
    max_r = eps * shape.max_radius
    round_core = shape.max_radius / shape.min_radius < 1.05

    # inward rings coarsen toward the center; for eccentric shapes the
    # elongated core is filled with a hex patch instead of collapsing rings
    d, j = 0.0, 0
    core_margin = 1.3 if round_core else 2.2
    while True:
        spacing = delta_b * (1.3**j)
        d += 0.8 * spacing if j else 0.75 * delta_b
        if min_r - d < core_margin * spacing:
            break
        fixed.append(_radial_offset_ring(inc, -d, spacing, stagger=0.5 * ((j + 1) % 2)))
        j += 1
    if round_core:
        fixed.append(inc.center[None, :])
    else:
        fine = shape.boundary_points(512)
        phi = np.arctan2(fine[:, 1], fine[:, 0])
        order = np.argsort(phi)
        phi_s = phi[order]
        rad_s = np.hypot(fine[order, 0], fine[order, 1])
        core = _hex_grid((-max_r, -max_r, max_r, max_r), spacing)
        rel = core  # grid is centered on the origin bbox; shift after clipping
        ang = np.arctan2(rel[:, 1], rel[:, 0])
        support = eps * np.interp(ang, phi_s, rad_s, period=2.0 * np.pi)
        keep = np.hypot(rel[:, 0], rel[:, 1]) <= support - (d - 0.8 * spacing) - 0.7 * spacing
        core = rel[keep] + inc.center
        fixed.append(core if len(core) else inc.center[None, :])

    # outward rings grow until the spacing reaches the background size
    d, j = 0.0, 0
    spacing = delta_b
    while spacing < 0.9 * mesh_h:
        d += 0.75 * delta_b if j == 0 else 0.8 * spacing
        fixed.append(_radial_offset_ring(inc, d, spacing, stagger=0.5 * ((j + 1) % 2)))
        j += 1
        spacing = delta_b * (_RING_GROWTH**j)
    outer_extent = max_r + d
    return interface, np.vstack(fixed) if fixed else np.zeros((0, 2)), outer_extent, spacing


def build_mesh(config: SceneConfig) -> Mesh:
    """Conforming triangulation of the scene; see the module docstring."""
    validate_scene(config)
    domain = config.domain
    h = config.mesh_h
    delta_target = h / (1.15 * config.refine_factor)

    boundary = domain.boundary_loop(h)
    n_bnd = len(boundary)
    hb = (
        2.0 * np.pi * domain.radius / n_bnd
        if domain.kind == "disk"
        else float(np.mean(np.hypot(*(np.roll(boundary, -1, axis=0) - boundary).T)))
    )

    # structured point groups carry an owner: -1 for domain structures,
    # l >= 0 for inclusion l's rings (never filtered by their own zone)
    ring_groups: list[tuple[np.ndarray, int]] = []
    if domain.kind == "disk":
        r_ring = domain.radius - 0.75 * hb
        n_ring = max(12, int(np.round(2.0 * np.pi * r_ring / hb)))
        ring_groups.append((DiskShape(r_ring).boundary_points(n_ring, stagger=0.5), -1))
    elif domain.kind == "rectangle":
        off = 0.75 * hb
        if domain.width > 4 * off and domain.height > 4 * off:
            inner = DomainSpec(
                kind="rectangle", width=domain.width - 2 * off, height=domain.height - 2 * off
            )
            ring_groups.append((inner.boundary_loop(hb) + [off, off], -1))

    zones = []
    interface_sets = []
    active = [inc for inc in config.inclusions if inc.epsilon > 0.0]
    for l, inc in enumerate(active):
        interface, fixed, extent, out_spacing = _inclusion_zone(inc, delta_target, h)
        zones.append((inc, extent, out_spacing))
        interface_sets.append(interface)
        ring_groups.append((fixed, l))

    def keep_mask(pts: np.ndarray, own: int) -> np.ndarray:
        """Clearance from the domain boundary band and other fine zones."""
        keep = domain.boundary_distance(pts) > 0.7 * hb
        for j, (inc, extent, _) in enumerate(zones):
            if j == own:
                continue
            keep &= np.hypot(*(pts - inc.center).T) > extent + 0.4 * h
        return keep

    interface_pts = []
    for j, pts in enumerate(interface_sets):
        if not np.all(keep_mask(pts, j)):
            raise MeshError(f"inclusion {j} interface collides with another structure")
        interface_pts.append(pts)
    filtered_rings = [grp[keep_mask(grp, owner)] for grp, owner in ring_groups]

    hex_pts = _hex_grid(domain.bbox, h)
    keep = domain.contains(hex_pts) & (domain.boundary_distance(hex_pts) > 1.3 * hb)
    for inc, extent, out_spacing in zones:
        keep &= np.hypot(*(hex_pts - inc.center).T) > extent + 0.55 * h
    hex_pts = hex_pts[keep]

    fixed_all = np.vstack([boundary] + interface_pts + filtered_rings)
    points = np.vstack([fixed_all, hex_pts])
    n_fixed = len(fixed_all)

    # drop accidental duplicates (keeps first occurrence, so fixed wins)
    scale = max(abs(v) for v in domain.bbox) or 1.0
    _, unique_idx = np.unique(np.round(points / (1e-9 * scale)), axis=0, return_index=True)
    unique_idx.sort()
    points = points[unique_idx]
    n_fixed = int(np.sum(unique_idx < n_fixed))

    if len(points) < 3:
        raise MeshError("degenerate geometry: fewer than 3 mesh points")

    # Lloyd smoothing of the free (hexagonal) points only
    for _ in range(2):
        tri = Delaunay(points)
        neigh_sum = np.zeros_like(points)
        neigh_cnt = np.zeros(len(points))
        for simplex in (tri.simplices[:, [0, 1]], tri.simplices[:, [1, 2]], tri.simplices[:, [2, 0]]):
            np.add.at(neigh_sum, simplex[:, 0], points[simplex[:, 1]])
            np.add.at(neigh_cnt, simplex[:, 0], 1.0)
            np.add.at(neigh_sum, simplex[:, 1], points[simplex[:, 0]])
            np.add.at(neigh_cnt, simplex[:, 1], 1.0)
        target = neigh_sum / np.maximum(neigh_cnt, 1.0)[:, None]
        moved = points.copy()
        moved[n_fixed:] = points[n_fixed:] + 0.7 * (target[n_fixed:] - points[n_fixed:])
        inside = domain.boundary_distance(moved[n_fixed:]) > 0.6 * hb
        points[n_fixed:][inside] = moved[n_fixed:][inside]

    tri = Delaunay(points)
    triangles = tri.simplices.copy()

    cent = points[triangles].mean(axis=1)
    if domain.kind == "polygon":
        triangles = triangles[domain.contains(cent)]
        cent = points[triangles].mean(axis=1)

    # region tags from centroid membership
    region = np.full(len(triangles), -1, dtype=np.int32)
    for l, inc in enumerate(active):
        region[inc.contains_physical(cent)] = l

    mesh = Mesh(
        nodes=points,
        triangles=triangles,
        region=region,
        interface_nodes=tuple(
            _locate_nodes(points, pts) for pts in interface_pts
        ),
        config=config,
    )
    _check_mesh(mesh, active)
    return mesh


def _locate_nodes(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Indices of mesh nodes coinciding with the target coordinates."""
    from scipy.spatial import cKDTree

    tree = cKDTree(points)
    d, idx = tree.query(targets)
    if np.any(d > 1e-9):
        raise MeshError("interface nodes missing from the triangulation")
    return np.asarray(idx, dtype=np.int64)


def _check_mesh(mesh: Mesh, active: Sequence[InclusionSpec]) -> None:
    areas = mesh.areas
    if np.any(areas <= 0.0):
        raise MeshError("degenerate triangle produced")
    total = float(np.sum(areas))
    target = mesh.config.domain.measure
    if abs(total - target) > 0.02 * target:
        raise MeshError(f"mesh area {total:g} deviates from |Omega| {target:g} by > 2%")
    # conformity: no triangle straddles an inclusion interface
    for l, inc in enumerate(active):
        strict_in = inc.contains_physical(mesh.nodes)
        on_iface = np.zeros(len(mesh.nodes), dtype=bool)
        on_iface[mesh.interface_nodes[l]] = True
        v_in = strict_in[mesh.triangles] & ~on_iface[mesh.triangles]
        v_out = ~strict_in[mesh.triangles] & ~on_iface[mesh.triangles]
        straddle = v_in.any(axis=1) & v_out.any(axis=1)
        if np.any(straddle):
            raise MeshError(f"triangle straddles inclusion {l} boundary")
