import json
from dataclasses import replace

import numpy as np
import pytest

from eigenshift import field_solver as fs
from eigenshift import geometry as geo
from eigenshift import harness
from eigenshift.errors import MeshError, SolverError, ValidationError

UNIT_DISK = geo.DomainSpec(kind="disk", radius=1.0)


def disk_inclusion(z=(0.4, 0.0), eps=0.05, k=2.0):
    return geo.InclusionSpec(z=z, shape=geo.DiskShape(1.0), epsilon=eps, k=k)


class TestValidateScene:
    def test_valid_single_inclusion(self):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3, mesh_h=0.1
        )
        assert geo.validate_scene(cfg) is cfg

    def test_separation_violation(self):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK,
            inclusions=(disk_inclusion(z=(0.0, 0.0)), disk_inclusion(z=(0.1, 0.0))),
            d0=0.3,
            mesh_h=0.1,
        )
        with pytest.raises(ValidationError, match="separation"):
            geo.validate_scene(cfg)

    def test_boundary_distance_violation(self):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK, inclusions=(disk_inclusion(z=(1.0, 0.0)),), d0=0.3, mesh_h=0.1
        )
        with pytest.raises(ValidationError, match="boundary distance"):
            geo.validate_scene(cfg)

    def test_k_equal_one_rejected(self):
        with pytest.raises(ValidationError):
            disk_inclusion(k=1.0)

    def test_domain_measures(self):
        assert UNIT_DISK.measure == pytest.approx(np.pi, abs=1e-12)
        rect = geo.DomainSpec(kind="rectangle", width=np.pi, height=np.pi)
        assert rect.measure == pytest.approx(np.pi**2, abs=1e-12)

    def test_polygon_domain_vertex_checks(self):
        square = ((0, 0), (1, 0), (1, 1), (0, 1))
        assert geo.DomainSpec(kind="polygon", vertices=square).measure == pytest.approx(1.0)
        with pytest.raises(ValidationError, match="counterclockwise"):
            geo.DomainSpec(kind="polygon", vertices=square[::-1])
        with pytest.raises(ValidationError, match=">= 3 planar vertices"):
            geo.DomainSpec(kind="polygon", vertices=((0, 0), (1, 0)))


class TestBuildMesh:
    def test_disk_area(self):
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.05)
        mesh = geo.build_mesh(cfg)
        assert abs(mesh.areas.sum() - np.pi) <= 0.02 * np.pi

    def test_region_tags_match_centroids(self):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3, mesh_h=0.08
        )
        mesh = geo.build_mesh(cfg)
        inside = cfg.inclusions[0].contains_physical(mesh.nodes[mesh.triangles].mean(axis=1))
        assert np.array_equal(mesh.region == 0, inside)
        assert (mesh.region == 0).sum() > 0

    def test_local_refinement_size(self):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3, mesh_h=0.08,
            refine_factor=4.0,
        )
        mesh = geo.build_mesh(cfg)
        touching = np.isin(mesh.triangles, mesh.interface_nodes[0]).any(axis=1)
        p = mesh.nodes[mesh.triangles[touching]]
        diam = max(np.hypot(*(p[:, (i + 1) % 3] - p[:, i]).T).max() for i in range(3))
        assert diam <= cfg.mesh_h / cfg.refine_factor

    def test_min_angle(self):
        for cfg in [
            geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.1),
            geo.SceneConfig(domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3, mesh_h=0.08),
            geo.SceneConfig(
                domain=geo.DomainSpec(kind="rectangle", width=np.pi, height=np.pi),
                inclusions=(), d0=0.3, mesh_h=0.15,
            ),
        ]:
            assert geo.build_mesh(cfg).min_angle() >= 20.0

    def test_deterministic(self):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3, mesh_h=0.1
        )
        m1, m2 = geo.build_mesh(cfg), geo.build_mesh(cfg)
        assert np.array_equal(m1.nodes, m2.nodes)
        assert np.array_equal(m1.triangles, m2.triangles)

    def test_refinement_scaling(self):
        # area-proportional count quadruples; boundary structures only double,
        # so the ratio sits slightly below 4 on any bounded domain
        base = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.2)
        half = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.1)
        n1 = len(geo.build_mesh(base).triangles)
        n2 = len(geo.build_mesh(half).triangles)
        assert n2 >= 3.5 * n1

    def test_conformity_no_straddle(self):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK,
            inclusions=(
                disk_inclusion(z=(0.4, 0.0), eps=0.03),
                geo.InclusionSpec(
                    z=(-0.4, 0.1), shape=geo.EllipseShape(1.0, 0.6, 0.3), epsilon=0.04, k=3.0
                ),
            ),
            d0=0.3,
            mesh_h=0.08,
        )
        mesh = geo.build_mesh(cfg)  # _check_mesh raises on straddle
        for l, inc in enumerate(cfg.inclusions):
            on_iface = np.zeros(len(mesh.nodes), dtype=bool)
            on_iface[mesh.interface_nodes[l]] = True
            strict_in = inc.contains_physical(mesh.nodes) & ~on_iface
            strict_out = ~inc.contains_physical(mesh.nodes) & ~on_iface
            v_in = strict_in[mesh.triangles].any(axis=1)
            v_out = strict_out[mesh.triangles].any(axis=1)
            assert not np.any(v_in & v_out)

    def test_epsilon_zero_collapses(self):
        inc = disk_inclusion(eps=0.0)
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(inc,), d0=0.3, mesh_h=0.1)
        mesh = geo.build_mesh(cfg)
        assert mesh.n_inclusions == 0
        assert np.all(mesh.region == -1)

    def test_positive_areas(self):
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.1)
        mesh = geo.build_mesh(cfg)
        assert np.all(mesh.areas > 0)  # signed: every triangle is counterclockwise

    @pytest.mark.parametrize("near_h", [None, 0.03], ids=["uniform", "graded"])
    def test_one_triangulation_per_mesh(self, monkeypatch, near_h):
        delaunay, calls = geo.Delaunay, []

        def counted(points, *args, **kwargs):
            calls.append(len(points))
            return delaunay(points, *args, **kwargs)

        monkeypatch.setattr(geo, "Delaunay", counted)
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3,
                              mesh_h=0.08, near_h=near_h)
        mesh = geo.build_mesh(cfg)
        assert calls == [len(mesh.nodes)]

    def test_nonconvex_polygon_domain(self):
        lshape = geo.DomainSpec(
            kind="polygon", vertices=((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
        )
        cfg = geo.SceneConfig(domain=lshape, inclusions=(), d0=0.2, mesh_h=0.1)
        mesh = geo.build_mesh(cfg)
        assert abs(mesh.areas.sum() - 3.0) <= 0.02 * 3.0
        assert mesh.min_angle() >= 20.0
        # boundary edges are the edges of exactly one triangle
        edges = np.sort(mesh.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        uniq, counts = np.unique(edges, axis=0, return_counts=True)
        boundary = uniq[counts == 1]
        mids = 0.5 * (mesh.nodes[boundary[:, 0]] + mesh.nodes[boundary[:, 1]])
        assert np.max(np.abs(lshape.boundary_distance(mids))) < 1e-12


class TestFoldedTriangles:
    """A triangle whose signed area is not positive is rejected by the mesh
    check and by assembly; scipy's 2-D simplices are counterclockwise."""

    @pytest.fixture(scope="class")
    def built(self):
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3,
                              mesh_h=0.1)
        return cfg, geo.build_mesh(cfg)

    @staticmethod
    def assert_rejected(cfg, mesh):
        with pytest.raises(MeshError, match="folded"):
            geo._check_mesh(mesh, cfg.inclusions)
        with pytest.raises(SolverError, match="folded"):
            fs.assemble(mesh, ())

    def test_reversed_vertex_order_rejected(self, built):
        cfg, mesh = built
        triangles = mesh.triangles.copy()
        triangles[len(triangles) // 2] = triangles[len(triangles) // 2, ::-1]
        self.assert_rejected(cfg, replace(mesh, triangles=triangles))

    def test_node_pushed_across_an_edge_rejected(self, built):
        cfg, mesh = built
        # a lattice node far from the inclusion, reflected across the
        # opposite edge of one of its triangles
        node = int(np.argmin(np.hypot(*(mesh.nodes - [-0.4, 0.2]).T)))
        t, i = np.argwhere(mesh.triangles == node)[0]
        b, c = mesh.nodes[mesh.triangles[t, [(i + 1) % 3, (i + 2) % 3]]]
        normal = np.array([c[1] - b[1], b[0] - c[0]]) / np.hypot(*(c - b))
        nodes = mesh.nodes.copy()
        nodes[node] -= 2.0 * np.dot(nodes[node] - b, normal) * normal
        folded = replace(mesh, nodes=nodes)
        assert np.sum(folded.areas <= 0) >= 1
        # the total area still matches |Omega|, so only the sign tells
        assert abs(np.abs(folded.areas).sum() - np.pi) <= 0.02 * np.pi
        self.assert_rejected(cfg, folded)


class TestHexGrid:
    @pytest.mark.parametrize("bbox, h", [
        ((-1.0, -1.0, 1.0, 1.0), 0.05),
        ((0.0, 0.0, np.pi, np.pi), 0.15),
        ((-0.037, 0.2, 0.41, 0.93), 0.0123),
    ])
    def test_matches_row_loop(self, bbox, h):
        # the lattice as rows were once built, one Python loop step per row
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
        assert np.array_equal(geo._hex_grid(bbox, h), np.vstack(pts))

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 0.0), (0.0, 0.03), (0.1, np.inf),
                                        (-np.inf, np.inf)])
    def test_band_is_the_filtered_grid(self, lo, hi):
        # building only the blocks the band reaches loses no point and keeps row order
        bbox, h = (-1.0, -1.0, 1.0, 1.0), 0.01

        def dist(p):
            return np.minimum(0.98 - np.hypot(*p.T), np.hypot(*(p - [0.4, 0.0]).T) - 0.2)

        grid = geo._hex_grid(bbox, h)
        d = dist(grid)
        expected = grid[(d > lo) & (d <= hi)]
        assert np.array_equal(geo._lattice_band(bbox, h, dist, lo, hi), expected)


class TestGradedMesh:
    def test_benchmark_point_size_and_quality(self):
        cfg = harness._point_config(harness.benchmark_scene(), 0.02,
                                    harness.MESH_SCHEDULE_COEFF)
        assert cfg.near_h < cfg.mesh_h
        mesh = geo.build_mesh(cfg)
        assert len(mesh.nodes) <= 25_000
        assert mesh.min_angle() >= 20.0
        p = mesh.nodes[mesh.triangles]
        longest = np.max(np.hypot(*(p - np.roll(p, 1, axis=1)).transpose(2, 0, 1)), axis=1)
        near = np.all(np.hypot(*(p - cfg.inclusions[0].center).transpose(2, 0, 1))
                      <= 0.5 * cfg.d0, axis=1)
        assert near.sum() > 0
        # a uniform smoothed lattice at spacing h has edges up to about 1.5 h
        assert np.max(longest[near]) <= 1.6 * cfg.near_h
        assert np.max(longest) <= 1.6 * cfg.mesh_h

    def test_near_h_equal_to_mesh_h_is_ungraded(self):
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3,
                              mesh_h=0.08)
        plain, same = geo.build_mesh(cfg), geo.build_mesh(replace(cfg, near_h=0.08))
        assert np.array_equal(plain.nodes, same.nodes)
        assert np.array_equal(plain.triangles, same.triangles)

    def test_less_than_one_growth_step_is_ungraded(self):
        # mesh_h below 1.4 near_h: the whole mesh is at near_h
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3,
                              mesh_h=0.08, near_h=0.07)
        graded, uniform = geo.build_mesh(cfg), geo.build_mesh(replace(cfg, mesh_h=0.07))
        assert np.array_equal(graded.nodes, uniform.nodes)
        assert np.array_equal(graded.triangles, uniform.triangles)

    @pytest.mark.parametrize("near_h", [0.0, -0.01, 0.11, float("nan")])
    def test_near_h_validated(self, near_h):
        with pytest.raises(ValidationError, match="near_h"):
            geo.SceneConfig(domain=UNIT_DISK, inclusions=(), d0=0.3, mesh_h=0.1,
                            near_h=near_h)

    @pytest.mark.parametrize("coeff", [0.5, 1.0, 1.4, 2.0])
    @pytest.mark.parametrize("eps", [0.032, 0.05, 0.065])
    def test_quality_over_schedules(self, coeff, eps):
        # sweep meshes of the benchmark scene; at most 30k nodes, so quick
        mesh = geo.build_mesh(harness._point_config(harness.benchmark_scene(), eps, coeff))
        assert len(mesh.nodes) <= 30_000
        assert mesh.min_angle() >= 20.0
        assert np.all(mesh.areas > 0)

    def test_calibration_meshes(self, calibration):
        points = calibration.base_sweep.points
        assert sum(p.mesh_nodes for p in points) <= 60_000
        # only the largest eps has h0 = mesh_h, so only it is meshed uniformly
        assert [p.mesh_h0 < 0.02 for p in points] == [True, True, True, False]


class TestSerialization:
    def test_scene_json_roundtrip(self, tmp_path):
        cfg = geo.SceneConfig(
            domain=UNIT_DISK,
            inclusions=(
                disk_inclusion(),
                geo.InclusionSpec(
                    z=(-0.3, 0.2), shape=geo.EllipseShape(1.0, 0.5, 0.1), epsilon=0.04, k=5.0
                ),
            ),
            d0=0.25,
            mesh_h=0.08,
            refine_factor=5.0,
        )
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(geo.scene_to_json(cfg)))
        back = geo.load_scene(str(path))
        assert back.domain == cfg.domain
        assert back.d0 == cfg.d0
        assert back.mesh_h == cfg.mesh_h
        assert back.near_h is None
        assert back.inclusions[1].shape == cfg.inclusions[1].shape

    def test_near_h_roundtrip(self, tmp_path):
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3,
                              mesh_h=0.08, near_h=0.03)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(geo.scene_to_json(cfg)))
        assert geo.load_scene(str(path)) == cfg

    def test_polygon_inclusion_shape_rejected(self, tmp_path):
        # inclusion shapes are disks and ellipses; polygons are domains only
        cfg = geo.SceneConfig(domain=UNIT_DISK, inclusions=(disk_inclusion(),), d0=0.3, mesh_h=0.1)
        scene = geo.scene_to_json(cfg)
        scene["inclusions"][0]["shape"] = {
            "kind": "polygon", "vertices": [[1, 0], [0, 1], [-1, 0], [0, -1]]
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        with pytest.raises(ValidationError, match="unknown inclusion shape kind 'polygon'"):
            geo.load_scene(str(path))
