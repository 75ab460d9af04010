import json

import numpy as np
import pytest

from eigenshift import geometry as geo
from eigenshift.errors import ValidationError

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
        assert np.all(mesh.areas > 0)

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
        assert back.inclusions[1].shape == cfg.inclusions[1].shape

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
