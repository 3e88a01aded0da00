"""Mesh generators, validation, panel extraction and file round-trips."""

import math

import numpy as np
import pytest

import varcap
from varcap.errors import (
    DegenerateTriangleError,
    MeshFormatError,
    NonFiniteInputError,
    NotWatertightError,
)
from varcap.geometry import _signed_volume

TET_VERTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)
TET_TRIS = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


def tetrahedron():
    return varcap.SurfaceMesh(TET_VERTS.copy(), TET_TRIS.copy())


class TestIcosphere:
    def test_counts_and_radius(self):
        for level in range(3):
            mesh = varcap.make_icosphere(2.0, level)
            assert mesh.n_triangles == 20 * 4**level
            radii = np.linalg.norm(mesh.vertices, axis=1)
            np.testing.assert_allclose(radii, 2.0, rtol=1e-14)

    def test_outward_orientation(self):
        mesh = varcap.make_icosphere(1.0, 2)
        vol = _signed_volume(mesh.vertices, mesh.triangles)
        assert vol > 0
        # Inscribed polyhedron volume approaches 4/3 pi from below.
        assert vol < 4.0 / 3.0 * math.pi
        assert vol > 0.95 * 4.0 / 3.0 * math.pi

    def test_area_converges_to_sphere(self):
        errs = []
        for level in (1, 2, 3):
            panels = varcap.build_panels(varcap.make_icosphere(1.0, level))
            errs.append(abs(panels.total_area - 4.0 * math.pi))
        assert errs[0] > errs[1] > errs[2]

    def test_subdivision_limit(self):
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_icosphere(1.0, 99)
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_icosphere(-1.0, 1)


class TestCube:
    def test_counts_and_measures(self):
        for ppe in (1, 2, 3):
            mesh = varcap.make_cube(2.0, ppe)
            assert mesh.n_triangles == 12 * ppe**2
            panels = varcap.build_panels(mesh)
            assert panels.total_area == pytest.approx(6 * 4.0, rel=1e-13)
            assert _signed_volume(mesh.vertices, mesh.triangles) == pytest.approx(
                8.0, rel=1e-13
            )

    def test_watertight_welding(self):
        # Face boundaries share vertices, so each undirected edge appears twice;
        # SurfaceMesh construction would raise otherwise.
        mesh = varcap.make_cube(1.0, 4)
        assert mesh.n_vertices == 6 * 5 * 5 - 12 * 5 + 8  # faces minus seams

    def test_invalid_args(self):
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_cube(1.0, 0)
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_cube(0.0, 2)


class TestEllipsoid:
    def test_unit_ellipsoid_matches_sphere(self):
        sphere = varcap.make_icosphere(1.0, 2)
        ell = varcap.make_ellipsoid(1.0, 1.0, 1.0, 2)
        assert np.array_equal(sphere.vertices, ell.vertices)
        assert np.array_equal(sphere.triangles, ell.triangles)

    def test_semiaxes(self):
        mesh = varcap.make_ellipsoid(2.0, 1.0, 0.5, 1)
        lo, hi = mesh.bbox
        np.testing.assert_allclose(hi, [2.0, 1.0, 0.5], rtol=1e-12)
        np.testing.assert_allclose(lo, [-2.0, -1.0, -0.5], rtol=1e-12)


class TestMeshValidation:
    def test_open_surface_rejected(self):
        with pytest.raises(NotWatertightError) as info:
            varcap.SurfaceMesh(TET_VERTS.copy(), TET_TRIS[:3].copy())
        assert info.value.boundary_edges

    def test_nonmanifold_edge_rejected(self):
        verts = np.vstack([TET_VERTS, [1.0, 1.0, 1.0]])
        tris = np.vstack([TET_TRIS, [[0, 1, 4]]])  # edge (0,1) used 3 times
        with pytest.raises(NotWatertightError) as info:
            varcap.SurfaceMesh(verts, tris)
        assert (0, 1) in info.value.nonmanifold_edges

    def test_degenerate_triangle_rejected(self):
        verts = np.vstack([TET_VERTS, 0.5 * (TET_VERTS[0] + TET_VERTS[1])])
        tris = np.array(
            [[0, 2, 4], [4, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3], [0, 4, 1]]
        )
        with pytest.raises(DegenerateTriangleError):
            varcap.SurfaceMesh(verts, tris)

    def test_index_out_of_range(self):
        with pytest.raises(MeshFormatError):
            varcap.SurfaceMesh(TET_VERTS.copy(), np.array([[0, 1, 7]]))

    def test_non_finite_vertices(self):
        verts = TET_VERTS.copy()
        verts[0, 0] = np.nan
        with pytest.raises(NonFiniteInputError):
            varcap.SurfaceMesh(verts, TET_TRIS.copy())

    def test_inconsistent_orientation_warns(self):
        tris = TET_TRIS.copy()
        tris[0] = tris[0][::-1]
        with pytest.warns(UserWarning, match="orient"):
            varcap.SurfaceMesh(TET_VERTS.copy(), tris)

    def test_arrays_are_read_only(self):
        mesh = tetrahedron()
        with pytest.raises(ValueError):
            mesh.vertices[0, 0] = 5.0


class TestPanels:
    def test_areas_and_centroids(self):
        panels = varcap.build_panels(tetrahedron())
        assert panels.n_panels == 4
        assert panels.areas[0] == pytest.approx(0.5, rel=1e-15)
        np.testing.assert_allclose(
            panels.centroids[0], TET_VERTS[[0, 2, 1]].mean(axis=0), rtol=1e-15
        )
        assert panels.total_area == pytest.approx(
            1.5 + 0.5 * math.sqrt(3), rel=1e-14
        )

    def test_transform_helpers(self):
        mesh = tetrahedron()
        shifted = mesh.transformed(lambda v: v + [1.0, 2.0, 3.0])
        np.testing.assert_allclose(
            shifted.vertices, mesh.vertices + [1.0, 2.0, 3.0]
        )
        scaled = mesh.scaled(2.0)
        assert varcap.build_panels(scaled).total_area == pytest.approx(
            4.0 * varcap.build_panels(mesh).total_area, rel=1e-14
        )

    def test_sliver_reported_by_panel_index(self):
        mesh = varcap.make_icosphere(1.0, 1)
        corners = mesh.vertices[mesh.triangles]
        a, b, c = corners[7]
        normal = np.cross(b - a, c - a)
        corners[7, 2] = 0.5 * (a + b) + 1e-16 * normal / np.linalg.norm(normal)
        with pytest.raises(DegenerateTriangleError) as info:
            varcap.PanelSystem.from_triangles(corners)
        assert info.value.indices == [7]

    def test_far_translation_keeps_capacitance(self, solved):
        # The degeneracy floor ignores position, so a mesh far from the
        # origin is accepted and gives the same capacitance.
        base = solved("sphere2")
        moved = base.mesh.transformed(lambda v: v + [1e7, 0.0, 0.0])
        system = varcap.assemble(varcap.build_panels(moved))
        c = varcap.solve_capacitance(system).capacitance
        assert abs(c - base.solution.capacitance) <= 1e-10 * base.solution.capacitance


class TestFileRoundTrips:
    def test_obj_round_trip_exact(self, tmp_path):
        mesh = varcap.make_icosphere(1.0, 1)
        path = tmp_path / "sphere.obj"
        varcap.save_obj(mesh, str(path))
        loaded = varcap.load_mesh(str(path), "obj")
        assert np.array_equal(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.triangles, mesh.triangles)

    def test_obj_quads_and_negative_indices(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 1\n"
            "f 1 4 3 2\n"          # quad base, fan-triangulated
            "f 1 2 5\nf 2 3 5\nf 3 4 5\nf -2 1 5\n"
        )
        mesh = varcap.load_mesh(str(path), "obj")
        assert mesh.n_triangles == 6

    def test_stl_binary_round_trip(self, tmp_path):
        mesh = varcap.make_icosphere(1.0, 1)
        path = tmp_path / "sphere.stl"
        varcap.save_stl(mesh, str(path))
        loaded = varcap.load_mesh(str(path), "stl-binary")
        assert loaded.n_triangles == mesh.n_triangles
        # Binary STL stores float32 coordinates; round-trip at that precision.
        orig = np.sort(mesh.vertices.view("f8").reshape(-1, 3), axis=0)
        back = np.sort(loaded.vertices.reshape(-1, 3), axis=0)
        np.testing.assert_allclose(back, orig, atol=1e-6)

    def test_stl_ascii_load(self, tmp_path):
        path = tmp_path / "tet.stl"
        lines = ["solid tet"]
        for tri in TET_TRIS:
            lines.append("facet normal 0 0 0")
            lines.append("outer loop")
            for idx in tri:
                v = TET_VERTS[idx]
                lines.append(f"vertex {v[0]} {v[1]} {v[2]}")
            lines.append("endloop")
            lines.append("endfacet")
        lines.append("endsolid tet")
        path.write_text("\n".join(lines) + "\n")
        mesh = varcap.load_mesh(str(path), "stl-ascii")
        assert mesh.n_triangles == 4
        assert mesh.n_vertices == 4  # duplicates welded

    def test_malformed_inputs(self, tmp_path):
        bad = tmp_path / "bad.obj"
        bad.write_text("v 1 2\nf 1 2 3\n")
        with pytest.raises(MeshFormatError):
            varcap.load_mesh(str(bad), "obj")
        trunc = tmp_path / "trunc.stl"
        trunc.write_bytes(b"\x00" * 90)
        with pytest.raises(MeshFormatError):
            varcap.load_mesh(str(trunc), "stl-binary")
        with pytest.raises(MeshFormatError):
            varcap.load_mesh(str(bad), "gltf")
