"""Mesh generators, validation, panel extraction and file round-trips."""

import hashlib
import math

import numpy as np
import pytest

import varcap
from varcap.errors import (
    DegenerateTriangleError,
    MeshFormatError,
    NonFiniteInputError,
    NotWatertightError,
    VarcapError,
)
from varcap.geometry import _icosahedron, _signed_volume, _weld

TET_VERTS = np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
)
TET_TRIS = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


def tetrahedron():
    return varcap.SurfaceMesh(TET_VERTS.copy(), TET_TRIS.copy())


def ascii_stl(corners, gap=""):
    """ASCII STL text of triangles (m, 3, 3), with ``gap`` between facets."""
    facets = [
        "facet normal 0 0 0\nouter loop\n"
        + "".join(f"vertex {x!r} {y!r} {z!r}\n" for x, y, z in tri)
        + "endloop\nendfacet\n"
        for tri in np.asarray(corners).tolist()
    ]
    return "solid s\n" + gap.join(facets) + "endsolid s\n"


def loop_icosphere_corners(level):
    """Panel corners from midpoint subdivision with a dict per level."""
    verts, faces = _icosahedron()
    verts, faces = [tuple(v) for v in verts], [tuple(f) for f in faces]
    for _ in range(level):
        cache = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                a, b = verts[key[0]], verts[key[1]]
                verts.append(tuple((x + y) / 2.0 for x, y in zip(a, b)))
                cache[key] = len(verts) - 1
            return cache[key]

        new = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new
    v = np.array(verts)
    v *= 1.0 / np.linalg.norm(v, axis=1)[:, None]
    f = np.array(faces)
    return v[f if _signed_volume(v, f) > 0 else f[:, [0, 2, 1]]]


def loop_cube_corners(side, ppe):
    """Panel corners of a cube, one quad at a time."""
    frames = [
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)), ((ppe, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 0, 0), (1, 0, 0), (0, 0, 1)), ((0, ppe, 0), (0, 0, 1), (1, 0, 0)),
        ((0, 0, 0), (0, 1, 0), (1, 0, 0)), ((0, 0, ppe), (1, 0, 0), (0, 1, 0)),
    ]
    tris = []
    for o, e1, e2 in frames:
        for p in range(ppe):
            for q in range(ppe):
                c = {
                    (dp, dq): [
                        side * (o[k] + (p + dp) * e1[k] + (q + dq) * e2[k]) / ppe
                        for k in range(3)
                    ]
                    for dp in (0, 1) for dq in (0, 1)
                }
                tris += [(c[0, 0], c[1, 0], c[1, 1]), (c[0, 0], c[1, 1], c[0, 1])]
    return np.array(tris)


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

    def test_corners_match_loop_reference(self):
        for level in range(4):
            corners = varcap.build_panels(varcap.make_icosphere(1.0, level)).corners
            assert corners.tobytes() == loop_icosphere_corners(level).tobytes()
            assert varcap.make_icosphere(1.0, level).n_vertices == 10 * 4**level + 2

    def test_subdivision_limit(self):
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_icosphere(1.0, 99)
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_icosphere(-1.0, 1)
        # A level that is not an integer is an error, not truncated.
        for level in (2.5, 2.0, "2"):
            with pytest.raises(varcap.errors.VarcapError, match="must be an integer"):
                varcap.make_icosphere(1.0, level)
            with pytest.raises(varcap.errors.VarcapError, match="must be an integer"):
                varcap.make_ellipsoid(1.0, 1.0, 1.0, level)


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

    def test_corners_match_loop_reference(self):
        for ppe in (1, 3, 4):
            corners = varcap.build_panels(varcap.make_cube(0.7, ppe)).corners
            assert corners.tobytes() == loop_cube_corners(0.7, ppe).tobytes()

    def test_invalid_args(self):
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_cube(1.0, 0)
        with pytest.raises(varcap.errors.VarcapError):
            varcap.make_cube(0.0, 2)
        for ppe in (2.5, 2.0, "2"):
            with pytest.raises(varcap.errors.VarcapError, match="must be an integer"):
                varcap.make_cube(1.0, ppe)


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

    def test_watertight_error_names_plain_ints(self):
        with pytest.raises(NotWatertightError) as info:
            varcap.SurfaceMesh(TET_VERTS.copy(), TET_TRIS[1:].copy())
        assert "(0, 1)" in str(info.value)
        assert "int64" not in str(info.value)

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

    def test_no_panels_rejected(self):
        # Empty input is a format error for panels as for a mesh, not a
        # numpy error from the degeneracy floor's empty max.
        with pytest.raises(MeshFormatError, match="m >= 1"):
            varcap.PanelSystem.from_triangles(np.empty((0, 3, 3)))
        with pytest.raises(MeshFormatError, match="no triangles"):
            varcap.SurfaceMesh(TET_VERTS.copy(), np.empty((0, 3), dtype=int))

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
        loaded = varcap.load_mesh(str(path))
        assert np.array_equal(loaded.vertices, mesh.vertices)
        assert np.array_equal(loaded.triangles, mesh.triangles)

    def test_obj_quads_and_negative_indices(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 1\n"
            "f 1 4 3 2\n"          # quad base, fan-triangulated
            "f 1 2 5\nf 2 3 5\nf 3 4 5\nf -2 1 5\n"
        )
        mesh = varcap.load_mesh(str(path))
        assert mesh.n_triangles == 6

    def test_stl_binary_round_trip(self, tmp_path):
        mesh = varcap.make_icosphere(1.0, 1)
        path = tmp_path / "sphere.stl"
        varcap.save_stl(mesh, str(path))
        loaded = varcap.load_mesh(str(path))
        assert loaded.n_triangles == mesh.n_triangles
        # Binary STL stores float32 coordinates; round-trip at that precision.
        orig = np.sort(mesh.vertices.view("f8").reshape(-1, 3), axis=0)
        back = np.sort(loaded.vertices.reshape(-1, 3), axis=0)
        np.testing.assert_allclose(back, orig, atol=1e-6)

    @pytest.mark.parametrize(
        "mesh, digest",
        [
            (lambda: varcap.make_icosphere(1.0, 2),
             "092b9f4c9bf484b18cb253e5d2dae8ef70809f56642e805518eec17e9cb968b7"),
            (lambda: varcap.make_cube(1.0, 4),
             "b87fc9253493dc2774655607af932c94f2151558785666c5fa849711507bae62"),
        ],
        ids=["icosphere2", "cube4"],
    )
    def test_stl_binary_bytes_pinned(self, tmp_path, mesh, digest):
        # The STL record layout lives in one dtype; the files it writes keep
        # their bytes, and loading gives back each corner rounded to float32.
        mesh = mesh()
        path = tmp_path / "mesh.stl"
        varcap.save_stl(mesh, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        loaded = varcap.load_mesh(str(path))
        expected = mesh.vertices[mesh.triangles].astype(np.float32).astype(np.float64)
        assert loaded.vertices[loaded.triangles].tobytes() == expected.tobytes()

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
        mesh = varcap.load_mesh(str(path))
        assert mesh.n_triangles == 4
        assert mesh.n_vertices == 4  # duplicates welded
        # The content decides the format, not the name.
        renamed = tmp_path / "tet.obj"
        renamed.write_bytes(path.read_bytes())
        assert varcap.load_mesh(str(renamed)).vertices.tobytes() == mesh.vertices.tobytes()

    def test_weld_keeps_first_occurrence(self):
        raw = TET_VERTS[TET_TRIS].reshape(-1, 3)
        # Later copies of a vertex sit 1e-13 away, inside the weld tolerance.
        first = np.unique(TET_TRIS.reshape(-1), return_index=True)[1]
        moved = raw + 1e-13
        moved[first] = raw[first]
        mesh = _weld(moved, np.arange(12).reshape(4, 3))
        assert mesh.n_vertices == 4
        assert mesh.vertices[mesh.triangles].tobytes() == TET_VERTS[TET_TRIS].tobytes()

    def test_stl_ascii_vertices_in_file_order(self, tmp_path):
        # Blank lines between facets are skipped, and the welded vertices
        # come in the order the file first names them.
        path = tmp_path / "tet.stl"
        path.write_text(ascii_stl(TET_VERTS[TET_TRIS], gap="\n  \n"))
        mesh = varcap.load_mesh(str(path))
        ids = TET_TRIS.reshape(-1)
        order = ids[np.sort(np.unique(ids, return_index=True)[1])]
        assert mesh.vertices.tobytes() == TET_VERTS[order].tobytes()
        assert mesh.vertices[mesh.triangles].tobytes() == TET_VERTS[TET_TRIS].tobytes()

    def test_weld_far_from_origin(self, tmp_path):
        # 1e11 from the origin a unit cube's weld keys pass 2**63, so an
        # int64 cast would collapse every vertex into one.
        cube = varcap.make_cube(1.0, 2)
        path = tmp_path / "far.stl"
        path.write_text(ascii_stl(cube.vertices[cube.triangles] + 1e11))
        mesh = varcap.load_mesh(str(path))
        assert mesh.n_vertices == cube.n_vertices
        assert mesh.vertices[mesh.triangles].tobytes() == (
            cube.vertices[cube.triangles] + 1e11
        ).tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_vertex_in_any_format(self, tmp_path, value):
        # The weld leaves a non-finite vertex to SurfaceMesh's check, and
        # warns about nothing on the way.
        corners = TET_VERTS[TET_TRIS].copy()
        corners[1, 2, 0] = value
        path = tmp_path / "tet.stl"
        path.write_text(ascii_stl(corners))
        with pytest.raises(NonFiniteInputError):
            varcap.load_mesh(str(path))

    def test_obj_face_index_out_of_range(self, tmp_path):
        # A negative index past the first vertex must not wrap around.
        for face in ("f 1 2 4\n", "f -4 1 2\n"):
            with pytest.raises(MeshFormatError, match="face index out of range 1..3"):
                load_text(tmp_path, "a.obj", TRIANGLE_OBJ + face)

    def test_malformed_inputs(self, tmp_path):
        bad = tmp_path / "bad.obj"
        bad.write_text("v 1 2\nf 1 2 3\n")
        with pytest.raises(MeshFormatError):
            varcap.load_mesh(str(bad))
        trunc = tmp_path / "trunc.stl"
        trunc.write_bytes(b"\x00" * 90)
        with pytest.raises(MeshFormatError, match="zero facets"):
            varcap.load_mesh(str(trunc))


def load_text(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    return varcap.load_mesh(str(path))


TRIANGLE_OBJ = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
STL_FACET = "solid s\nfacet normal 0 0 1\nouter loop\n"


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda _: varcap.make_ellipsoid(1.0, 0.0, 1.0, 1), VarcapError, "semiaxes"),
        (lambda _: varcap.SurfaceMesh(np.zeros((4, 2)), TET_TRIS.copy()),
         MeshFormatError, r"vertices must be an \(n, 3\)"),
        (lambda _: varcap.SurfaceMesh(TET_VERTS.copy(), np.zeros((1, 4), dtype=int)),
         MeshFormatError, r"triangles must be an \(m, 3\)"),
        (lambda _: varcap.PanelSystem.from_triangles(np.full((1, 3, 3), np.nan)),
         NonFiniteInputError, "non-finite"),
        (lambda t: load_text(t, "a.obj", "v 0 0 x\n"), MeshFormatError, "bad vertex coordinate"),
        (lambda t: load_text(t, "a.obj", TRIANGLE_OBJ + "f 1 a 3\n"),
         MeshFormatError, "bad face index"),
        # Index 0 is not an OBJ index, even where a later vertex would match it.
        (lambda t: load_text(t, "a.obj", TRIANGLE_OBJ + "f 0 3 2\nv 0 0 1\n"),
         MeshFormatError, r"a\.obj:4: bad face index '0'"),
        (lambda t: load_text(t, "a.obj", TRIANGLE_OBJ + "f 1 2\n"),
         MeshFormatError, "< 3 vertices"),
        (lambda t: load_text(t, "a.obj", "# empty\n"), MeshFormatError, "no geometry"),
        (lambda t: load_text(t, "a.stl", STL_FACET + "vertex 0 0\n"),
         MeshFormatError, "malformed vertex line"),
        (lambda t: load_text(t, "a.stl", STL_FACET + "vertex 0 0 y\n"),
         MeshFormatError, "bad coordinate"),
        (lambda t: load_text(t, "a.stl", bytes(50)), MeshFormatError, "shorter than its header"),
    ],
    ids=[
        "ellipsoid-semiaxis", "vertices-n2", "triangles-m4", "panels-nan",
        "obj-coordinate", "obj-face-index", "obj-face-index-zero", "obj-two-vertex-face",
        "obj-no-geometry",
        "stl-short-vertex", "stl-coordinate", "stl-50-bytes",
    ],
)
def test_input_checks_raise(tmp_path, build, error, match):
    # One case for each input check that no other test reaches.
    with pytest.raises(error, match=match):
        build(tmp_path)
