"""Triangulated conductor surfaces: generators, file I/O, and panel data.

All meshes are closed (watertight) triangle surfaces with consistently
oriented faces. Vertices and triangle index arrays are immutable after
construction; generators are deterministic, so identical inputs produce
bitwise-identical arrays.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTriangleError,
    MeshFormatError,
    NonFiniteInputError,
    NotWatertightError,
    VarcapError,
)

__all__ = [
    "SurfaceMesh",
    "PanelSystem",
    "make_icosphere",
    "make_cube",
    "make_ellipsoid",
    "load_mesh",
    "save_obj",
    "save_stl",
    "build_panels",
]

# Relative area floor below which a triangle counts as degenerate.
DEGENERATE_AREA_FACTOR = 1e-14

# Vertex weld tolerance for STL ingestion, relative to the bbox diagonal.
WELD_FACTOR = 1e-9

MAX_SUBDIVISIONS = 7


def _area_vectors(corners: np.ndarray) -> np.ndarray:
    """(v1 - v0) x (v2 - v0) per triangle: its normal, twice its area long."""
    return np.cross(corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0])


def _checked_areas(corners: np.ndarray) -> np.ndarray:
    """Areas of triangles (m, 3, 3); the one test of whether one is degenerate.

    A triangle is degenerate when its area is at most DEGENERATE_AREA_FACTOR
    times the squared bbox diagonal of all the corners given. The floor
    scales with the set and ignores where it sits, so a scaled or moved copy
    of a valid set stays valid. Raises DegenerateTriangleError with the
    indices of the degenerate triangles.
    """
    areas = 0.5 * np.linalg.norm(_area_vectors(corners), axis=1)
    flat = corners.reshape(-1, 3)
    diag = float(np.linalg.norm(flat.max(axis=0) - flat.min(axis=0)))
    bad = np.nonzero(areas <= DEGENERATE_AREA_FACTOR * diag * diag)[0]
    if len(bad):
        raise DegenerateTriangleError(bad.tolist())
    return areas


@dataclass(frozen=True)
class SurfaceMesh:
    """A closed triangulated surface with outward-oriented faces.

    Construction validates index ranges, non-degeneracy and watertightness;
    inconsistent face orientation is reported as a warning (the capacitance
    kernel depends on |s - t| only).
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 3:
            raise MeshFormatError("vertices must be an (n, 3) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshFormatError("triangles must be an (m, 3) array")
        if len(triangles) == 0:
            raise MeshFormatError("mesh has no triangles")
        if not np.all(np.isfinite(vertices)):
            raise NonFiniteInputError("mesh vertices contain non-finite values")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise MeshFormatError(
                f"triangle indices out of range [0, {len(vertices)})"
            )
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        _checked_areas(vertices[triangles])
        self._check_watertight()
        vertices.setflags(write=False)
        triangles.setflags(write=False)

    def _check_watertight(self):
        tri = self.triangles
        directed = np.concatenate(
            [tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]], axis=0
        )
        undirected = np.sort(directed, axis=1)
        _, inverse, counts = np.unique(
            undirected, axis=0, return_inverse=True, return_counts=True
        )
        if np.any(counts != 2):
            per_edge = counts[inverse]
            boundary = directed[per_edge < 2]
            nonmanifold = directed[per_edge > 2]
            raise NotWatertightError(
                [tuple(e) for e in np.unique(np.sort(boundary, 1), axis=0)]
                if len(boundary)
                else [],
                [tuple(e) for e in np.unique(np.sort(nonmanifold, 1), axis=0)]
                if len(nonmanifold)
                else [],
            )
        # Consistent orientation: each directed edge used exactly once.
        _, dcounts = np.unique(directed, axis=0, return_counts=True)
        if np.any(dcounts != 1):
            warnings.warn(
                "mesh faces are not consistently oriented; capacitance is "
                "orientation-independent, continuing",
                stacklevel=3,
            )

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def transformed(self, fn) -> "SurfaceMesh":
        """Return a new mesh with vertices mapped through ``fn``."""
        return SurfaceMesh(fn(self.vertices.copy()), self.triangles.copy())

    def scaled(self, factor: float) -> "SurfaceMesh":
        return self.transformed(lambda v: v * float(factor))


@dataclass(frozen=True)
class PanelSystem:
    """Per-panel geometry extracted from a mesh.

    ``total_area`` is accumulated in fixed index order, so it is reproducible
    across runs. ``corners`` has shape (m, 3, 3): panel, vertex, xyz.
    """

    corners: np.ndarray
    areas: np.ndarray
    centroids: np.ndarray
    total_area: float

    @classmethod
    def from_triangles(cls, corners) -> "PanelSystem":
        corners = np.ascontiguousarray(corners, dtype=np.float64)
        if corners.ndim != 3 or corners.shape[1:] != (3, 3):
            raise MeshFormatError("corners must be an (m, 3, 3) array")
        if not np.all(np.isfinite(corners)):
            raise NonFiniteInputError("panel corners contain non-finite values")
        areas = _checked_areas(corners)
        centroids = corners.mean(axis=1)
        for arr in (corners, areas, centroids):
            arr.setflags(write=False)
        return cls(corners, areas, centroids, float(np.sum(areas)))

    @classmethod
    def from_mesh(cls, mesh: SurfaceMesh) -> "PanelSystem":
        return cls.from_triangles(mesh.vertices[mesh.triangles])

    @property
    def n_panels(self) -> int:
        return len(self.areas)


def build_panels(mesh: SurfaceMesh) -> PanelSystem:
    """Compute per-triangle areas, centroids and the total surface area."""
    return PanelSystem.from_mesh(mesh)


# ---------------------------------------------------------------------------
# Shape generators
# ---------------------------------------------------------------------------

def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
            [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
            [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return verts, faces


def _signed_volume(vertices: np.ndarray, triangles: np.ndarray) -> float:
    c = vertices[triangles]
    return float(np.sum(np.einsum("ij,ij->i", c[:, 0], np.cross(c[:, 1], c[:, 2]))) / 6.0)


def make_icosphere(radius: float, subdivisions: int) -> SurfaceMesh:
    """Icosahedron subdivided ``subdivisions`` times, vertices on the sphere."""
    if radius <= 0:
        raise VarcapError(f"radius must be positive, got {radius}")
    if not 0 <= int(subdivisions) <= MAX_SUBDIVISIONS:
        raise VarcapError(
            f"subdivisions must be in 0..{MAX_SUBDIVISIONS}, got {subdivisions}"
        )
    verts, faces = _icosahedron()
    vert_list = [tuple(v) for v in verts]
    face_list = [tuple(f) for f in faces]
    for _ in range(int(subdivisions)):
        midpoint_cache: dict[tuple[int, int], int] = {}

        def midpoint(i, j):
            key = (i, j) if i < j else (j, i)
            idx = midpoint_cache.get(key)
            if idx is None:
                a, b = vert_list[key[0]], vert_list[key[1]]
                vert_list.append(
                    ((a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0, (a[2] + b[2]) / 2.0)
                )
                idx = len(vert_list) - 1
                midpoint_cache[key] = idx
            return idx

        new_faces = []
        for a, b, c in face_list:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        face_list = new_faces
    verts = np.array(vert_list, dtype=np.float64)
    verts *= radius / np.linalg.norm(verts, axis=1)[:, None]
    faces = np.array(face_list, dtype=np.int64)
    if _signed_volume(verts, faces) < 0:
        faces = faces[:, [0, 2, 1]]
    return SurfaceMesh(verts, faces)


def make_cube(side: float, panels_per_edge: int) -> SurfaceMesh:
    """Axis-aligned cube with each face split into 2 * panels_per_edge**2 triangles."""
    if side <= 0:
        raise VarcapError(f"side must be positive, got {side}")
    ppe = int(panels_per_edge)
    if ppe < 1:
        raise VarcapError(f"panels_per_edge must be >= 1, got {panels_per_edge}")
    # Integer grid keys avoid float comparisons when welding shared edges.
    index: dict[tuple[int, int, int], int] = {}
    verts: list[tuple[float, float, float]] = []

    def vid(i, j, k):
        key = (i, j, k)
        idx = index.get(key)
        if idx is None:
            verts.append((side * i / ppe, side * j / ppe, side * k / ppe))
            idx = len(verts) - 1
            index[key] = idx
        return idx

    # Each face: grid origin and in-plane axes chosen so e1 x e2 points outward.
    face_frames = [
        ((0, 0, 0), (0, 0, 1), (0, 1, 0)),   # x = 0, outward -x
        ((ppe, 0, 0), (0, 1, 0), (0, 0, 1)),  # x = side, outward +x
        ((0, 0, 0), (1, 0, 0), (0, 0, 1)),   # y = 0, outward -y
        ((0, ppe, 0), (0, 0, 1), (1, 0, 0)),  # y = side, outward +y
        ((0, 0, 0), (0, 1, 0), (1, 0, 0)),   # z = 0, outward -z
        ((0, 0, ppe), (1, 0, 0), (0, 1, 0)),  # z = side, outward +z
    ]
    tris = []
    for origin, e1, e2 in face_frames:
        for p in range(ppe):
            for q in range(ppe):
                def corner(dp, dq):
                    return vid(
                        origin[0] + (p + dp) * e1[0] + (q + dq) * e2[0],
                        origin[1] + (p + dp) * e1[1] + (q + dq) * e2[1],
                        origin[2] + (p + dp) * e1[2] + (q + dq) * e2[2],
                    )

                c00, c10, c11, c01 = corner(0, 0), corner(1, 0), corner(1, 1), corner(0, 1)
                tris.append((c00, c10, c11))
                tris.append((c00, c11, c01))
    return SurfaceMesh(np.array(verts), np.array(tris, dtype=np.int64))


def make_ellipsoid(a: float, b: float, c: float, subdivisions: int) -> SurfaceMesh:
    """Unit icosphere scaled anisotropically to semiaxes (a, b, c)."""
    if min(a, b, c) <= 0:
        raise VarcapError(f"semiaxes must be positive, got {(a, b, c)}")
    sphere = make_icosphere(1.0, subdivisions)
    return sphere.transformed(lambda v: v * np.array([a, b, c], dtype=np.float64))


# ---------------------------------------------------------------------------
# Mesh file I/O
# ---------------------------------------------------------------------------

def _weld(raw_vertices: np.ndarray, raw_triangles: np.ndarray) -> SurfaceMesh:
    """Merge duplicate vertices within the weld tolerance (quantized grid)."""
    lo = raw_vertices.min(axis=0)
    hi = raw_vertices.max(axis=0)
    diag = float(np.linalg.norm(hi - lo))
    tol = WELD_FACTOR * diag if diag > 0 else WELD_FACTOR
    keys = np.round(raw_vertices / tol).astype(np.int64)
    index: dict[bytes, int] = {}
    remap = np.empty(len(raw_vertices), dtype=np.int64)
    verts = []
    for i, key in enumerate(keys):
        kb = key.tobytes()
        idx = index.get(kb)
        if idx is None:
            idx = len(verts)
            verts.append(raw_vertices[i])
            index[kb] = idx
        remap[i] = idx
    return SurfaceMesh(np.array(verts), remap[raw_triangles])


def _load_obj(path: str) -> SurfaceMesh:
    verts = []
    tris = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) < 4:
                    raise MeshFormatError(f"{path}:{lineno}: malformed vertex record")
                try:
                    verts.append(tuple(float(x) for x in parts[1:4]))
                except ValueError as exc:
                    raise MeshFormatError(
                        f"{path}:{lineno}: bad vertex coordinate"
                    ) from exc
            elif parts[0] == "f":
                idx = []
                for tok in parts[1:]:
                    head = tok.split("/")[0]
                    try:
                        i = int(head)
                    except ValueError as exc:
                        raise MeshFormatError(
                            f"{path}:{lineno}: bad face index {tok!r}"
                        ) from exc
                    idx.append(i - 1 if i > 0 else len(verts) + i)
                if len(idx) < 3:
                    raise MeshFormatError(f"{path}:{lineno}: face with < 3 vertices")
                for k in range(1, len(idx) - 1):  # fan triangulation
                    tris.append((idx[0], idx[k], idx[k + 1]))
    if not verts or not tris:
        raise MeshFormatError(f"{path}: no geometry found")
    return SurfaceMesh(np.array(verts), np.array(tris, dtype=np.int64))


def _load_stl_ascii(path: str) -> SurfaceMesh:
    raw_verts = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    count = 0
    for lineno, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "vertex":
            if len(parts) < 4:
                raise MeshFormatError(f"{path}:{lineno}: malformed vertex line")
            try:
                raw_verts.append(tuple(float(x) for x in parts[1:4]))
            except ValueError as exc:
                raise MeshFormatError(f"{path}:{lineno}: bad coordinate") from exc
        elif parts[0] == "endfacet":
            count += 1
    if count == 0 or len(raw_verts) != 3 * count:
        raise MeshFormatError(
            f"{path}: expected 3 vertices per facet, got {len(raw_verts)} "
            f"vertices for {count} facets"
        )
    raw = np.array(raw_verts, dtype=np.float64)
    tris = np.arange(len(raw), dtype=np.int64).reshape(-1, 3)
    return _weld(raw, tris)


def _load_stl_binary(path: str) -> SurfaceMesh:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 84:
        raise MeshFormatError(f"{path}: binary STL shorter than its header")
    (count,) = struct.unpack_from("<I", data, 80)
    if count == 0:
        raise MeshFormatError(f"{path}: binary STL declares zero facets")
    expected = 84 + 50 * count
    if len(data) < expected:
        raise MeshFormatError(
            f"{path}: truncated binary STL ({len(data)} bytes, expected {expected})"
        )
    records = np.frombuffer(data, dtype=np.uint8, count=50 * count, offset=84)
    records = records.reshape(count, 50)
    floats = records[:, :48].copy().view("<f4").reshape(count, 4, 3)
    raw = floats[:, 1:, :].reshape(-1, 3).astype(np.float64)
    tris = np.arange(len(raw), dtype=np.int64).reshape(-1, 3)
    return _weld(raw, tris)


_LOADERS = {
    "obj": _load_obj,
    "stl-ascii": _load_stl_ascii,
    "stl-binary": _load_stl_binary,
}


def load_mesh(path: str, format: str) -> SurfaceMesh:
    """Load a surface mesh; ``format`` is one of obj, stl-ascii, stl-binary."""
    loader = _LOADERS.get(format)
    if loader is None:
        raise MeshFormatError(
            f"unknown format {format!r}; expected one of {sorted(_LOADERS)}"
        )
    return loader(path)


def save_obj(mesh: SurfaceMesh, path: str) -> None:
    """Write an OBJ file; float repr round-trips coordinates exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {float(v[0])!r} {float(v[1])!r} {float(v[2])!r}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def save_stl(mesh: SurfaceMesh, path: str) -> None:
    """Write a binary STL (80-byte header, little-endian float32 triangles)."""
    corners = mesh.vertices[mesh.triangles]
    normals = _area_vectors(corners)
    lengths = np.linalg.norm(normals, axis=1)
    normals = normals / np.where(lengths > 0, lengths, 1.0)[:, None]
    count = len(corners)
    with open(path, "wb") as fh:
        fh.write(b"varcap binary STL".ljust(80, b" "))
        fh.write(struct.pack("<I", count))
        rec = np.zeros((count, 50), dtype=np.uint8)
        block = np.concatenate(
            [normals[:, None, :], corners], axis=1
        ).astype("<f4")
        rec[:, :48] = np.ascontiguousarray(block.reshape(count, 12)).view(np.uint8)
        fh.write(rec.tobytes())
