"""Triangulated conductor surfaces: generators, file I/O, and panel data.

All meshes are closed (watertight) triangle surfaces with consistently
oriented faces. Vertices and triangle index arrays are immutable after
construction; generators are deterministic, so identical inputs produce
bitwise-identical arrays.
"""

from __future__ import annotations

import math
import operator
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

# Vertex weld tolerance for every mesh file format, relative to the bbox diagonal.
WELD_FACTOR = 1e-9

MAX_SUBDIVISIONS = 7

# A binary STL facet record, 50 bytes: unit normal, corners, attribute count.
STL_RECORD = np.dtype(
    [("normal", "<f4", (3,)), ("corners", "<f4", (3, 3)), ("attribute", "<u2")]
)


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
            raise NotWatertightError(*(
                [tuple(e) for e in np.unique(np.sort(edges, 1), axis=0).tolist()]
                for edges in (directed[per_edge < 2], directed[per_edge > 2])
            ))
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
        if corners.ndim != 3 or corners.shape[1:] != (3, 3) or len(corners) == 0:
            raise MeshFormatError("corners must be an (m, 3, 3) array, m >= 1")
        if not np.all(np.isfinite(corners)):
            raise NonFiniteInputError("panel corners contain non-finite values")
        areas = _checked_areas(corners)
        centroids = corners.mean(axis=1)
        for arr in (corners, areas, centroids):
            arr.setflags(write=False)
        return cls(corners, areas, centroids, float(np.sum(areas)))

    @property
    def n_panels(self) -> int:
        return len(self.areas)


def build_panels(mesh: SurfaceMesh) -> PanelSystem:
    """Compute per-triangle areas, centroids and the total surface area."""
    return PanelSystem.from_triangles(mesh.vertices[mesh.triangles])


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


def _level(value, name: str) -> int:
    """A generator's level as an int; a float, even 2.0, is an error, not truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise VarcapError(f"{name} must be an integer, got {value!r}") from None


def make_icosphere(radius: float, subdivisions: int) -> SurfaceMesh:
    """Icosahedron subdivided ``subdivisions`` times, vertices on the sphere."""
    if radius <= 0:
        raise VarcapError(f"radius must be positive, got {radius}")
    subdivisions = _level(subdivisions, "subdivisions")
    if not 0 <= subdivisions <= MAX_SUBDIVISIONS:
        raise VarcapError(
            f"subdivisions must be in 0..{MAX_SUBDIVISIONS}, got {subdivisions}"
        )
    verts, faces = _icosahedron()
    for _ in range(subdivisions):
        # One new vertex per edge, shared by the two faces that border it.
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        ends, inverse = np.unique(edges, axis=0, return_inverse=True)
        ab, bc, ca = (len(verts) + inverse.reshape(-1, 3)).T
        verts = np.concatenate([verts, (verts[ends[:, 0]] + verts[ends[:, 1]]) / 2.0])
        a, b, c = faces.T
        faces = np.stack(
            [a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1
        ).reshape(-1, 3)
    verts *= radius / np.linalg.norm(verts, axis=1)[:, None]
    return SurfaceMesh(verts, faces)


def make_cube(side: float, panels_per_edge: int) -> SurfaceMesh:
    """Axis-aligned cube with each face split into 2 * panels_per_edge**2 triangles."""
    if side <= 0:
        raise VarcapError(f"side must be positive, got {side}")
    ppe = _level(panels_per_edge, "panels_per_edge")
    if ppe < 1:
        raise VarcapError(f"panels_per_edge must be >= 1, got {panels_per_edge}")
    # Each face: grid origin and in-plane axes chosen so e1 x e2 points outward.
    face_frames = np.array(
        [
            ((0, 0, 0), (0, 0, 1), (0, 1, 0)),   # x = 0, outward -x
            ((ppe, 0, 0), (0, 1, 0), (0, 0, 1)),  # x = side, outward +x
            ((0, 0, 0), (1, 0, 0), (0, 0, 1)),   # y = 0, outward -y
            ((0, ppe, 0), (0, 0, 1), (1, 0, 0)),  # y = side, outward +y
            ((0, 0, 0), (0, 1, 0), (1, 0, 0)),   # z = 0, outward -z
            ((0, 0, ppe), (1, 0, 0), (0, 1, 0)),  # z = side, outward +z
        ]
    )
    origin, e1, e2 = face_frames.transpose(1, 0, 2)[:, :, None, None, None, None, :]
    # Quad (p, q) splits into corners (00, 10, 11) and (00, 11, 01).
    p, q = np.meshgrid(np.arange(ppe), np.arange(ppe), indexing="ij")
    dp = np.array([[0, 1, 1], [0, 1, 0]])
    dq = np.array([[0, 0, 1], [0, 1, 1]])
    # Integer grid points (face, p, q, triangle, corner, xyz): welding shared
    # edges compares integers, not floats.
    grid = (
        origin
        + (p[:, :, None, None, None] + dp[:, :, None]) * e1
        + (q[:, :, None, None, None] + dq[:, :, None]) * e2
    )
    points, inverse = np.unique(grid.reshape(-1, 3), axis=0, return_inverse=True)
    return SurfaceMesh(side * points / ppe, inverse.reshape(-1, 3))


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
    """Merge vertices within WELD_FACTOR of the bbox diagonal (quantized grid).

    Each welded vertex keeps its first occurrence's coordinates and place.
    The keys stay floats: as int64 they would overflow far from the origin.
    """
    lo, hi = raw_vertices.min(axis=0), raw_vertices.max(axis=0)
    with np.errstate(invalid="ignore"):
        diag = float(np.linalg.norm(hi - lo))
        tol = WELD_FACTOR * diag if diag > 0 else WELD_FACTOR
        keys = np.round(raw_vertices / tol)
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    # Number the welded vertices by first occurrence, not by sorted key.
    order = np.argsort(first)
    renumber = np.argsort(order)[inverse.reshape(-1)]
    return SurfaceMesh(raw_vertices[first[order]], renumber[raw_triangles])


def _load_obj(path: str, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    verts = []
    tris = []
    for lineno, line in enumerate(data.splitlines(), 1):
        parts = line.decode("utf-8", errors="replace").split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            if len(parts) < 4:
                raise MeshFormatError(f"{path}:{lineno}: malformed vertex record")
            try:
                verts.append(tuple(float(x) for x in parts[1:4]))
            except ValueError as exc:
                raise MeshFormatError(f"{path}:{lineno}: bad vertex coordinate") from exc
        elif parts[0] == "f":
            idx = []
            for tok in parts[1:]:
                head = tok.split("/")[0]
                try:
                    i = int(head)
                except ValueError:
                    i = 0
                if i == 0:  # OBJ counts from 1, or back from -1
                    raise MeshFormatError(f"{path}:{lineno}: bad face index {tok!r}")
                idx.append(i - 1 if i > 0 else len(verts) + i)
            if len(idx) < 3:
                raise MeshFormatError(f"{path}:{lineno}: face with < 3 vertices")
            for k in range(1, len(idx) - 1):  # fan triangulation
                tris.append((idx[0], idx[k], idx[k + 1]))
    if not verts or not tris:
        raise MeshFormatError(f"{path}: no geometry found")
    if min(map(min, tris)) < 0 or max(map(max, tris)) >= len(verts):
        raise MeshFormatError(f"{path}: face index out of range 1..{len(verts)}")
    return np.array(verts, dtype=np.float64), np.array(tris, dtype=np.int64)


def _load_stl_ascii(path: str, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    raw_verts = []
    count = 0
    for lineno, line in enumerate(data.decode("utf-8", errors="replace").splitlines(), 1):
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
    return raw, np.arange(len(raw), dtype=np.int64).reshape(-1, 3)


def _load_stl_binary(path: str, data: bytes) -> tuple[np.ndarray, np.ndarray]:
    if len(data) < 84:
        raise MeshFormatError(f"{path}: binary STL shorter than its header")
    count = int.from_bytes(data[80:84], "little")
    if count == 0:
        raise MeshFormatError(f"{path}: binary STL declares zero facets")
    expected = 84 + STL_RECORD.itemsize * count
    if len(data) < expected:
        raise MeshFormatError(
            f"{path}: truncated binary STL ({len(data)} bytes, expected {expected})"
        )
    records = np.frombuffer(data, dtype=STL_RECORD, count=count, offset=84)
    raw = records["corners"].astype(np.float64).reshape(-1, 3)
    return raw, np.arange(len(raw), dtype=np.int64).reshape(-1, 3)


def load_mesh(path: str) -> SurfaceMesh:
    """Load an OBJ, ASCII STL or binary STL mesh, telling them apart by content.

    A file whose length is 84 + 50 * count, count being the facet count in
    its header, is binary STL, even when the header begins with "solid" as
    some exporters write it. Any other file that begins with "solid" is
    ASCII STL. Any other ``.stl`` file is read as binary, so a truncated or
    empty one is reported as such, and everything else is read as OBJ.
    Every format is welded alike (_weld).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) == 84 + STL_RECORD.itemsize * int.from_bytes(data[80:84], "little"):
        load = _load_stl_binary
    elif data.startswith(b"solid"):
        load = _load_stl_ascii
    else:
        load = _load_stl_binary if str(path).lower().endswith(".stl") else _load_obj
    return _weld(*load(path, data))


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
    records = np.zeros(len(corners), dtype=STL_RECORD)
    records["normal"] = normals / np.where(lengths > 0, lengths, 1.0)[:, None]
    records["corners"] = corners
    with open(path, "wb") as fh:
        fh.write(b"varcap binary STL".ljust(80, b" "))
        fh.write(len(records).to_bytes(4, "little"))
        fh.write(records.tobytes())
