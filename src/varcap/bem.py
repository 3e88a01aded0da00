"""Dense Galerkin discretization of the single-layer capacitance operator.

Matrix entries are the double surface integrals of 1/(4 pi |s - t|) over
panel pairs: the inner integral uses the closed-form potential of a
uniformly charged triangle, the outer one a symmetric triangle quadrature.
Panel pairs that touch (shared edge or vertex) and the diagonal use
refined outer rules graded toward the shared feature, so the recorded
pre-symmetrization asymmetry stays at round-off scale.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

from .errors import AssemblyError, DegenerateTriangleError, VarcapError
from .geometry import PanelSystem

__all__ = [
    "QuadratureRule",
    "GalerkinSystem",
    "SpdReport",
    "triangle_rule",
    "triangle_potential",
    "triangle_potentials",
    "assemble",
    "spd_check",
    "DEFAULT_QUAD_ORDER",
]

FOUR_PI = 4.0 * math.pi

DEFAULT_QUAD_ORDER = 4

# Near-field outer quadrature: refinement depths for touching panel pairs
# and the diagonal, and the centroid-distance factor defining the near ring.
# Refined leaves always use the degree-8 rule; the singular inner integral is
# analytic, so only the outer rule limits accuracy.
#
# The depths are sized to a quadrature budget of |dC/C| <= 1e-7, far below
# the discretization error (1.1% on a 320-panel icosphere), so the Galerkin
# value keeps its lower-bound meaning. Against depths one to four levels
# deeper (edge 6, vertex 8, near 2, near factor 3.0), C moves by at most
# 5.7e-8 on spheres, cubes and an ellipsoid, while sphere4's near-field work
# falls from 2.2e8 to 4.3e7 kernel evaluations. The singular-entry oracles
# in tests/test_bem.py pin the self and edge depths: self depth 3 gives rel
# error 3.4e-6 (depth 2: 1.4e-5, over the 1e-5 bound), edge depth 4 gives
# 4.7e-7 (depth 3: 2.0e-6, over the 1e-6 bound).
EDGE_DEPTH = 4
VERTEX_DEPTH = 4
SELF_DEPTH = 3
NEAR_DEPTH = 1
NEAR_FACTOR = 2.0


@dataclass(frozen=True)
class QuadratureRule:
    """Symmetric triangle rule in barycentric coordinates.

    All weights are positive and sum to 1; ``degree`` is the highest
    polynomial degree integrated exactly.
    """

    name: str
    degree: int
    points: np.ndarray   # (k, 3) barycentric
    weights: np.ndarray  # (k,)

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        wts = np.ascontiguousarray(self.weights, dtype=np.float64)
        if np.any(wts <= 0):
            raise VarcapError(f"rule {self.name}: weights must be positive")
        if np.any(pts < 0) or np.any(pts > 1):
            raise VarcapError(f"rule {self.name}: barycentric points outside [0, 1]")
        if abs(wts.sum() - 1.0) > 1e-13 or np.max(np.abs(pts.sum(axis=1) - 1.0)) > 1e-13:
            raise VarcapError(f"rule {self.name}: weights/coordinates not normalized")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        pts.setflags(write=False)
        wts.setflags(write=False)


def _perm3(a: float) -> list[tuple[float, float, float]]:
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _perm6(a: float, b: float) -> list[tuple[float, float, float]]:
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (b, c, a), (a, b, c), (b, a, c)]


def _make_rule(name, degree, groups):
    pts, wts = [], []
    for kind, w, params in groups:
        if kind == "c":
            new = [(1 / 3, 1 / 3, 1 / 3)]
        elif kind == "p3":
            new = _perm3(params[0])
        else:
            new = _perm6(*params)
        pts.extend(new)
        wts.extend([w] * len(new))
    wts = np.array(wts)
    wts /= wts.sum()  # published tables carry ~15 digits; enforce exact sum
    return QuadratureRule(name, degree, np.array(pts), wts)


def _build_rules() -> dict[int, QuadratureRule]:
    centroid = _make_rule("centroid-1pt", 1, [("c", 1.0, ())])
    deg2 = _make_rule("symmetric-3pt", 2, [("p3", 1 / 3, (1 / 6,))])
    deg4 = _make_rule(
        "dunavant-6pt",
        4,
        [
            ("p3", 0.223381589678011, (0.445948490915965,)),
            ("p3", 0.109951743655322, (0.091576213509771,)),
        ],
    )
    deg5 = _make_rule(
        "symmetric-7pt",
        5,
        [
            ("c", 0.225, ()),
            ("p3", 0.132394152788506, (0.470142064105115,)),
            ("p3", 0.125939180544827, (0.101286507323456,)),
        ],
    )
    deg6 = _make_rule(
        "dunavant-12pt",
        6,
        [
            ("p3", 0.116786275726379, (0.249286745170910,)),
            ("p3", 0.050844906370207, (0.063089014491502,)),
            ("p6", 0.082851075618374, (0.310352451033785, 0.053145049844816)),
        ],
    )
    # Coefficients refined to full double precision by Newton iteration on
    # the monomial moment equations (max residual < 1e-17 over degree <= 8).
    deg8 = _make_rule(
        "dunavant-16pt",
        8,
        [
            ("c", 0.14431560767783075, ()),
            ("p3", 0.09509163426725455, (0.4592925882927538,)),
            ("p3", 0.10321737053472357, (0.17056930775179285,)),
            ("p3", 0.03245849762319533, (0.050547228317030866,)),
            ("p6", 0.027230314174441484, (0.2631128296345476, 0.008394777409990272)),
        ],
    )
    # Orders 3 and 4 both map to the 6-point rule: the 4-point degree-3
    # rule has a negative weight, which we exclude by construction.
    return {1: centroid, 2: deg2, 3: deg4, 4: deg4, 5: deg5, 6: deg6, 7: deg8}


_RULES = _build_rules()


def triangle_rule(order: int) -> QuadratureRule:
    """Smallest positive-weight symmetric rule for the requested order (1..7)."""
    rule = _RULES.get(int(order))
    if rule is None:
        raise VarcapError(f"quadrature order must be in 1..7, got {order}")
    return rule


# ---------------------------------------------------------------------------
# Analytic potential of a uniformly charged triangle
# ---------------------------------------------------------------------------

def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _potential_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Batched closed-form potential: points (P, K, 3), tris (P, 3, 3) -> (P, K).

    No degeneracy checks; callers validate triangles first.
    """
    e1 = tris[:, 1, :] - tris[:, 0, :]
    e2 = tris[:, 2, :] - tris[:, 0, :]
    nvec = _cross_rows(e1, e2)
    two_area = np.sqrt(np.einsum("pd,pd->p", nvec, nvec))
    n = nvec / two_area[:, None]                       # (P, 3)

    r_vec = points[:, :, None, :] - tris[:, None, :, :]  # (P, K, 3, 3)
    r = np.sqrt(np.einsum("pkcd,pkcd->pkc", r_vec, r_vec))

    total = np.zeros(points.shape[:2])
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        edge = tris[:, k2, :] - tris[:, k1, :]
        length = np.sqrt(np.einsum("pd,pd->p", edge, edge))[:, None]
        ra = r[:, :, k1]
        rb = r[:, :, k2]
        # Stable edge integral of 1/r along the segment; the denominator
        # vanishes only for points on the segment, where the prefactor
        # (twice the projected area) vanishes as well.
        denom = np.maximum(ra + rb - length, 1e-300)
        gamma = np.log((ra + rb + length) / denom) / length
        pref = np.einsum(
            "pkd,pd->pk", _cross_rows(r_vec[:, :, k1, :], r_vec[:, :, k2, :]), n
        )
        total += pref * gamma

    # Solid angle (van Oosterom-Strackee); explicit triple product keeps
    # mirror symmetry across the triangle plane bitwise exact.
    stp = np.einsum(
        "pkd,pkd->pk",
        r_vec[:, :, 0, :],
        _cross_rows(r_vec[:, :, 1, :], r_vec[:, :, 2, :]),
    )
    denom_sa = r[:, :, 0] * r[:, :, 1] * r[:, :, 2]
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        denom_sa = denom_sa + np.einsum(
            "pkd,pkd->pk", r_vec[:, :, k1, :], r_vec[:, :, k2, :]
        ) * r[:, :, k]
    omega = 2.0 * np.arctan2(stp, denom_sa)

    h = np.einsum("pkd,pd->pk", r_vec[:, :, 0, :], n)
    return total - h * omega


def triangle_potentials(points, corners) -> np.ndarray:
    """Closed-form integral of 1/|x - s| over a planar triangle, unit density.

    Evaluates at many points at once; finite for all evaluation points,
    including points on the triangle (edge and vertex limits).
    """
    pts = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    v = np.ascontiguousarray(np.asarray(corners, dtype=np.float64).reshape(3, 3))
    nvec = _cross_rows(v[1] - v[0], v[2] - v[0])
    two_area = math.sqrt(float(nvec @ nvec))
    scale = max(float(np.max(np.abs(v))), 1.0)
    if two_area <= 1e-14 * scale * scale:
        raise DegenerateTriangleError([0], "triangle is degenerate (zero area)")
    return _potential_batch(pts[None, :, :], v[None, :, :])[0]


def triangle_potential(point, corners) -> float:
    """Scalar wrapper around :func:`triangle_potentials`."""
    return float(triangle_potentials(np.asarray(point, dtype=np.float64)[None, :], corners)[0])


# ---------------------------------------------------------------------------
# Graded outer rules for touching panel pairs
# ---------------------------------------------------------------------------

def _subdivide_bary(tri: np.ndarray) -> list[np.ndarray]:
    m01 = 0.5 * (tri[0] + tri[1])
    m12 = 0.5 * (tri[1] + tri[2])
    m20 = 0.5 * (tri[2] + tri[0])
    return [
        np.array([tri[0], m01, m20]),
        np.array([tri[1], m12, m01]),
        np.array([tri[2], m20, m12]),
        np.array([m01, m12, m20]),
    ]


def _graded_rule(base: QuadratureRule, touch, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Refined rule (barycentric points, weights) graded toward a feature.

    ``touch(tri)`` decides whether a barycentric subtriangle still touches
    the singular feature and needs further subdivision.
    """
    leaves: list[tuple[np.ndarray, float]] = []

    def rec(tri, frac, d):
        if d == 0 or not touch(tri):
            leaves.append((tri, frac))
            return
        for child in _subdivide_bary(tri):
            rec(child, frac / 4.0, d - 1)

    rec(np.eye(3), 1.0, depth)
    pts = np.concatenate([base.points @ tri for tri, _ in leaves])
    wts = np.concatenate([base.weights * frac for _, frac in leaves])
    return pts, wts


def _touch_edge01(tri: np.ndarray) -> bool:
    # The root edge between local vertices 0 and 1 lies in {bary[2] == 0}.
    # Any corner on that line (segment or single point) keeps the error
    # from plateauing, so grade as soon as one corner touches.
    return bool(np.any(tri[:, 2] == 0.0))


def _touch_vertex0(tri: np.ndarray) -> bool:
    return bool(np.any(np.all(tri == np.array([1.0, 0.0, 0.0]), axis=1)))


_graded_cache: dict[str, dict[str, tuple[np.ndarray, np.ndarray]]] = {}


def _refined_rules() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Near-field outer rules, graded on the degree-8 leaf rule."""
    cached = _graded_cache.get("near")
    if cached is None:
        leaf = _RULES[7]
        cached = {
            "self": _graded_rule(leaf, lambda tri: True, SELF_DEPTH),
            "edge": _graded_rule(leaf, _touch_edge01, EDGE_DEPTH),
            "vertex": _graded_rule(leaf, _touch_vertex0, VERTEX_DEPTH),
            "near": _graded_rule(leaf, lambda tri: True, NEAR_DEPTH),
        }
        _graded_cache["near"] = cached
    return cached


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GalerkinSystem:
    """Dense symmetric Galerkin matrix with panel areas and diagnostics.

    ``asymmetry_norm`` is max|M - M^T| recorded before the final
    symmetrization ``M <- (M + M^T)/2``.
    """

    matrix: np.ndarray
    areas: np.ndarray
    total_area: float
    asymmetry_norm: float
    centroids: np.ndarray

    @property
    def n(self) -> int:
        return len(self.areas)


def _touching_pairs(corners: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Unordered panel pairs sharing vertices, mapped to shared corner slots.

    Returns {(i, j): [ai, aj, ...]} where the value lists, for each shared
    vertex, its local corner index in panel i and in panel j (flattened
    pairs). Vertices are matched bitwise, which is exact for panels built
    from one mesh vertex array.
    """
    by_vertex: dict[bytes, list[tuple[int, int]]] = {}
    m = len(corners)
    for i in range(m):
        for a in range(3):
            by_vertex.setdefault(corners[i, a].tobytes(), []).append((i, a))
    pairs: dict[tuple[int, int], list[int]] = {}
    for slots in by_vertex.values():
        if len(slots) < 2:
            continue
        for x in range(len(slots)):
            i, a = slots[x]
            for y in range(x + 1, len(slots)):
                j, b = slots[y]
                if i == j:
                    continue
                key = (i, j) if i < j else (j, i)
                val = (a, b) if i < j else (b, a)
                pairs.setdefault(key, []).extend(val)
    return pairs


_EDGE_PERMS = {
    (0, 1): (0, 1, 2), (1, 0): (1, 0, 2),
    (0, 2): (0, 2, 1), (2, 0): (2, 0, 1),
    (1, 2): (1, 2, 0), (2, 1): (2, 1, 0),
}

_IDENTITY_PERM = (0, 1, 2)


def _apply_corrections(matrix, corners, areas, rows, perms, srcs, pts_bary, wts):
    """Overwrite entries (rows, srcs) using a refined outer rule.

    ``perms`` permutes each outer triangle's corners so the shared feature
    sits where the graded rule expects it. Chunked to about 50k quadrature
    points so the numpy kernel's (points, 3, 3) temporaries stay in cache:
    on a 2-core x86 box, sphere3 assembly took a median 8.6 s with these
    chunks and 12.5 s with 2M-point ones (10 alternating pairs).
    """
    if not len(rows):
        return
    rows = np.asarray(rows, dtype=np.intp)
    srcs = np.asarray(srcs, dtype=np.intp)
    perms = np.asarray(perms, dtype=np.intp)
    k = len(wts)
    chunk = max(1, 50_000 // k)
    for s in range(0, len(rows), chunk):
        r = rows[s : s + chunk]
        src = srcs[s : s + chunk]
        outer = np.ascontiguousarray(corners[r[:, None], perms[s : s + chunk]])
        tris = np.ascontiguousarray(corners[src])
        pts = np.einsum("qk,pkd->pqd", pts_bary, outer)
        vals = _potential_batch(pts, tris) @ wts
        matrix[r, src] = areas[r] * vals


def assemble(
    panels: PanelSystem,
    rule: QuadratureRule | None = None,
    workers: int = 1,
) -> GalerkinSystem:
    """Assemble the dense Galerkin matrix of the single-layer operator.

    Entry (i, j) approximates the double integral of 1/(4 pi |s - t|) over
    panels i and j. The result is bitwise independent of ``workers``: the
    per-entry quadrature sums use a fixed point order and each entry is
    written exactly once.
    """
    if rule is None:
        rule = triangle_rule(DEFAULT_QUAD_ORDER)
    corners = panels.corners
    areas = panels.areas
    m = panels.n_panels
    nq = len(rule.weights)

    bary = rule.points
    outer_pts = np.einsum("qk,mkd->mqd", bary, corners).reshape(m * nq, 3)
    matrix = np.empty((m, m))

    def fill_columns(j0, j1):
        for j in range(j0, j1):
            pot = triangle_potentials(outer_pts, corners[j]).reshape(m, nq)
            matrix[:, j] = areas * (pot @ rule.weights)

    workers = max(1, int(workers))
    if workers == 1 or m < 2 * workers:
        fill_columns(0, m)
    else:
        bounds = np.linspace(0, m, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(fill_columns, bounds[k], bounds[k + 1])
                for k in range(workers)
            ]
            for fut in futures:
                fut.result()

    # Near field: the diagonal, touching pairs (graded toward the shared
    # feature) and the near ring all get refined outer rules.
    refined = _refined_rules()
    tasks: dict[str, tuple] = {name: ([], [], []) for name in ("edge", "vertex")}

    touching = _touching_pairs(corners)
    for (i, j), slots in touching.items():
        local_i = slots[0::2]
        local_j = slots[1::2]
        if len(local_i) >= 2:
            case = "edge"
            perm_i = _EDGE_PERMS[(local_i[0], local_i[1])]
            perm_j = _EDGE_PERMS[(local_j[0], local_j[1])]
        else:
            case = "vertex"
            perm_i = _EDGE_PERMS[(local_i[0], (local_i[0] + 1) % 3)]
            perm_j = _EDGE_PERMS[(local_j[0], (local_j[0] + 1) % 3)]
        rows, perms, srcs = tasks[case]
        rows += [i, j]
        perms += [perm_i, perm_j]
        srcs += [j, i]

    # Near ring: non-touching pairs closer than NEAR_FACTOR panel radii. The
    # set's iteration order (fixed for integer pairs) sets each entry's place
    # in the correction chunks, and BLAS rounds a row's weighted sum by its
    # place. Distances are dot products: cube pairs sit exactly on the
    # cut-off, so the rounding decides their side.
    centroids = panels.centroids
    radii = np.max(np.linalg.norm(corners - centroids[:, None, :], axis=2), axis=1)
    pairs = np.array(
        list(cKDTree(centroids).query_pairs(NEAR_FACTOR * 2.0 * float(radii.max()))),
        dtype=np.int64,
    ).reshape(-1, 2)
    touching_keys = np.array([i * m + j for i, j in touching], dtype=np.int64)
    pairs = pairs[~np.isin(pairs[:, 0] * m + pairs[:, 1], touching_keys)]
    diff = centroids[pairs[:, 0]] - centroids[pairs[:, 1]]
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    i, j = pairs[dist < NEAR_FACTOR * (radii[pairs[:, 0]] + radii[pairs[:, 1]])].T
    rows = np.column_stack([i, j]).ravel()
    srcs = np.column_stack([j, i]).ravel()
    tasks["near"] = (rows, np.tile(_IDENTITY_PERM, (len(rows), 1)), srcs)

    diag = np.arange(m)
    tasks["self"] = (diag, np.tile(_IDENTITY_PERM, (m, 1)), diag)
    for case in ("self", "edge", "vertex", "near"):
        rows, perms, srcs = tasks[case]
        pts, wts = refined[case]
        _apply_corrections(matrix, corners, areas, rows, perms, srcs, pts, wts)

    matrix /= FOUR_PI

    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        i, j = bad[0]
        raise AssemblyError(f"non-finite matrix entry for panel pair ({i}, {j})")

    asym = float(np.max(np.abs(matrix - matrix.T))) if m > 1 else 0.0
    matrix = 0.5 * (matrix + matrix.T)
    matrix.setflags(write=False)
    return GalerkinSystem(matrix, areas, panels.total_area, asym, panels.centroids)


# ---------------------------------------------------------------------------
# SPD diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpdReport:
    min_eigenvalue: float
    cholesky_succeeded: bool


def spd_check(system: GalerkinSystem) -> SpdReport:
    """Cholesky success plus the exact smallest eigenvalue.

    The eigenvalue comes from a dense symmetric eigensolver whether or not
    the factorization succeeds, so it is exact to round-off either way; a
    failed factorization (matrix not SPD within round-off) is a result.
    """
    mat = system.matrix
    try:
        scipy.linalg.cho_factor(mat, lower=True)
        succeeded = True
    except scipy.linalg.LinAlgError:
        succeeded = False
    lam = scipy.linalg.eigh(mat, eigvals_only=True, subset_by_index=[0, 0])[0]
    return SpdReport(float(lam), succeeded)
