"""Dense Galerkin discretization of the single-layer capacitance operator.

Matrix entries are the double surface integrals of 1/(4 pi |s - t|) over
panel pairs. The far field applies one fixed rule, FAR_RULE (Dunavant's
6-point degree-4 rule), to both panels (Sauter & Schwab, Boundary Element
Methods, 2011, ch. 5). The diagonal has a closed form. Touching pairs
(shared edge or vertex) and the near ring, found by one KD-tree query, use
the closed-form potential of a uniformly charged triangle inside and a
collapsed tensor Gauss rule, graded toward the shared feature, outside.
Every entry is written once, divided by 4 pi, into the upper triangle:
the far field and the near ring evaluate each pair (i, j), i < j, once;
touching pairs are evaluated in both directions, whose difference is
recorded before the mean is written. One mirror then copies the upper
triangle to the lower, so A_h is exactly symmetric. No kernel call takes
more than POINTS_PER_CALL points, no far-field tile nq times as many pairs.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.spatial import cKDTree

from .errors import AssemblyError, DegenerateTriangleError
from .geometry import PanelSystem, _checked_areas

__all__ = [
    "ClassStats",
    "GalerkinSystem",
    "SpdReport",
    "triangle_potential",
    "triangle_potentials",
    "assemble",
    "spd_check",
]

FOUR_PI = 4.0 * math.pi

# Quadrature rules, all sized to one budget of |dC/C| <= 1e-7, far below the
# discretization error. The far field applies FAR_RULE, Dunavant's 6-point
# rule (IJNME 21, 1985), to both panels of a pair; the degree-8 rule on both
# panels in its place moves C by at most 8.8e-9 (sphere3). Near the
# diagonal the inner integral is analytic, so only the outer rule limits an
# entry's accuracy. Diagonal entries have a closed form (_self_integrals).
# Touching pairs and the near ring (other pairs whose centroids are closer
# than NEAR_FACTOR times the sum of the panel radii) use a tensor
# Gauss-Legendre rule on the outer triangle, collapsed at one corner
# (Duffy), with radial nodes s(sigma) graded toward the shared feature.
# Edge and vertex pairs are evaluated in both directions and averaged, as
# their two directions differ by the rule's error; a near-ring pair (i, j),
# i < j, is evaluated once with panel i as the outer triangle and mirrored,
# which moves C by at most 1.5e-12 relative on sphere3, cube8 and the 2:1:1
# ellipsoid (per-entry asymmetry at most 1.6e-8 there).
#
#   class   collapsed at   s(sigma)           nodes  degree  max entry error
#   far     symmetric      -                  6      4
#   edge    corner 2       1 - (1 - sigma)^3  10x10  4       1.1e-7
#   vertex  shared corner  sigma^2             8x8   6       5.7e-8
#   near    corner 0       sigma               8x8   14
#
# Entry errors are relative, against a deep hp-graded reference
# (tests/test_bem.py), over edge pairs from flat to 90 degrees with aspect
# ratios up to 5 and vertex pairs at least 15 degrees apart. Beyond that they
# grow: aspect 10 about 1e-6, a 10-degree fold 6e-6, a 5-degree vertex gap
# 2.6e-7. With every near rule at twice the nodes and NEAR_FACTOR 3, C moves
# by at most 1.0e-8 on sphere1-3, cube2-8 and a 2:1:1 ellipsoid.
_W = np.repeat([0.223381589678011, 0.109951743655322], 3)
FAR_RULE = (
    # (degree, barycentric points, weights)
    4,
    np.array([np.roll([1.0 - 2.0 * a, a, a], k)
              for a in (0.445948490915965, 0.091576213509771) for k in range(3)]),
    _W / _W.sum(),  # the published table carries ~15 digits; enforce an exact sum
)
NEAR_RULES = {
    # class: (collapsed corner, nodes per direction, sigma -> (s, ds/dsigma))
    "edge": (2, 10, lambda x: (1.0 - (1.0 - x) ** 3, 3.0 * (1.0 - x) ** 2)),
    "vertex": (0, 8, lambda x: (x * x, 2.0 * x)),
    "near": (0, 8, lambda x: (x, np.ones_like(x))),
}
NEAR_FACTOR = 2.0

# Evaluation points per _potential_batch call. The kernel keeps 17
# temporaries of this many doubles, 2.2 MB at 16k, about one 2 MB L2 cache.
# On a 2-core x86 VM, 16k against 50k ran each class 11-21% faster (sphere3
# near ring 0.175 -> 0.144 s, cube8 vertex 0.072 -> 0.058 s); 4k, 8k and 32k
# were slower than 16k.
POINTS_PER_CALL = 16_384

# Far-field tiles of FAR_ROWS panel rows: sphere3's far field took 0.23,
# 0.21, 0.24 and 0.32 s with 1, 2, 4 and 8. Mirroring in 32 kB squares of
# MIRROR_BLOCK rows copied sphere4's matrix in 77 ms, against 190-210 ms
# row by column.
FAR_ROWS = 2
MIRROR_BLOCK = 64


# ---------------------------------------------------------------------------
# Analytic potential of a uniformly charged triangle
# ---------------------------------------------------------------------------

def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis; np.cross (numpy 2.4) costs ~40 us a call."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _dot3(a, b, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = a[0] b[0] + a[1] b[1] + a[2] b[2], in place, for component arrays."""
    np.multiply(a[0], b[0], out=out)
    out += np.multiply(a[1], b[1], out=tmp)
    out += np.multiply(a[2], b[2], out=tmp)
    return out


def _potential_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Batched closed-form potential: points (3, P, K), tris (P, 3, 3) -> (P, K).

    Points are component-major, so every per-point temporary is a contiguous
    (P, K) array; points (3, 1, K) are shared by all P triangles. Triangles
    are not checked here: a degenerate one gives non-finite values, so
    callers pass triangles that PanelSystem or triangle_potentials has
    validated. n is the unit normal; for the edge e_k = v_k2 - v_k1 opposite
    corner k, edge_normal is the unit in-plane edge normal n x e_k / |e_k|.
    As r_k2 = r_k1 - e_k, the edge prefactor (r_k1 x r_k2) . n equals
    r_k1 . (n x e_k). Squared norms are summed component by component, so a
    triangle's terms do not depend on how many triangles are passed with it.
    """
    edges = tris[:, [2, 0, 1]] - tris[:, [1, 2, 0]]
    nvec = _cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    n = nvec / np.sqrt(nvec[..., 0] ** 2 + nvec[..., 1] ** 2 + nvec[..., 2] ** 2)[:, None]
    length = np.sqrt(edges[..., 0] ** 2 + edges[..., 1] ** 2 + edges[..., 2] ** 2)
    edge_normal = _cross(n[:, None, :], edges) / length[:, :, None]
    shape = np.broadcast_shapes(points.shape[1:], (len(tris), 1))
    r = [[points[d] - tris[:, c, d, None] for d in range(3)] for c in range(3)]
    tmp, s, num, pref = (np.empty(shape) for _ in range(4))
    dist = [_dot3(rc, rc, np.empty(shape), tmp) for rc in r]
    for sq in dist:
        np.sqrt(sq, out=sq)

    total = np.zeros(shape)
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        ell = length[:, k, None]
        # Stable edge integral of 1/r along the segment; the denominator
        # vanishes only for points on the segment, where the prefactor
        # (twice the projected area) vanishes as well.
        np.add(dist[k1], dist[k2], out=s)
        np.add(s, ell, out=num)
        s -= ell
        np.maximum(s, 1e-300, out=s)
        num /= s
        np.log(num, out=num)
        num *= _dot3(r[k1], edge_normal[:, k].T[:, :, None], pref, tmp)
        total += num

    # Solid angle (van Oosterom-Strackee); explicit triple product keeps
    # mirror symmetry across the triangle plane bitwise exact.
    for a, b, cross in ((1, 2, s), (2, 0, num), (0, 1, pref)):
        np.multiply(r[1][a], r[2][b], out=cross)
        cross -= np.multiply(r[1][b], r[2][a], out=tmp)
    stp = _dot3(r[0], (s, num, pref), s, tmp)
    denom = np.multiply(dist[0], dist[1], out=pref)
    denom *= dist[2]
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        _dot3(r[k1], r[k2], num, tmp)
        num *= dist[k]
        denom += num
    half_omega = np.arctan2(stp, denom, out=stp)

    # h * omega, with the exact factor 2 of omega moved onto the normal.
    two_h = _dot3(r[0], (2.0 * n).T[:, :, None], num, tmp)
    two_h *= half_omega
    total -= two_h
    return total


def triangle_potentials(points, corners) -> np.ndarray:
    """Closed-form integral of 1/|x - s| over a planar triangle, unit density.

    Evaluates at many points at once; finite for all evaluation points,
    including points on the triangle (edge and vertex limits). Raises
    DegenerateTriangleError for a degenerate triangle.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    v = np.asarray(corners, dtype=np.float64).reshape(1, 3, 3)
    _checked_areas(v)
    return _potential_batch(np.ascontiguousarray(pts.T)[:, None, :], v)[0]


def triangle_potential(point, corners) -> float:
    """Scalar wrapper around :func:`triangle_potentials`."""
    return float(triangle_potentials(np.asarray(point, dtype=np.float64)[None, :], corners)[0])


# ---------------------------------------------------------------------------
# Quadrature rules by class and the closed-form diagonal
# ---------------------------------------------------------------------------

def _duffy_rule(corner: int, nodes: int, grade) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule (barycentric points, weights) collapsed at a corner.

    The triangle is the image of the unit square under (s, t) -> corner
    weight 1 - s, next corners s (1 - t) and s t, with area element 2 s ds dt;
    s = grade(sigma) moves the nodes toward s = 0 (the corner) or s = 1 (the
    opposite edge).
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    s, ds = grade(x)
    s, t = s[:, None], x[None, :]
    pts = np.empty((nodes, nodes, 3))
    pts[..., corner] = 1.0 - s
    pts[..., (corner + 1) % 3] = s * (1.0 - t)
    pts[..., (corner + 2) % 3] = s * t
    wts = 2.0 * s * (ds * w)[:, None] * w[None, :]
    return pts.reshape(-1, 3), wts.ravel()


def _rules() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """(Barycentric points, weights) by class: FAR_RULE's, and NEAR_RULES' built."""
    return {"far": FAR_RULE[1:], **{name: _duffy_rule(*spec) for name, spec in NEAR_RULES.items()}}


def _self_integrals(corners: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Closed-form integral of 1/|s - t| over each panel times itself.

    (4 A^2 / 3) sum over sides l of ln(P / (P - 2 l)) / l, with P the
    perimeter (Arcioni, Bressan & Perregrini, IEEE T-MTT 45(3), 1997);
    P - 2 l is taken as the difference of the other two sides' sum and l.
    """
    sides = np.sqrt(np.sum((corners[:, [1, 2, 0]] - corners[:, [2, 0, 1]]) ** 2, axis=2))
    a, b, c = sides.T
    rest = np.column_stack([b + c - a, c + a - b, a + b - c])
    perimeter = (a + b + c)[:, None]
    return (4.0 / 3.0) * areas**2 * np.sum(np.log(perimeter / rest) / sides, axis=1)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassStats:
    """Assembly work of one entry class: far, self, edge, vertex or near."""

    entries: int
    points: int      # kernel evaluations per entry: 6 x 6 for far, 0 for self
    seconds: float


@dataclass(frozen=True)
class GalerkinSystem:
    """Dense symmetric Galerkin matrix with panel areas and diagnostics.

    ``assembly`` maps each entry class to its work. Assembly writes the
    upper triangle and mirrors it once. The far field and the near ring
    compute each pair (i, j), i < j, once, so their entries count pairs;
    the edge and vertex classes compute both directions of each pair and
    count both. Edge, vertex and near entries overwrite the far field's.
    ``asymmetry_norm`` is the largest difference between the two
    directions of an edge or vertex pair, whose mean ``(M_ij + M_ji) / 2``
    is the entry; every other entry has one value.
    """

    matrix: np.ndarray
    areas: np.ndarray
    total_area: float
    asymmetry_norm: float
    centroids: np.ndarray
    assembly: dict[str, ClassStats] = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.areas)


def _refined_pairs(corners: np.ndarray, centroids: np.ndarray) -> dict:
    """Pairs (i, j), i < j, that take a refined outer rule, by class.

    One KD-tree query finds the pairs whose centroids are closer than
    NEAR_FACTOR (r_i + r_j), r a panel's largest centroid-to-corner
    distance, which include every pair sharing a corner. Many cube pairs sit
    exactly on the cut-off, so it carries a relative slack of 1e-9: otherwise
    rounding decides their side on a translated or scaled copy. Corners
    match by value (exact for panels built from one mesh vertex array); two
    shared make an "edge" pair, one a "vertex" pair, none a "near" one, and
    three a duplicate panel, which raises DegenerateTriangleError. "edge" and
    "vertex" give (i, j, perm_i, perm_j), each perm rotating its panel's
    corners so the shared vertex comes first or the unshared corner last;
    "near" gives (i, j).
    """
    m = len(corners)
    cut = NEAR_FACTOR * (1.0 + 1e-9)
    radii = np.max(np.linalg.norm(corners - centroids[:, None, :], axis=2), axis=1)
    pairs = cKDTree(centroids).query_pairs(cut * 2.0 * float(radii.max()), output_type="ndarray")
    diff = centroids[pairs[:, 0]] - centroids[pairs[:, 1]]
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    i, j = pairs[dist < cut * (radii[pairs[:, 0]] + radii[pairs[:, 1]])].T
    ids = np.unique(corners.reshape(-1, 3), axis=0, return_inverse=True)[1].reshape(m, 3)
    on = ids[i][:, :, None] == ids[j][:, None, :]
    count = on.sum(axis=(1, 2))
    if np.any(count == 3):
        k = np.argmax(count == 3)
        raise DegenerateTriangleError([int(i[k]), int(j[k])], f"duplicate panels {i[k]} and {j[k]}")
    classes = {"near": (i[count == 0], j[count == 0])}
    for name, edge in (("edge", True), ("vertex", False)):
        sel = count == (2 if edge else 1)
        both = on[sel]
        # The first corner is the shared one, or the one after the unshared one.
        perm_i, perm_j = (
            (np.nonzero(shared != edge)[1][:, None] + np.arange(3) + edge) % 3
            for shared in (both.any(axis=2), both.any(axis=1))
        )
        classes[name] = (i[sel], j[sel], perm_i, perm_j)
    return classes


def _refined_entries(corners, areas, rows, srcs, perms, pts_bary, wts) -> np.ndarray:
    """Entries (rows, srcs), divided by 4 pi, from a refined outer rule.

    ``perms`` permutes each outer triangle's corners so the shared feature
    sits where the graded rule expects it; None keeps them. Each entry's
    weighted sum is a row sum of its own values, so it does not depend on
    the entry's place in a chunk or on the order of the pairs. Each kernel
    call takes a chunk of pairs with at most POINTS_PER_CALL outer points.
    """
    out = np.empty(len(rows))
    chunk = max(1, POINTS_PER_CALL // len(wts))
    for s in range(0, len(rows), chunk):
        r = rows[s : s + chunk]
        outer = corners[r] if perms is None else corners[r[:, None], perms[s : s + chunk]]
        pts = outer.transpose(2, 0, 1) @ pts_bary.T
        vals = _potential_batch(pts, corners[srcs[s : s + chunk]])
        vals *= wts
        out[s : s + chunk] = areas[r] * vals.sum(axis=1)
    return out / FOUR_PI


def _far_tile(matrix, points, areas, weights, r0, r1, c0, c1, scratch):
    """Write the far entries (i, j), r0 <= i < r1, max(i + 1, c0) <= j < c1.

    Entry (i, j) is a_i a_j sum_pq w_p w_q / (4 pi |x_p - y_q|) over the
    rule's points on panels i and j, taken from ``points`` (3, m nq);
    ``scratch`` holds two tiles of doubles. Distances come from coordinate
    differences, as |x|^2 + |y|^2 - 2 x.y cancels. Coincident points, as on
    overlapping panels, give inf, which assemble rejects.
    """
    nq = len(weights)
    x, y = points[:, r0 * nq : r1 * nq, None], points[:, None, c0 * nq : c1 * nq]
    shape = (x.shape[1], y.shape[2])
    d, t = (a[: shape[0] * shape[1]].reshape(shape) for a in scratch)
    np.square(np.subtract(x[0], y[0], out=d), out=d)
    for k in (1, 2):
        d += np.square(np.subtract(x[k], y[k], out=t), out=t)
    with np.errstate(divide="ignore"):
        np.divide(1.0, np.sqrt(d, out=d), out=d)
    vals = (weights @ d.reshape(r1 - r0, nq, -1)).reshape(r1 - r0, c1 - c0, nq) @ weights
    vals *= areas[r0:r1, None] * areas[c0:c1]
    vals /= FOUR_PI
    for i in range(r0, r1):
        matrix[i, max(i + 1, c0) : c1] = vals[i - r0, max(i + 1 - c0, 0) :]


def assemble(panels: PanelSystem, workers: int = 1) -> GalerkinSystem:
    """Assemble the dense Galerkin matrix of the single-layer operator.

    Entry (i, j) approximates the double integral of 1/(4 pi |s - t|) over
    panels i and j. The result is bitwise independent of ``workers``: the
    per-entry quadrature sums use a fixed point order and each entry is
    written exactly once. Raises DegenerateTriangleError for two panels with
    the same corners, before any entry is computed.
    """
    corners = panels.corners
    areas = panels.areas
    m = panels.n_panels
    rules = _rules()
    far_points, far_weights = rules["far"]
    nq = len(far_weights)
    stats: dict[str, ClassStats] = {}
    refined = _refined_pairs(corners, panels.centroids)

    # Far field, once per pair (i, j), i < j: tiles of FAR_ROWS panel rows
    # against runs of columns j >= r0, at most nq * POINTS_PER_CALL point
    # pairs each, which depend on m and nq alone. Worker k takes every
    # workers-th tile from tile k; the calling thread is worker 0, as each
    # pool thread's malloc arena keeps its peak after the pool ends.
    start = time.perf_counter()
    points = (corners.transpose(2, 0, 1) @ far_points.T).reshape(3, m * nq)
    run = max(1, POINTS_PER_CALL // (FAR_ROWS * nq))
    tiles = [(r0, c0) for r0 in range(0, m, FAR_ROWS) for c0 in range(r0, m, run)]
    matrix = np.empty((m, m))
    workers = max(1, min(int(workers), len(tiles)))

    def fill_share(k):
        scratch = np.empty((2, FAR_ROWS * nq * run * nq))
        for r0, c0 in tiles[k::workers]:
            r1, c1 = min(m, r0 + FAR_ROWS), min(m, c0 + run)
            _far_tile(matrix, points, areas, far_weights, r0, r1, c0, c1, scratch)

    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        shares = pool.map(fill_share, range(1, workers))
        fill_share(0)
        list(shares)
    stats["far"] = ClassStats(m * (m - 1) // 2, nq * nq, time.perf_counter() - start)

    start = time.perf_counter()
    diag = np.arange(m)
    matrix[diag, diag] = _self_integrals(corners, areas) / FOUR_PI
    stats["self"] = ClassStats(m, 0, time.perf_counter() - start)

    # Refined pairs overwrite the far field's (i, j), i < j. A near-ring
    # pair takes one direction, panel i outer; an edge or vertex pair the
    # mean of both, whose difference is asymmetry_norm.
    asym = 0.0
    for case in ("edge", "vertex", "near"):
        start = time.perf_counter()
        pts, wts = rules[case]
        i, j, *perms = refined[case]
        if perms:
            rows, srcs = np.concatenate([i, j]), np.concatenate([j, i])
            vals = _refined_entries(corners, areas, rows, srcs, np.concatenate(perms), pts, wts)
            forward, backward = vals[: len(i)], vals[len(i) :]
            asym = max(asym, float(np.max(np.abs(forward - backward), initial=0.0)))
            matrix[i, j] = 0.5 * (forward + backward)
        else:
            matrix[i, j] = vals = _refined_entries(corners, areas, i, j, None, pts, wts)
        stats[case] = ClassStats(len(vals), len(wts), time.perf_counter() - start)

    # The lower triangle is the upper one's mirror, copied in MIRROR_BLOCK squares.
    below = np.tri(MIRROR_BLOCK, k=-1, dtype=bool)
    for b0 in range(0, m, MIRROR_BLOCK):
        for c0 in range(b0, m, MIRROR_BLOCK):
            rows, cols = slice(b0, b0 + MIRROR_BLOCK), slice(c0, c0 + MIRROR_BLOCK)
            lower = matrix[cols, rows]
            where = below[: lower.shape[0], : lower.shape[1]] | (c0 > b0)
            np.copyto(lower, matrix[rows, cols].T, where=where)

    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        raise AssemblyError(f"non-finite matrix entry for panel pair ({i}, {j})")
    matrix.setflags(write=False)
    return GalerkinSystem(matrix, areas, panels.total_area, asym, panels.centroids, stats)


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
