"""Dense Galerkin discretization of the single-layer capacitance operator.

Matrix entries are the double surface integrals of 1/(4 pi |s - t|) over
panel pairs. One ordered table, TIERS, gives each pair its quadrature
from its shared corners and its separation (Sauter & Schwab, Boundary
Element Methods, 2011, ch. 5). The far field, its last row, applies
Dunavant's 6-point degree-4 rule to both panels. The diagonal has a closed
form. Touching pairs (shared edge or vertex) and the near ring, found by
one KD-tree query, use the closed-form potential of a uniformly charged
triangle inside and a collapsed tensor Gauss rule, graded toward the
shared feature, outside; the near ring's farther pairs take a coarser rule
than its closer ones.
The potential is evaluated in the source triangle's own frame: a point's
coordinates (u, v, h) there and its distances d_k from the sides' lines
are affine in the point, so the outer rule's values are interpolated from
the outer triangle's corners with the rule's barycentric table.
Entries are written, divided by 4 pi, in a fixed order, each value into
both triangles where it is computed, so A_h is exactly symmetric: the far
tiles write every pair (i, j), i < j, and the refined tiers overwrite
theirs, a separated pair from one direction and a touching pair as the mean
of both, whose difference is recorded. No kernel call takes more than
POINTS_PER_CALL points, no far-field tile nq times as many pairs.
"""

from __future__ import annotations

import functools
import math
import os
import time
from collections import namedtuple
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import (
    AssemblyError,
    DegenerateTriangleError,
    DimensionMismatchError,
    NonFiniteInputError,
    SolveError,
)
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

# Quadrature by tier (Sauter & Schwab, sec. 5.3). A pair of distinct panels
# takes the first row of TIERS that it matches: it shares the row's number
# of corners, and its centroids are closer than the row's cut times r_i + r_j,
# r a panel's largest centroid-to-corner distance. The rows are sized to one
# budget, |dC/C| <= 1e-7, far below the discretization error: with every
# refined rule at twice the nodes and the ring cut at 3, C moves by at most
# 2.1e-8 (sphere1) and 3.4e-9 (cube4); with a degree-8 far rule, by at most
# 8.8e-9 (sphere3). The diagonal has a closed form (_self_integrals).
# A refined row integrates the closed-form inner potential under a tensor
# Gauss-Legendre outer rule collapsed at one corner (Duffy), with radial
# nodes s(sigma) graded toward the shared feature. A touching pair is
# evaluated in both directions and averaged, as the two differ by the rule's
# error; a separated pair (i, j), i < j, once with panel i outer, which moves
# C by at most 5.7e-12 relative (sphere1-4, cube2-16, 2:1:1 and seeded
# ellipsoids). The far row applies Dunavant's 6-point rule (IJNME 21, 1985)
# to both panels. Each row's comment gives its worst relative entry error:
# touching rows against a deep hp-graded reference (tests/test_bem.py) over
# edge pairs from flat to 90 degrees with aspect ratios up to 5 and vertex
# pairs at least 15 degrees apart; separated rows against a 16x16 rule on
# sphere3, cube8-16 and 2:1:1 ellipsoids at levels 2-3. Beyond that range
# errors grow: aspect 10 about 1e-6, a 10-degree fold 6e-6, a 5-degree vertex
# gap 2.6e-7, a near pair of a 5:1:1 ellipsoid's level-2 mesh 1.3e-5.
#
# A Duffy spec: collapsed corner, nodes per direction, sigma -> (s, ds/dsigma).
Duffy = namedtuple("Duffy", "corner nodes grade")
# A tier takes the pairs that share `shared` corners and whose centroids are
# closer than cut (r_i + r_j); its rule is a Duffy spec, or (barycentric
# points, weights) applied to both panels.
Tier = namedtuple("Tier", "name shared cut rule")

_W = np.repeat([0.223381589678011, 0.109951743655322], 3)
TIERS = (
    # 1.1e-7; collapsed at corner 2, the unshared one; exact to degree 4
    Tier("edge", 2, math.inf, Duffy(2, 10, lambda x: (1 - (1 - x) ** 3, 3 * (1 - x) ** 2))),
    # 5.7e-8; collapsed at the shared corner; exact to degree 6
    Tier("vertex", 1, math.inf, Duffy(0, 8, lambda x: (x * x, 2.0 * x))),
    # 1.8e-8; exact to degree 14
    Tier("near", 0, 1.4, Duffy(0, 8, lambda x: (x, np.ones_like(x)))),
    # 4.7e-8; exact to degree 8, moves C by at most 7.0e-11 against 8x8, with
    # 0.53-0.61 of the points (sphere1-4, cube4-16, 2:1:1 ellipsoids)
    Tier("ring", 0, 2.0, Duffy(0, 5, lambda x: (x, np.ones_like(x)))),
    # 5.3e-6 against 8x8 on both panels (sampled pairs out to 3.0); degree 4
    Tier("far", 0, math.inf, (
        np.array([np.roll([1.0 - 2.0 * a, a, a], k)
                  for a in (0.445948490915965, 0.091576213509771) for k in range(3)]),
        _W / _W.sum(),  # the published table carries ~15 digits; enforce an exact sum
    )),
)

# Evaluation points per _potential_local call. The kernel holds its 5
# inputs and 10 temporaries of this many doubles, 2.0 MB at 16k, about one
# 2 MB L2 cache. On a 2-core x86 VM (better of two runs, each best of 9),
# sphere3's and cube8's refined classes took 118 and 105 ms at 8k, 118 and
# 97 ms at 16k, 127 and 110 ms at 32k.
POINTS_PER_CALL = 16_384


# ---------------------------------------------------------------------------
# Analytic potential of a uniformly charged triangle
# ---------------------------------------------------------------------------

def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis; np.cross (numpy 2.4) costs ~40 us a call."""
    return a[..., [1, 2, 0]] * b[..., [2, 0, 1]] - a[..., [2, 0, 1]] * b[..., [1, 2, 0]]


def _frames(tris: np.ndarray) -> tuple:
    """Each triangle's local frame: tris (P, 3, 3) -> (origin, axes, dims).

    Corner 0 is the origin, x runs along edge 0 -> 1 and z is the unit
    normal, so the corners sit at (0, 0), (l2, 0) and (x2, y2), y2 > 0.
    ``axes`` (P, 3, 3) holds the unit x, y and z rows; ``dims`` (5, P, 1)
    holds the side lengths l0, l1, l2 (side k opposite corner k), x2 and
    y2. Norms and dot products are summed component by component, so a
    triangle's frame does not depend on the triangles passed with it.
    """
    def norm(a):
        return np.sqrt(a[..., 0] ** 2 + a[..., 1] ** 2 + a[..., 2] ** 2)

    edges = tris[:, [2, 0, 1]] - tris[:, [1, 2, 0]]
    e01, e02 = edges[:, 2], -edges[:, 1]
    length = norm(edges)
    ex = e01 / length[:, 2, None]
    nvec = _cross(e01, e02)
    ez = nvec / norm(nvec)[:, None]
    axes = np.stack([ex, _cross(ez, ex), ez], axis=1)
    x2, y2, _ = (e02[:, None, :] * axes).sum(axis=2).T
    return tris[:, 0], axes, np.vstack([length.T, x2, y2])[:, :, None]


def _local_coordinates(rel, axes: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Components rel (3, P, K) of p - corner 0 -> (u, v, h, d0, d1), (5, P, K).

    (u, v, h) are p's coordinates in the frame and d_k the distance of
    (u, v) from the line of side k, positive inside; d2 is v. All five are
    affine in p, so they may be taken at an outer triangle's corners and
    interpolated.
    """
    l0, l1, l2, x2, y2 = dims
    out = np.empty((5, *np.broadcast_shapes(rel[0].shape, l0.shape)))
    for c, axis in enumerate(axes.transpose(1, 2, 0)[..., None]):
        np.multiply(rel[0], axis[0], out=out[c])
        out[c] += rel[1] * axis[1]
        out[c] += rel[2] * axis[2]
    u, v = out[0], out[1]
    out[3] = ((l2 - u) * y2 + (x2 - l2) * v) / l0
    out[4] = (y2 * u - x2 * v) / l1
    return out


def _potential_local(local: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Closed-form potential at points in their triangle's frame: (5, P, K) -> (P, K).

    ``local`` holds :func:`_local_coordinates` (u, v, h, d0, d1) and ``dims``
    the frame's (5, P, 1) table. With R_k the distance from corner k, side
    k contributes d_k ln((R_k1 + R_k2 + l_k) / (R_k1 + R_k2 - l_k)), and the
    solid angle omega that the triangle subtends at the point contributes
    -h omega. The triple product of the corner vectors in omega (van
    Oosterom-Strackee) is exactly 2 A h, A the area, so the sign of h alone
    carries the mirror symmetry across the plane.
    Every operation is elementwise, so a point's value does not depend on
    the points or triangles passed with it. Triangles are not checked here:
    a degenerate one gives non-finite values, so callers pass triangles that
    PanelSystem or triangle_potentials has validated.
    """
    u, v, h, d0, d1 = local
    l0, l1, l2, x2, y2 = dims
    # The corner vectors: r_0 = (u, v, h), r_1 = (a1, v, h), r_2 = (a2, b2, h).
    a1, a2, b2 = u - l2, u - x2, v - y2
    h2 = h * h
    q = v * v
    q += h2
    dist = [u * u, a1 * a1, a2 * a2]
    dist[0] += q
    dist[1] += q
    tmp = b2 * b2
    dist[2] += tmp
    dist[2] += h2
    for sq in dist:
        np.sqrt(sq, out=sq)

    # R_0 R_1 R_2 + (r_1 . r_2) R_0 + (r_2 . r_0) R_1 + (r_0 . r_1) R_2, where
    # r_0 . r_1 = u a1 + q and the other two dots share w = v b2 + h^2.
    q += u * a1
    denom = np.multiply(dist[0], dist[1], out=tmp)
    denom += q
    denom *= dist[2]
    w = np.multiply(v, b2, out=b2)
    w += h2
    for dot, other, r in ((a1, a2, dist[0]), (a2, u, dist[1])):
        dot *= other
        dot += w
        dot *= r
        denom += dot
    # -h omega, the solid angle's factor 2 applied exactly with the sign.
    total = np.arctan2(np.multiply(h, l2 * y2, out=h2), denom, out=denom)
    total *= h
    total *= -2.0

    # Side k: the stable integral of 1/r along it. The log's denominator
    # vanishes only for points on the side, where d_k vanishes as well.
    s, term = a1, a2
    for k, (d, ell) in enumerate(((d0, l0), (d1, l1), (v, l2))):
        np.add(dist[(k + 1) % 3], dist[(k + 2) % 3], out=s)
        np.add(s, ell, out=term)
        s -= ell
        np.maximum(s, 1e-300, out=s)
        term /= s
        np.log(term, out=term)
        term *= d
        total += term
    return total


def _potential_batch(points: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Batched closed-form potential: points (3, P, K), tris (P, 3, 3) -> (P, K).

    Points are component-major; points (3, 1, K) are shared by all P
    triangles. Each triangle's points are moved into its frame.
    """
    origin, axes, dims = _frames(tris)
    rel = [points[c] - origin[:, c, None] for c in range(3)]
    return _potential_local(_local_coordinates(rel, axes, dims), dims)


def triangle_potentials(points, corners) -> np.ndarray:
    """Closed-form integral of 1/|x - s| over a planar triangle, unit density.

    Evaluates at many points at once; finite for all evaluation points,
    including points on the triangle (edge and vertex limits). ``points`` is
    (n, 3) or one point (3,), ``corners`` (3, 3). Raises
    DimensionMismatchError for other shapes, NonFiniteInputError for a NaN
    or infinite value and DegenerateTriangleError for a degenerate triangle.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    v = np.asarray(corners, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or v.shape != (3, 3):
        raise DimensionMismatchError(
            f"points must be (n, 3) or (3,) and corners (3, 3), got "
            f"{np.shape(points)} and {v.shape}"
        )
    if not (np.isfinite(pts).all() and np.isfinite(v).all()):
        raise NonFiniteInputError("points or corners contain non-finite values")
    v = v[None]
    _checked_areas(v)
    return _potential_batch(np.ascontiguousarray(pts.T)[:, None, :], v)[0]


def triangle_potential(point, corners) -> float:
    """Scalar wrapper around :func:`triangle_potentials`."""
    return float(triangle_potentials(np.reshape(point, (1, -1)), corners)[0])


# ---------------------------------------------------------------------------
# Quadrature rules by class and the closed-form diagonal
# ---------------------------------------------------------------------------

@functools.cache
def _duffy_rule(corner: int, nodes: int, grade) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule (barycentric points, weights) collapsed at a corner.

    The triangle is the image of the unit square under (s, t) -> corner
    weight 1 - s, next corners s (1 - t) and s t, with area element 2 s ds dt;
    s = grade(sigma) moves the nodes toward s = 0 (the corner) or s = 1 (the
    opposite edge). Built once per spec, the grade function by identity, and
    returned read-only.
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
    pts, wts = pts.reshape(-1, 3), wts.ravel()
    pts.setflags(write=False)
    wts.setflags(write=False)
    return pts, wts


def _rule_table(rule) -> tuple[np.ndarray, np.ndarray]:
    """A tier's rule as (barycentric points, weights): a Duffy spec built, or as given."""
    return _duffy_rule(*rule) if isinstance(rule, Duffy) else rule


def _self_integrals(dims: np.ndarray, areas: np.ndarray) -> np.ndarray:
    """Closed-form integral of 1/|s - t| over each panel times itself.

    (4 A^2 / 3) sum over sides l of ln(P / (P - 2 l)) / l, with P the
    perimeter (Arcioni, Bressan & Perregrini, IEEE T-MTT 45(3), 1997);
    P - 2 l is the other two sides' sum less l. ``dims`` is _frames' table.
    """
    a, b, c = sides = dims[:3, :, 0]
    rest = np.column_stack([b + c - a, c + a - b, a + b - c])
    perimeter = (a + b + c)[:, None]
    return (4.0 / 3.0) * areas**2 * np.sum(np.log(perimeter / rest) / sides.T, axis=1)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassStats:
    """Assembly work of one entry class: a row of TIERS, or self."""

    entries: int
    points: int      # per entry: its TIERS row's rule points (far: point pairs, 36); 0 self
    seconds: float


@dataclass(frozen=True)
class GalerkinSystem:
    """Dense symmetric Galerkin matrix with panel areas and diagnostics.

    ``assembly`` maps each entry class to its work. Each value is written to
    (i, j) and (j, i) where it is computed. The far field writes and the
    separated tiers compute each pair (i, j), i < j, once, so their entries
    count pairs; the touching tiers compute both directions of each pair
    and count both. Refined entries overwrite the far field's.
    ``asymmetry_norm`` is the largest difference between the two
    directions of a touching pair, whose mean ``(M_ij + M_ji) / 2`` is the
    entry; every other entry has one value.
    Checked where it is made, for every reader: ``matrix``, as float64 (not
    copied if it is), is (n, n) and finite, ``centroids`` (n, 3), n = len(areas) >= 1.
    """

    matrix: np.ndarray
    areas: np.ndarray
    total_area: float
    asymmetry_norm: float
    centroids: np.ndarray
    assembly: dict[str, ClassStats] = field(default_factory=dict)

    def __post_init__(self):
        matrix = np.asanyarray(self.matrix, dtype=np.float64)
        object.__setattr__(self, "matrix", matrix)
        n = self.n
        if not n or matrix.shape != (n, n) or np.shape(self.centroids) != (n, 3):
            raise DimensionMismatchError(f"n >= 1 areas need A_h (n, n) and centroids (n, 3), got "
                                         f"{n}, {matrix.shape} and {np.shape(self.centroids)}")
        # min and max propagate NaN and reach every infinity with no temporary.
        if not (np.isfinite(matrix.min()) and np.isfinite(matrix.max())):
            i, j = np.argwhere(~np.isfinite(matrix))[0]
            raise AssemblyError(f"non-finite matrix entry for panel pair ({i}, {j})")

    @property
    def n(self) -> int:
        return len(self.areas)


def _refined_pairs(corners: np.ndarray, centroids: np.ndarray) -> dict:
    """Pairs (i, j), i < j, of each refined tier, every row of TIERS but the last.

    One KD-tree query finds the pairs whose centroids are closer than the
    largest finite cut times r_i + r_j, which include every pair sharing a
    corner, since |c_i - c_j| <= r_i + r_j. Each pair takes the first row it
    matches; the far field, the last row, takes the rest. Many cube pairs sit
    exactly on a cut, so every cut carries a relative slack of 1e-9:
    otherwise rounding decides their side on a translated or scaled copy.
    Corners match by value (exact for panels built from one mesh vertex
    array); three shared make a duplicate panel, which raises
    DegenerateTriangleError. Each row gives (i, j, perm_i, perm_j), each perm
    rotating its panel's corners so the shared vertex comes first or the
    unshared corner last; a separated pair's perms keep its corners.
    """
    slack = 1.0 + 1e-9
    reach = max(tier.cut for tier in TIERS if math.isfinite(tier.cut)) * slack
    radii = np.max(np.linalg.norm(corners - centroids[:, None, :], axis=2), axis=1)
    pairs = cKDTree(centroids).query_pairs(reach * 2.0 * float(radii.max()), output_type="ndarray")
    diff = centroids[pairs[:, 0]] - centroids[pairs[:, 1]]
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    span = radii[pairs[:, 0]] + radii[pairs[:, 1]]
    keep = dist < reach * span
    i, j = pairs[keep].T
    dist, span = dist[keep], span[keep]
    ids = np.unique(corners.reshape(-1, 3), axis=0, return_inverse=True)[1].reshape(-1, 3)
    on = ids[i][:, :, None] == ids[j][:, None, :]
    count = on.sum(axis=(1, 2))
    if np.any(count == 3):
        k = np.argmax(count == 3)
        raise DegenerateTriangleError([int(i[k]), int(j[k])], f"duplicate panels {i[k]} and {j[k]}")
    classes, free = {}, np.ones(len(i), dtype=bool)
    for tier in TIERS[:-1]:
        sel = np.flatnonzero(free & (count == tier.shared) & (dist < tier.cut * slack * span))
        free[sel] = False
        perm_i = perm_j = np.tile(np.arange(3), (len(sel), 1))
        if tier.shared:
            # The first corner is the shared one, or the one after the unshared one.
            both, edge = on[sel], tier.shared == 2
            perm_i, perm_j = (
                (np.nonzero(shared != edge)[1][:, None] + np.arange(3) + edge) % 3
                for shared in (both.any(axis=2), both.any(axis=1))
            )
        classes[tier.name] = (i[sel], j[sel], perm_i, perm_j)
    return classes


def _refined_entries(corners, areas, frames, rows, srcs, perms, pts_bary, wts) -> np.ndarray:
    """Entries (rows, srcs), divided by 4 pi, from a refined outer rule.

    ``frames`` is _frames(corners). ``perms`` permutes each outer triangle's
    corners so the shared feature sits where the graded rule expects it.
    Each entry's weighted sum is a row sum of its own values, so it does not
    depend on its place in a chunk or on the order of the pairs. Each kernel
    call takes a chunk of pairs with at most POINTS_PER_CALL outer points.
    """
    origin, axes, dims = frames
    out = np.empty(len(rows))
    chunk = max(1, POINTS_PER_CALL // len(wts))
    for s in range(0, len(rows), chunk):
        r, src = rows[s : s + chunk], srcs[s : s + chunk]
        outer = corners[r[:, None], perms[s : s + chunk]]
        rel = (outer - origin[src, None, :]).transpose(2, 0, 1)
        at_corners = _local_coordinates(rel, axes[src], dims[:, src])
        vals = _potential_local(at_corners @ pts_bary.T, dims[:, src])
        vals *= wts
        out[s : s + chunk] = areas[r] * vals.sum(axis=1)
    return out / FOUR_PI


def _far_tile(matrix, points, areas, weights, r0, r1, c0, c1, scratch):
    """Write the far entries of panels r0 <= i < r1 against c0 <= j < c1, r0 <= c0.

    Entry (i, j) is a_i a_j sum_pq w_p w_q / (4 pi |x_p - y_q|) over the
    rule's points on panels i and j, taken from the rows of ``points``
    (m nq, 3); ``scratch`` holds one tile of doubles. The tile goes to both
    triangles. A diagonal tile (r0 == c0) keeps the pairs i < j, whose rows
    hold the smaller index, and leaves its diagonal 0. Coincident points, as
    on overlapping panels, give inf, which assemble rejects. On one core of
    a 2-core x86 VM a point pair costs 4.9-6.5 ns (sphere3, cube16, sphere4).
    """
    nq = len(weights)
    d = scratch[: (r1 - r0) * nq * (c1 - c0) * nq].reshape((r1 - r0) * nq, -1)
    cdist(points[r0 * nq : r1 * nq], points[c0 * nq : c1 * nq], out=d)
    with np.errstate(divide="ignore"):
        np.divide(1.0, d, out=d)
    vals = (weights @ d.reshape(r1 - r0, nq, -1)).reshape(r1 - r0, c1 - c0, nq) @ weights
    vals *= areas[r0:r1, None] * areas[c0:c1]
    vals /= FOUR_PI
    if r0 == c0:
        upper = np.triu(vals, 1)
        matrix[r0:r1, c0:c1] = upper + upper.T
    else:
        matrix[r0:r1, c0:c1] = vals
        matrix[c0:c1, r0:r1] = vals.T


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def assemble(panels: PanelSystem, workers: int = 1) -> GalerkinSystem:
    """Assemble the dense Galerkin matrix of the single-layer operator.

    Entry (i, j) approximates the double integral of 1/(4 pi |s - t|) over
    panels i and j. The result is bitwise independent of ``workers``: each
    entry's sum has a fixed point order, and the refined tiers overwrite far
    entries after every far tile is written. Raises DegenerateTriangleError
    for two panels with the same corners, before any entry is computed.
    """
    corners = panels.corners
    areas = panels.areas
    m = panels.n_panels
    *tiers, far = TIERS
    far_points, far_weights = _rule_table(far.rule)
    nq = len(far_weights)
    stats: dict[str, ClassStats] = {}
    refined = _refined_pairs(corners, panels.centroids)

    # Far field, once per pair (i, j), i < j: square tiles of side panels,
    # (r0, c0) with c0 >= r0, at most nq * POINTS_PER_CALL point pairs each,
    # which depend on m and nq alone. Worker k takes every workers-th tile
    # from tile k; the calling thread is worker 0, as each pool thread's
    # malloc arena keeps its peak after the pool ends. Workers are capped at
    # the usable CPUs, as each holds one tile of scratch.
    start = time.perf_counter()
    points = (far_points @ corners).reshape(m * nq, 3)
    side = max(1, math.isqrt(POINTS_PER_CALL // nq))
    tiles = [(r0, c0) for r0 in range(0, m, side) for c0 in range(r0, m, side)]
    matrix = np.empty((m, m))
    workers = max(1, min(int(workers), len(tiles), _usable_cpus()))

    def fill_share(k):
        scratch = np.empty((side * nq) ** 2)
        for r0, c0 in tiles[k::workers]:
            r1, c1 = min(m, r0 + side), min(m, c0 + side)
            _far_tile(matrix, points, areas, far_weights, r0, r1, c0, c1, scratch)

    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        shares = pool.map(fill_share, range(1, workers))
        fill_share(0)
        list(shares)
    stats[far.name] = ClassStats(m * (m - 1) // 2, nq * nq, time.perf_counter() - start)

    start = time.perf_counter()
    frames = _frames(corners)  # read by the diagonal and every refined tier
    diag = np.arange(m)
    matrix[diag, diag] = _self_integrals(frames[2], areas) / FOUR_PI
    stats["self"] = ClassStats(m, 0, time.perf_counter() - start)

    # Refined pairs overwrite the far field's (i, j) and (j, i), i < j. A
    # separated pair takes one direction, panel i outer; a touching pair the
    # mean of both, whose difference is asymmetry_norm.
    asym = 0.0
    for tier in tiers:
        start = time.perf_counter()
        pts, wts = _rule_table(tier.rule)
        i, j, perm_i, perm_j = refined[tier.name]
        directions = [(i, j, perm_i), (j, i, perm_j)][: 2 if tier.shared else 1]
        rows, srcs, perms = (np.concatenate(part) for part in zip(*directions))
        vals = _refined_entries(corners, areas, frames, rows, srcs, perms, pts, wts)
        vals = vals.reshape(len(directions), -1)
        asym = max(asym, float(np.max(np.abs(vals[0] - vals[-1]), initial=0.0)))
        matrix[i, j] = matrix[j, i] = vals.mean(axis=0)
        stats[tier.name] = ClassStats(vals.size, len(wts), time.perf_counter() - start)

    matrix.setflags(write=False)
    return GalerkinSystem(matrix, areas, panels.total_area, asym, panels.centroids, stats)


# ---------------------------------------------------------------------------
# Positivity: one certified factorization
# ---------------------------------------------------------------------------

UNIT_ROUNDOFF = 2.0**-53
ETA = 2.0**-1074  # smallest positive subnormal double


def _rfp_diagonal(n: int) -> np.ndarray:
    """Positions of the diagonal of an n x n matrix in LAPACK's RFP array.

    Rectangular full packed storage, TRANSR = 'N' and UPLO = 'U' (Gustavson,
    Wasniewski, Dongarra & Langou, ACM TOMS 37(2), 2010), is a column-major
    array with lda = n + 1 rows for even n and n for odd n. With q = n // 2,
    diagonal entry i < q sits at row lda - q + i of column i, and i >= q at
    row i of column i - q.
    """
    q, lda = n // 2, n + 1 - n % 2
    i = np.arange(n)
    return i * (lda + 1) + np.where(i < q, lda - q, -lda * q)


def _certified_cholesky(mat: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """Solves with the Cholesky factor of A - tau D, and a proven lower bound on lambda_min(A).

    Returns (solve, beta): solve(r) applies (A - tau D)^-1 to a vector r
    through the factor, and beta <= lambda_min(A). D = diag(A) and
    tau = 2 gamma_{n+1} n. The shift is relative to each diagonal entry, so
    the proof, like plain Cholesky, does not depend on how the rows of A
    are scaled: it is made for H = D^-1/2 A D^-1/2, whose diagonal is 1. If
    the floating-point factorization of the shifted matrix M runs to
    completion, Demmel's backward-error bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3) gives
    |dM_ij| <= gamma_{n+1} sqrt(m_ii m_jj) / (1 - gamma_{n+1}) with
    m_ii <= d_i, so lambda_min(H) >= beta_H = s - gamma_{n+1} n / (1 - gamma_{n+1}),
    where s = min_i (d_i - m_ii) / d_i is the shift actually stored, close to
    tau. beta_H also deducts an allowance for underflow after Rump (BIT 46,
    2006), and lambda_min(A) >= min(d) beta_H.
    Only A's lower triangle is read. It is copied into rectangular full
    packed (RFP) storage, n(n+1)/2 doubles, where the shift is made on the
    diagonal and dpftrf factors it in place: a 2 x 2 block Cholesky, dpotrf
    on the diagonal blocks with dtrsm and dsyrk between them, all
    conventional (non-Strassen) Level-3 BLAS. Each entry of the factor is
    still its inner product, summed in some order, and one division or
    square root; Thm 10.3 holds for every summation order, so the bound is
    the one for dpotrf alone. It is the one proof of
    A_h > 0, for the direct solve and spd_check alike.
    """
    n = len(mat)
    u = UNIT_ROUNDOFF
    g = (n + 1) * u / (1.0 - (n + 1) * u)  # Higham's gamma_{n+1}
    tau = 2.0 * g * n
    # mat.T's upper triangle is A's lower one, and for a C-ordered A mat.T
    # is Fortran-ordered, so LAPACK reads it without a copy.
    packed, _ = lapack.dtrttf(mat.T, transr="N", uplo="U")
    on_diagonal = _rfp_diagonal(n)
    diag = packed[on_diagonal]
    shifted = diag * (1.0 - tau)
    packed[on_diagonal] = shifted
    _, info = lapack.dpftrf(n, packed, transr="N", uplo="U", overwrite_a=1)
    failed = SolveError(
        f"shifted Cholesky could not prove A_h positive definite (tau = {tau:.6g})"
    )
    if info != 0:
        raise failed
    # The pivots were positive, so 0 < m_ii <= d_i and d_i - m_ii is exact
    # (Sterbenz). Round the stored shift and beta down, and the deduction
    # up, past the roundings of the lines below.
    d_min = float(np.min(diag))
    shift = float(np.min((diag - shifted) / diag)) * (1.0 - 2 * u)
    underflow = 4 * (n + 1) * (2 * (n + 1) + float(np.max(shifted))) * ETA / d_min
    deduction = (g * n / (1.0 - g) + underflow) * (1.0 + 16 * u)
    beta = float(np.nextafter(d_min * (shift - deduction) * (1.0 - 4 * u), -np.inf))
    if not beta > 0:
        raise failed

    def solve(rhs: np.ndarray) -> np.ndarray:
        return lapack.dpftrs(n, packed, rhs, transr="N", uplo="U")[0]

    return solve, beta


@dataclass(frozen=True)
class SpdReport:
    min_eigenvalue: float
    cholesky_succeeded: bool


def spd_check(system: GalerkinSystem) -> SpdReport:
    """Whether _certified_cholesky proves A_h > 0, plus the exact smallest eigenvalue.

    The verdict is the direct solve's proof, so the two cannot disagree. The
    eigenvalue comes from a dense symmetric eigensolver either way, so it is
    exact to round-off; a failed proof is a result, not an error.
    """
    mat = system.matrix
    try:
        _certified_cholesky(mat)
        succeeded = True
    except SolveError:
        succeeded = False
    lam = scipy.linalg.eigh(mat, eigvals_only=True, subset_by_index=[0, 0])[0]
    return SpdReport(float(lam), succeeded)
