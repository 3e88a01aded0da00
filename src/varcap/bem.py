"""Dense Galerkin discretization of the single-layer capacitance operator.

Matrix entries are the double surface integrals of 1/(4 pi |s - t|) over
panel pairs: the inner integral uses the closed-form potential of a
uniformly charged triangle, the outer one a symmetric triangle quadrature.
The diagonal has a closed form. Panel pairs that touch (shared edge or
vertex) and near pairs use collapsed tensor Gauss rules graded toward the
shared feature, so the recorded pre-symmetrization asymmetry stays at
round-off scale.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.spatial import cKDTree

from .errors import AssemblyError, VarcapError
from .geometry import PanelSystem, _checked_areas

__all__ = [
    "QuadratureRule",
    "ClassStats",
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

# Near-field outer rules. The inner integral is analytic, so only the outer
# rule limits an entry's accuracy. Diagonal entries have a closed form
# (_self_integrals). Touching pairs and the near ring (other pairs whose
# centroids are closer than NEAR_FACTOR times the sum of the panel radii)
# use a tensor Gauss-Legendre rule on the outer triangle, collapsed at one
# corner (Duffy), with radial nodes s(sigma) graded toward the shared feature:
#
#   class   collapsed at   s(sigma)           nodes  degree  max entry error
#   edge    corner 2       1 - (1 - sigma)^3  10x10  4       1.1e-7
#   vertex  shared corner  sigma^2             8x8   6       5.7e-8
#   near    corner 0       sigma               8x8   14
#
# Entry errors are relative, against a deep hp-graded reference
# (tests/test_bem.py), over edge pairs from flat to 90 degrees with aspect
# ratios up to 5 and vertex pairs at least 15 degrees apart. Beyond that they
# grow: aspect 10 about 1e-6, a 10-degree fold 6e-6, a 5-degree vertex gap
# 2.6e-7. The rules meet a quadrature budget of |dC/C| <= 1e-7, far below
# the discretization error: with every rule at twice the nodes and
# NEAR_FACTOR 3, C moves by at most 1.0e-8 on sphere1-3, cube2-8 and a
# 2:1:1 ellipsoid.
NEAR_RULES = {
    # class: (collapsed corner, nodes per direction, sigma -> (s, ds/dsigma))
    "edge": (2, 10, lambda x: (1.0 - (1.0 - x) ** 3, 3.0 * (1.0 - x) ** 2)),
    "vertex": (0, 8, lambda x: (x * x, 2.0 * x)),
    "near": (0, 8, lambda x: (x, np.ones_like(x))),
}
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
    (P, K) array. Triangles are not checked here: a degenerate one gives
    non-finite values, so callers pass triangles that PanelSystem or
    triangle_potentials has validated.
    """
    # Per-source terms, once per triangle: the unit normal n and, for the
    # edge e_k = v_k2 - v_k1 opposite corner k, its length and the unit
    # in-plane edge normal n x e_k / |e_k|. As r_k2 = r_k1 - e_k, the edge
    # prefactor (r_k1 x r_k2) . n equals r_k1 . (n x e_k).
    edges = tris[:, [2, 0, 1]] - tris[:, [1, 2, 0]]
    nvec = _cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
    two_area = np.sqrt(np.einsum("pd,pd->p", nvec, nvec))
    n = nvec / two_area[:, None]
    length = np.sqrt(np.einsum("pkd,pkd->pk", edges, edges))
    edge_normal = _cross(n[:, None, :], edges) / length[:, :, None]

    shape = points.shape[1:]
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
# Near-field outer rules and the closed-form diagonal
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


def _refined_rules() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Near-field outer rules by class, built from NEAR_RULES."""
    return {name: _duffy_rule(*spec) for name, spec in NEAR_RULES.items()}


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
    points: int      # outer quadrature points per entry; 0 for the closed form
    seconds: float


@dataclass(frozen=True)
class GalerkinSystem:
    """Dense symmetric Galerkin matrix with panel areas and diagnostics.

    ``asymmetry_norm`` is max|M - M^T| recorded before the final
    symmetrization ``M <- (M + M^T)/2``. ``assembly`` maps each entry class
    to its work; the far field computes every entry and the other classes
    overwrite theirs.
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


def _touching_pairs(corners: np.ndarray) -> tuple[np.ndarray, dict]:
    """Directed pairs of distinct panels that share vertices, by class.

    Returns the pairs' keys row * m + src and, for "edge" and "vertex",
    (rows, perms, srcs): perms rotates each row panel's corners so that the
    shared vertex comes first, or the corner off the shared edge last.
    Vertices match by value, which is exact for panels built from one mesh
    vertex array.
    """
    m = len(corners)
    ids = np.unique(corners.reshape(-1, 3), axis=0, return_inverse=True)[1].reshape(m, 3)
    slots = np.repeat(np.arange(m), 3), ids.ravel()
    incidence = scipy.sparse.csr_matrix((np.ones(3 * m, dtype=np.int64), slots))
    shared = incidence @ incidence.T
    shared.setdiag(0)
    shared.eliminate_zeros()
    pairs = shared.tocoo()
    rows, srcs, count = pairs.row, pairs.col, pairs.data
    on = (ids[rows][:, :, None] == ids[srcs][:, None, :]).any(axis=2)
    first = np.where(count >= 2, np.argmin(on, axis=1) + 1, np.argmax(on, axis=1))
    perms = (first[:, None] + np.arange(3)) % 3
    cases = (("edge", count >= 2), ("vertex", count == 1))
    return rows * m + srcs, {name: (rows[sel], perms[sel], srcs[sel]) for name, sel in cases}


def _apply_corrections(matrix, corners, areas, rows, perms, srcs, pts_bary, wts):
    """Overwrite entries (rows, srcs) using a refined outer rule.

    ``perms`` permutes each outer triangle's corners so the shared feature
    sits where the graded rule expects it. Each entry's weighted sum is a
    row sum of its own values, so it does not depend on the entry's place
    in a chunk or on the order of the pairs. Chunks of about 50k quadrature
    points bound the kernel's temporaries (17 chunk-sized arrays, ~7 MB);
    10k, 20k and 50k gave the same sphere3 assembly time on a 2-core x86
    box (2.3-2.7 s, within the run-to-run spread).
    """
    if not len(rows):
        return
    rows = np.asarray(rows, dtype=np.intp)
    srcs = np.asarray(srcs, dtype=np.intp)
    perms = np.asarray(perms, dtype=np.intp)
    chunk = max(1, 50_000 // len(wts))
    for s in range(0, len(rows), chunk):
        r = rows[s : s + chunk]
        src = srcs[s : s + chunk]
        outer = corners[r[:, None], perms[s : s + chunk]]
        pts = outer.transpose(2, 0, 1) @ pts_bary.T
        vals = _potential_batch(pts, corners[src])
        vals *= wts
        matrix[r, src] = areas[r] * vals.sum(axis=1)


def _near_ring(corners: np.ndarray, centroids: np.ndarray, touching: np.ndarray) -> np.ndarray:
    """Non-touching pairs (i < j) with centroids closer than NEAR_FACTOR (r_i + r_j).

    r is a panel's largest centroid-to-corner distance. On cubes many pairs
    sit exactly on the cut-off, so it carries a relative slack of 1e-9:
    otherwise the rounding of a translated or scaled copy decides their side.
    """
    m = len(corners)
    cut = NEAR_FACTOR * (1.0 + 1e-9)
    radii = np.max(np.linalg.norm(corners - centroids[:, None, :], axis=2), axis=1)
    pairs = cKDTree(centroids).query_pairs(cut * 2.0 * float(radii.max()), output_type="ndarray")
    pairs = pairs[~np.isin(pairs[:, 0] * m + pairs[:, 1], touching)]
    diff = centroids[pairs[:, 0]] - centroids[pairs[:, 1]]
    dist = np.sqrt((diff[:, None, :] @ diff[:, :, None]).ravel())
    return pairs[dist < cut * (radii[pairs[:, 0]] + radii[pairs[:, 1]])]


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
    stats: dict[str, ClassStats] = {}

    # Far field, every panel as a source. Outer points component-major,
    # (3, 1, m * nq), built once.
    start = time.perf_counter()
    outer_pts = (corners.transpose(2, 0, 1) @ rule.points.T).reshape(3, 1, m * nq)
    matrix = np.empty((m, m))

    def fill_columns(j0, j1):
        for j in range(j0, j1):
            pot = _potential_batch(outer_pts, corners[j : j + 1]).reshape(m, nq)
            matrix[:, j] = areas * (pot @ rule.weights)

    workers = max(1, int(workers))
    if workers == 1 or m < 2 * workers:
        fill_columns(0, m)
    else:
        bounds = np.linspace(0, m, workers + 1).astype(int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_columns, bounds[:-1], bounds[1:]))
    stats["far"] = ClassStats(m * m, nq, time.perf_counter() - start)

    start = time.perf_counter()
    diag = np.arange(m)
    matrix[diag, diag] = _self_integrals(corners, areas)
    stats["self"] = ClassStats(m, 0, time.perf_counter() - start)

    touching, tasks = _touching_pairs(corners)
    i, j = _near_ring(corners, panels.centroids, touching).T
    rows, srcs = np.concatenate([i, j]), np.concatenate([j, i])
    tasks["near"] = (rows, np.tile((0, 1, 2), (len(rows), 1)), srcs)

    rules = _refined_rules()
    for case in ("edge", "vertex", "near"):
        start = time.perf_counter()
        rows, perms, srcs = tasks[case]
        pts, wts = rules[case]
        _apply_corrections(matrix, corners, areas, rows, perms, srcs, pts, wts)
        stats[case] = ClassStats(len(rows), len(wts), time.perf_counter() - start)

    matrix /= FOUR_PI

    bad = np.argwhere(~np.isfinite(matrix))
    if len(bad):
        i, j = bad[0]
        raise AssemblyError(f"non-finite matrix entry for panel pair ({i}, {j})")

    asym = float(np.max(np.abs(matrix - matrix.T))) if m > 1 else 0.0
    matrix = 0.5 * (matrix + matrix.T)
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
