"""Independent numerical oracles for the closed-form triangle potential.

Two routes, with no code shared with the library implementation:

* ``dblquad_triangle_potential`` — adaptive quadrature over the barycentric
  parametrization. Accurate for evaluation points away from the triangle.
* ``duffy_triangle_potential`` — splits the triangle at the projection of
  the evaluation point and applies a Duffy transform per sub-triangle, which
  cancels the 1/r singularity. Works for any point, including points on the
  triangle itself.

``deep_panel_integral`` gives a Galerkin entry of touching or coincident
panels, and ``reference_triangle_monomial`` exact monomial integrals on the
unit reference triangle for checking quadrature-rule degrees.
"""

import math
import warnings

import numpy as np
import scipy.integrate
from numpy.polynomial.legendre import leggauss
from scipy.integrate import dblquad


def dblquad_triangle_potential(point, corners, epsabs=1e-12, epsrel=1e-12):
    """Adaptive integral of 1/|x - s| over the triangle (regular points)."""
    p = np.asarray(point, dtype=float)
    v0, v1, v2 = (np.asarray(c, dtype=float) for c in corners)
    e1, e2 = v1 - v0, v2 - v0
    jac = np.linalg.norm(np.cross(e1, e2))

    def integrand(v, u):
        s = v0 + u * e1 + v * e2
        return 1.0 / np.linalg.norm(p - s)

    val, _ = dblquad(integrand, 0.0, 1.0, 0.0, lambda u: 1.0 - u,
                     epsabs=epsabs, epsrel=epsrel)
    return jac * val


def duffy_triangle_potential(point, corners, order=None):
    """Singularity-cancelling integral of 1/|x - s| over the triangle.

    The triangle is split at the in-plane projection q of the evaluation
    point into three signed sub-triangles (q, v_i, v_j), parametrized as
    s(u, t) = q + u * c(t) with c(t) = (1 - t)(v_i - q) + t (v_j - q).
    The area element is u * n . (v_i - q) x (v_j - q), so the radial
    integral has the elementary value

        int_0^1 u / sqrt(u^2 |c|^2 + h^2) du = (sqrt(|c|^2 + h^2) - |h|) / |c|^2

    (h the off-plane offset), leaving a one-dimensional adaptive integral
    in t whose only feature is a mild peak where the edge passes closest
    to q. Signed orientations make the split exact also when q lies
    outside the triangle. ``order`` is accepted for API compatibility and
    ignored (the t-integral is adaptive).
    """
    quad = scipy.integrate.quad
    p = np.asarray(point, dtype=float)
    verts = [np.asarray(c, dtype=float) for c in corners]
    v0, v1, v2 = verts
    normal = np.cross(v1 - v0, v2 - v0)
    normal /= np.linalg.norm(normal)
    h = abs(np.dot(p - v0, normal))
    q = p - np.dot(p - v0, normal) * normal

    total = 0.0
    for k in range(3):
        a = verts[k] - q
        b = verts[(k + 1) % 3] - q
        signed = np.dot(np.cross(a, b), normal)  # twice the signed area
        if signed == 0.0:
            continue

        def radial(t):
            c = (1.0 - t) * a + t * b
            c2 = float(c @ c)
            return (math.sqrt(c2 + h * h) - h) / c2

        d = b - a
        t_near = float(np.clip(-(a @ d) / (d @ d), 0.0, 1.0))
        with warnings.catch_warnings():
            # The integrable log peak where the edge passes closest to q
            # triggers a spurious "bad integrand" warning; accuracy is
            # verified against the closed form in the tests themselves.
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, _ = quad(radial, 0.0, 1.0, points=[t_near], limit=200,
                          epsabs=1e-14, epsrel=1e-13)
        total += signed * val
    return total


def distance_to_triangle(point, corners):
    """Euclidean distance from a point to a (closed) triangle."""
    p = np.asarray(point, dtype=float)
    verts = [np.asarray(c, dtype=float) for c in corners]
    v0, v1, v2 = verts
    normal = np.cross(v1 - v0, v2 - v0)
    normal /= np.linalg.norm(normal)
    h = np.dot(p - v0, normal)
    q = p - h * normal
    inside = all(
        np.dot(np.cross(verts[(k + 1) % 3] - verts[k], q - verts[k]), normal) >= 0
        for k in range(3)
    ) or all(
        np.dot(np.cross(verts[(k + 1) % 3] - verts[k], q - verts[k]), normal) <= 0
        for k in range(3)
    )
    if inside:
        return abs(h)
    best = math.inf
    for k in range(3):
        a, b = verts[k], verts[(k + 1) % 3]
        t = np.clip(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(p - (a + t * (b - a)))))
    return best


def numeric_triangle_potential(point, corners):
    """Best-available oracle: Duffy on/near the triangle, dblquad otherwise.

    Adaptive quadrature is accurate once the integrand's peak is mild
    (point well away from the surface); the Duffy route covers points on
    or within a fraction of a triangle diameter of the surface.
    """
    p = np.asarray(point, dtype=float)
    v0, v1, v2 = (np.asarray(c, dtype=float) for c in corners)
    scale = math.sqrt(np.linalg.norm(np.cross(v1 - v0, v2 - v0)))
    if distance_to_triangle(p, corners) >= 0.05 * scale:
        return dblquad_triangle_potential(p, corners)
    return duffy_triangle_potential(p, corners, order=96)


def reference_triangle_monomial(a, b):
    """Exact integral of x^a y^b over the triangle x, y >= 0, x + y <= 1."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def _geometric_gauss(levels, order):
    """Composite Gauss-Legendre on [0, 1] with cuts 1/2, 3/4, ..., 1 - 2^-levels."""
    x, w = leggauss(order)
    cuts = np.append(1.0 - 0.5 ** np.arange(levels + 1), 1.0)
    lo, width = cuts[:-1, None], np.diff(cuts)[:, None]
    return (lo + width * 0.5 * (x + 1.0)).ravel(), (width * 0.5 * w).ravel()


def deep_panel_integral(outer, source, potential, levels=20, order=10):
    """Integral over ``outer`` of ``potential(points, source)``, hp-graded.

    The outer triangle is split at its centroid into three triangles, each
    collapsed at the centroid, with composite Gauss nodes graded
    geometrically toward the outer boundary and toward its corners: every
    edge and corner the source can share with the outer triangle. The
    source's potential is continuous but not smooth there; the geometric
    grading restores exponential convergence.
    """
    outer = np.asarray(outer, dtype=float)
    s, ws = _geometric_gauss(levels, order)
    t = np.concatenate([0.5 - 0.5 * s, 0.5 + 0.5 * s])
    wt = np.concatenate([0.5 * ws, 0.5 * ws])
    ss, tt = np.meshgrid(s, t, indexing="ij")
    g = outer.mean(axis=0)
    total = 0.0
    for k in range(3):
        a, b = outer[k], outer[(k + 1) % 3]
        jac = np.linalg.norm(np.cross(a - g, b - g))
        pts = g + ss[..., None] * ((1.0 - tt)[..., None] * a + tt[..., None] * b - g)
        vals = potential(pts.reshape(-1, 3), source).reshape(ss.shape)
        total += jac * float(np.sum(np.outer(ws, wt) * ss * vals))
    return total
