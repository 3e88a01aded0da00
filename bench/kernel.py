"""Fixed, seeded throughput probe of ``bem.triangle_potentials``.

The probe also checks a sample of the kernel's values against the
benchmark's own quadrature of the integral of 1/|x - s| over the triangle,
so that a faster kernel is shown to be right as well.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from varcap import bem

SEED = 2014
TRIANGLES = 48
POINTS = 8192
REPEATS = 3
CHECK_TRIANGLES = 8
CHECK_POINTS = 16
GAUSS_ORDER = 32
CHECK_RTOL = 1e-9


def _inputs():
    rng = np.random.default_rng(SEED)
    tris = []
    while len(tris) < TRIANGLES:
        tri = rng.uniform(-1.0, 1.0, (3, 3))
        if np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) > 0.2:
            tris.append(tri)
    return tris, rng.uniform(-3.0, 3.0, (POINTS, 3))


def reference_potential(point, tri) -> float:
    """Integral of 1/|point - s| over the triangle, by a collapsed Gauss rule.

    s = v0 + xi (v1 - v0) + xi eta (v2 - v1) maps the unit square onto the
    triangle with Jacobian 2 |T| xi; accurate for points off the triangle.
    """
    x, w = np.polynomial.legendre.leggauss(GAUSS_ORDER)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    xi, eta = np.meshgrid(x, x, indexing="ij")
    weight = np.outer(w, w) * xi
    s = tri[0] + xi[..., None] * (tri[1] - tri[0]) + (xi * eta)[..., None] * (tri[2] - tri[1])
    two_area = np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[1]))
    return float(two_area * np.sum(weight / np.linalg.norm(point - s, axis=-1)))


def measure() -> tuple[float, list[str]]:
    """Median evaluations per second over the repeats, and check problems."""
    tris, points = _inputs()
    rates = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for tri in tris:
            bem.triangle_potentials(points, tri)
        rates.append(TRIANGLES * POINTS / (time.perf_counter() - t0))
    problems = []
    for tri in tris[:CHECK_TRIANGLES]:
        centre = tri.mean(axis=0)
        radius = float(np.max(np.linalg.norm(tri - centre, axis=1)))
        far = points[np.linalg.norm(points - centre, axis=1) > 2.0 * radius][:CHECK_POINTS]
        values = bem.triangle_potentials(far, tri)
        for p, value in zip(far, values):
            ref = reference_potential(p, tri)
            if abs(value - ref) > CHECK_RTOL * ref:
                problems.append(f"triangle_potentials {value!r} against quadrature {ref!r}")
    return statistics.median(rates), problems
