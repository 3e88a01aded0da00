"""Capacitance functionals on an assembled Galerkin system.

The equilibrium density solves A_h sigma = b where b is the panel-area
vector (the weak form of "surface at potential 1"); the capacitance is
C_h = b^T sigma. Trial densities give lower bounds on C_h through the
Rayleigh quotient |b^T v|^2 / (v^T A_h v), maximized over a span by
_span_maximum alone, and upper information through the Gauss
energy-per-charge functional (v^T A_h v) / (b^T v)^2 >= 1/C_h.
They bound the true C only up to the quadrature error in A_h.
The constant density yields the zeroth approximation
C0 = 4 pi |S|^2 / J with J the double surface integral of 1/r.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from .bem import FOUR_PI, GalerkinSystem, _certified_cholesky
from .errors import SolveError, VarcapError, ZeroTotalChargeError
from .varprinciple import QuotientValue, _quotients, _vector

__all__ = [
    "ChargeSolution",
    "BoundLedger",
    "ZerothApproximation",
    "solve_capacitance",
    "rayleigh_bound",
    "subspace_bound",
    "gauss_functional",
    "zeroth_capacitance",
    "bound_ledger",
    "trial_families",
]

CG_RTOL = 1e-10
SV_CUTOFF = 1e-12  # relative singular-value cutoff for rank-deficient Gram matrices
REFINE_STEPS = 5  # iterative-refinement steps after the shifted direct solve
REFINE_RTOL = 1e-12  # scaled relative residual the refined direct solve must reach


@dataclass(frozen=True)
class ChargeSolution:
    sigma: np.ndarray
    capacitance: float
    residual_norm: float
    solve_iterations: int
    lambda_min_lower_bound: float | None  # proven by the direct solve; None for cg


@dataclass(frozen=True)
class ZerothApproximation:
    c_zeroth: float
    j_integral: float


@dataclass(frozen=True)
class BoundLedger:
    c_zeroth: float
    j_integral: float
    subspace_bounds: tuple[tuple[str, float], ...]
    gauss_at_sigma: float
    capacitance: float


def solve_capacitance(system: GalerkinSystem, method: str = "direct") -> ChargeSolution:
    """Solve A_h sigma = b for the equilibrium panel densities.

    ``direct`` factors A_h - tau D once (``_certified_cholesky``), which both
    proves A_h positive definite and solves. Iterative refinement from
    sigma = 0 against the full A_h, the matrix every reader multiplies with,
    keeps each step sigma + solve(b - A_h sigma) that at least halves the
    diagonally scaled residual D^-1/2 (b - A_h sigma), at most
    ``REFINE_STEPS + 1`` of them; the solve fails unless that residual ends
    below ``REFINE_RTOL`` of D^-1/2 b. ``cg`` runs Jacobi-preconditioned
    conjugate gradients to relative residual 1e-10 and proves nothing.
    """
    mat = system.matrix
    b = system.areas
    n = system.n
    if method == "direct":
        solve, lambda_bound = _certified_cholesky(mat)
        scale = 1.0 / np.sqrt(mat.diagonal())
        sigma, res = np.zeros(n), b
        size = start = float(np.linalg.norm(scale * b))
        for _ in range(REFINE_STEPS + 1):
            step = sigma + solve(res)
            step_res = b - mat @ step
            step_size = float(np.linalg.norm(scale * step_res))
            if not step_size <= 0.5 * size:
                break
            sigma, res, size = step, step_res, step_size
        if not size <= REFINE_RTOL * start:
            raise SolveError(
                f"iterative refinement of the shifted Cholesky solve stalled at "
                f"scaled residual {size:.3e}; A_h is too close to singular"
            )
        iterations = 0
    elif method == "cg":
        steps = []  # one entry per CG iteration
        diag = mat.diagonal()
        precond = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda x: x / diag
        )
        sigma, info = scipy.sparse.linalg.cg(
            mat, b, rtol=CG_RTOL, atol=0.0, maxiter=10 * n, M=precond,
            callback=lambda _: steps.append(None),
        )
        res = b - mat @ sigma
        if info != 0:
            raise SolveError(
                f"CG did not converge in {10 * n} iterations (relative "
                f"residual {np.linalg.norm(res) / np.linalg.norm(b):.3e})"
            )
        iterations = len(steps)
        lambda_bound = None
    else:
        raise VarcapError(f"unknown solver {method!r}; expected 'direct' or 'cg'")

    residual = float(np.linalg.norm(res) / np.linalg.norm(b))
    capacitance = float(b @ sigma)
    if not capacitance > 0:
        raise SolveError(f"non-positive capacitance {capacitance!r} from solve")
    sigma.setflags(write=False)
    return ChargeSolution(sigma, capacitance, residual, iterations, lambda_bound)


def rayleigh_bound(system: GalerkinSystem, v) -> QuotientValue:
    """Lower bound |b^T v|^2 / (v^T A_h v) on the discrete capacitance C_h.

    Denominators within DENOM_EPS max|A_h| |v|^2 of zero follow the zero
    convention and are flagged.
    """
    v = _vector(v, system.n, "v")
    scale = float(max(system.matrix.max(), -system.matrix.min()))  # max|A_h|, no temporary
    values, degenerate = _quotients(system.matrix, system.areas, v[None], scale)
    return QuotientValue(float(values[0]), bool(degenerate[0]))


def gauss_functional(system: GalerkinSystem, v) -> float:
    """Energy per squared total charge, (v^T A_h v) / (b^T v)^2 >= 1/C_h."""
    v = _vector(v, system.n, "v")
    q = float(system.areas @ v)
    if abs(q) <= 1e-13 * float(np.linalg.norm(system.areas)) * float(np.linalg.norm(v)):
        raise ZeroTotalChargeError(
            "trial density carries (numerically) zero total charge"
        )
    return float(v @ system.matrix @ v) / (q * q)


def _moments(system: GalerkinSystem, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """g = V^T b and G = V^T A_h V for the columns V of ``basis``, one product with A_h."""
    return basis.T @ system.areas, basis.T @ (system.matrix @ basis)


def _span_maximum(g: np.ndarray, gram: np.ndarray) -> float:
    """Exact maximum of |b^T v|^2 / (v^T A_h v) over span V: g^T G^+ g, from _moments.

    G's eigenvalues up to SV_CUTOFF times the largest are dropped, so a
    rank-deficient family gives the maximum over its span.
    """
    evals, evecs = np.linalg.eigh(0.5 * (gram + gram.T))
    cutoff = SV_CUTOFF * float(evals[-1]) if evals[-1] > 0 else np.inf
    keep = evals > cutoff
    if not np.any(keep):
        raise VarcapError("trial family is degenerate on the panel basis")
    coeffs = evecs.T @ g
    return float(np.sum(coeffs[keep] ** 2 / evals[keep]))


def zeroth_capacitance(system: GalerkinSystem) -> ZerothApproximation:
    """Constant-density bound C0 = 4 pi |S|^2 / J over span{1}: J = 4 pi 1^T A_h 1."""
    g, gram = _moments(system, np.ones((system.n, 1)))
    return ZerothApproximation(_span_maximum(g, gram), FOUR_PI * float(gram[0, 0]))


def subspace_bound(system: GalerkinSystem, family) -> float:
    """Exact maximum of the Rayleigh functional over span of the family."""
    vectors = [_vector(v, system.n, f"family[{k}]") for k, v in enumerate(family)]
    if not vectors:
        raise VarcapError("trial family is empty")
    return _span_maximum(*_moments(system, np.column_stack(vectors)))


def trial_families(centroids: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Nested built-in trial families: monomials in centroid coordinates.

    Returns (name, columns) pairs for span{1}, span{1, x, y, z} and the
    quadratic family: leading slices of one 10-column array. The coordinates
    are centred on the mean centroid and divided by the largest centroid
    distance from it, so the columns, and the bounds they give, do not
    depend on where the conductor sits or how large it is.
    """
    centred = centroids - centroids.mean(axis=0)
    x, y, z = (centred / (np.max(np.linalg.norm(centred, axis=1)) or 1.0)).T
    cols = np.column_stack([np.ones(len(centroids)), x, y, z,
                            x * x, y * y, z * z, x * y, y * z, z * x])
    return [("constant", cols[:, :1]), ("linear", cols[:, :4]), ("quadratic", cols)]


def bound_ledger(system: GalerkinSystem, solution: ChargeSolution) -> BoundLedger:
    """C0 (the constant family's bound), then the other families' bounds and the
    Gauss value G_ss / (b^T sigma)^2 from one Gram matrix G of [monomials | sigma].

    Raises DimensionMismatchError, or VarcapError if b^T sigma is not the
    solution's C to 1e-12: the solution belongs to another system.
    """
    sigma = _vector(solution.sigma, system.n, "sigma")
    zeroth = zeroth_capacitance(system)
    families = trial_families(system.centroids)
    g, gram = _moments(system, np.column_stack([families[-1][1], sigma]))
    c = solution.capacitance
    if not abs(g[-1] - c) <= 1e-12 * abs(c):
        raise VarcapError(f"b^T sigma = {g[-1]!r} is not the solution's C = {c!r}: "
                          "the solution belongs to another system")
    bounds = [("constant", zeroth.c_zeroth)]
    for name, cols in families[1:]:
        lead = slice(cols.shape[1])
        bounds.append((name, _span_maximum(g[lead], gram[lead, lead])))
    gauss = float(gram[-1, -1]) / float(g[-1]) ** 2
    return BoundLedger(zeroth.c_zeroth, zeroth.j_integral, tuple(bounds), gauss, c)
