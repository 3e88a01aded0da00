"""Capacitance functionals on an assembled Galerkin system.

The equilibrium density solves A_h sigma = b where b is the panel-area
vector (the weak form of "surface at potential 1"); the capacitance is
C_h = b^T sigma. Trial densities give lower bounds on C_h through the
Rayleigh quotient |b^T v|^2 / (v^T A_h v), and upper information through
the Gauss energy-per-charge functional (v^T A_h v) / (b^T v)^2 >= 1/C_h.
They bound the true C only up to the quadrature error in A_h.
The constant density yields the zeroth approximation
C0 = 4 pi |S|^2 / J with J the double surface integral of 1/r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .bem import FOUR_PI, GalerkinSystem
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
UNIT_ROUNDOFF = 2.0**-53
ETA = 2.0**-1074  # smallest positive subnormal double
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


def _certified_cholesky(mat: np.ndarray) -> tuple[tuple[np.ndarray, bool], float]:
    """Cholesky factor of A - tau D, and a proven lower bound on lambda_min(A).

    D = diag(A) and tau = 2 gamma_{n+1} n. The shift is relative to each
    diagonal entry, so the proof, like plain Cholesky, does not depend on
    how the rows of A are scaled: it is made for H = D^-1/2 A D^-1/2, whose
    diagonal is 1. If the floating-point factorization of the shifted matrix
    M runs to completion, Demmel's backward-error bound (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3) gives
    |dM_ij| <= gamma_{n+1} sqrt(m_ii m_jj) / (1 - gamma_{n+1}) with
    m_ii <= d_i, so lambda_min(H) >= beta_H = s - gamma_{n+1} n / (1 - gamma_{n+1}),
    where s = min_i (d_i - m_ii) / d_i is the shift actually stored, close to
    tau. beta_H also deducts an allowance for underflow after Rump (BIT 46,
    2006), and lambda_min(A) >= min(d) beta_H. The shift is made in place on
    the one copy that is factored; only A's lower triangle is read.
    """
    n = len(mat)
    u = UNIT_ROUNDOFF
    g = (n + 1) * u / (1.0 - (n + 1) * u)  # Higham's gamma_{n+1}
    tau = 2.0 * g * n
    diag = mat.diagonal()
    shifted = diag * (1.0 - tau)
    work = mat.copy()
    np.fill_diagonal(work, shifted)
    failed = SolveError(
        f"shifted Cholesky could not prove A_h positive definite (tau = {tau:.6g})"
    )
    try:
        # work.T is Fortran-ordered and its upper triangle is A's lower one,
        # so LAPACK factors it in place without another copy.
        factor = scipy.linalg.cho_factor(work.T, lower=False, overwrite_a=True)
    except scipy.linalg.LinAlgError as exc:
        raise failed from exc
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
    return factor, beta


def solve_capacitance(system: GalerkinSystem, method: str = "direct") -> ChargeSolution:
    """Solve A_h sigma = b for the equilibrium panel densities.

    ``direct`` factors A_h - tau D once (``_certified_cholesky``), which both
    proves A_h positive definite and solves. Iterative refinement against
    A_h removes the shift's effect: it runs while each step at least halves
    the diagonally scaled residual D^-1/2 (b - A_h sigma), at most
    ``REFINE_STEPS`` times, and the solve fails unless that residual ends
    below ``REFINE_RTOL`` of D^-1/2 b. ``cg`` runs Jacobi-preconditioned
    conjugate gradients to relative residual 1e-10 and proves nothing.
    """
    mat = system.matrix
    b = system.areas
    n = system.n
    if method == "direct":
        factor, lambda_bound = _certified_cholesky(mat)
        # cho_factor checked A_h for inf and NaN, so the solves skip the
        # O(n^2) scan of the factor.
        scale = 1.0 / np.sqrt(mat.diagonal())
        sigma = scipy.linalg.cho_solve(factor, b, check_finite=False)
        res = b - mat @ sigma
        size = float(np.linalg.norm(scale * res))
        for _ in range(REFINE_STEPS):
            step = sigma + scipy.linalg.cho_solve(factor, res, check_finite=False)
            step_res = b - mat @ step
            step_size = float(np.linalg.norm(scale * step_res))
            if not step_size <= 0.5 * size:
                break
            sigma, res, size = step, step_res, step_size
        if not size <= REFINE_RTOL * float(np.linalg.norm(scale * b)):
            raise SolveError(
                f"iterative refinement of the shifted Cholesky solve stalled at "
                f"scaled residual {size:.3e}; A_h is too close to singular"
            )
        iterations = 0
    elif method == "cg":
        count = [0]

        def cb(_):
            count[0] += 1

        diag = mat.diagonal()
        precond = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=lambda x: x / diag
        )
        sigma, info = scipy.sparse.linalg.cg(
            mat, b, rtol=CG_RTOL, atol=0.0, maxiter=10 * n, M=precond, callback=cb
        )
        res = b - mat @ sigma
        if info != 0:
            raise SolveError(
                f"CG did not converge in {10 * n} iterations (relative "
                f"residual {np.linalg.norm(res) / np.linalg.norm(b):.3e})"
            )
        iterations = count[0]
        lambda_bound = None
    else:
        raise VarcapError(f"unknown solver {method!r}; expected 'direct' or 'cg'")

    # res is b - A_h sigma: the direct branch's last accepted residual.
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
    scale = float(np.max(np.abs(system.matrix)))
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


def zeroth_capacitance(system: GalerkinSystem) -> ZerothApproximation:
    """Constant-density bound C0 = 4 pi |S|^2 / J, J the 1/r double integral."""
    ones = np.ones(system.n)
    energy = float(ones @ system.matrix @ ones)  # carries the 1/(4 pi) factor
    j_integral = FOUR_PI * energy
    c_zeroth = system.total_area**2 / energy
    return ZerothApproximation(c_zeroth, j_integral)


def subspace_bound(system: GalerkinSystem, family) -> float:
    """Exact maximum of the Rayleigh functional over span of the family.

    With g_i = b^T v_i and G_ij = v_i^T A_h v_j this is g^T G^{-1} g;
    rank-deficient Gram matrices fall back to a truncated pseudo-solve.
    """
    vectors = [_vector(v, system.n, f"family[{k}]") for k, v in enumerate(family)]
    if not vectors:
        raise VarcapError("trial family is empty")
    basis = np.column_stack(vectors)
    g = basis.T @ system.areas
    gram = basis.T @ (system.matrix @ basis)
    gram = 0.5 * (gram + gram.T)
    evals, evecs = np.linalg.eigh(gram)
    cutoff = SV_CUTOFF * float(evals[-1]) if evals[-1] > 0 else np.inf
    keep = evals > cutoff
    if not np.any(keep):
        raise VarcapError("trial family is degenerate on the panel basis")
    coeffs = evecs.T @ g
    return float(np.sum(coeffs[keep] ** 2 / evals[keep]))


def trial_families(centroids: np.ndarray) -> list[tuple[str, np.ndarray]]:
    """Nested built-in trial families: monomials in centroid coordinates.

    Returns (name, columns) pairs for span{1}, span{1, x, y, z} and the
    full quadratic family, in nesting order. The coordinates are centred on
    the mean centroid and divided by the largest centroid distance from it,
    so the columns, and the bounds they give, do not depend on where the
    conductor sits or how large it is.
    """
    centred = centroids - centroids.mean(axis=0)
    x, y, z = (centred / (np.max(np.linalg.norm(centred, axis=1)) or 1.0)).T
    one = np.ones(len(centroids))
    linear = [one, x, y, z]
    quadratic = linear + [x * x, y * y, z * z, x * y, y * z, z * x]
    return [
        ("constant", np.column_stack([one])),
        ("linear", np.column_stack(linear)),
        ("quadratic", np.column_stack(quadratic)),
    ]


def bound_ledger(system: GalerkinSystem, solution: ChargeSolution) -> BoundLedger:
    """Collect the zeroth bound, nested subspace bounds and the Gauss value."""
    zeroth = zeroth_capacitance(system)
    bounds = tuple(
        (name, subspace_bound(system, cols.T))
        for name, cols in trial_families(system.centroids)
    )
    gauss = gauss_functional(system, solution.sigma)
    return BoundLedger(zeroth.c_zeroth, zeroth.j_integral, bounds, gauss, solution.capacitance)
