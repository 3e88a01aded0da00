"""Capacitance functionals on an assembled Galerkin system.

The equilibrium density solves A_h sigma = b where b is the panel-area
vector (the weak form of "surface at potential 1"); the capacitance is
C = b^T sigma. Trial densities give certified lower bounds through the
Rayleigh quotient |b^T v|^2 / (v^T A_h v), and upper information through
the Gauss energy-per-charge functional (v^T A_h v) / (b^T v)^2 >= 1/C.
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
from .varprinciple import DENOM_EPS, QuotientValue, _vector

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


@dataclass(frozen=True)
class ChargeSolution:
    sigma: np.ndarray
    capacitance: float
    total_charge: float
    residual_norm: float
    solve_iterations: int


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

    ``direct`` uses a symmetric (Cholesky) factorization; ``cg`` runs
    Jacobi-preconditioned conjugate gradients to relative residual 1e-10.
    """
    mat = system.matrix
    b = system.areas
    n = system.n
    if method == "direct":
        try:
            factor = scipy.linalg.cho_factor(mat, lower=True)
        except scipy.linalg.LinAlgError as exc:
            raise SolveError(
                "symmetric factorization failed; the system is not SPD within "
                "round-off (run spd_check for diagnostics)"
            ) from exc
        sigma = scipy.linalg.cho_solve(factor, b)
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
        if info != 0:
            res = float(np.linalg.norm(mat @ sigma - b) / np.linalg.norm(b))
            raise SolveError(
                f"CG did not converge in {10 * n} iterations "
                f"(relative residual {res:.3e})"
            )
        iterations = count[0]
    else:
        raise VarcapError(f"unknown solver {method!r}; expected 'direct' or 'cg'")

    residual = float(np.linalg.norm(mat @ sigma - b) / np.linalg.norm(b))
    total_charge = float(b @ sigma)
    if not total_charge > 0:
        raise SolveError(f"non-positive capacitance {total_charge!r} from solve")
    sigma.setflags(write=False)
    return ChargeSolution(sigma, total_charge, total_charge, residual, iterations)


def rayleigh_bound(system: GalerkinSystem, v) -> QuotientValue:
    """Lower bound |b^T v|^2 / (v^T A_h v) for the capacitance.

    Degenerate denominators follow the zero convention and are flagged.
    """
    v = _vector(v, system.n, "v")
    av = system.matrix @ v
    denom = float(v @ av)
    norm_a = float(np.max(np.abs(system.matrix)))
    if abs(denom) <= DENOM_EPS * norm_a * float(v @ v):
        return QuotientValue(0.0, True)
    num = float(system.areas @ v) ** 2
    return QuotientValue(num / denom, False)


def gauss_functional(system: GalerkinSystem, v) -> float:
    """Energy per squared total charge, (v^T A_h v) / (b^T v)^2 >= 1/C."""
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
    full quadratic family, in nesting order.
    """
    x, y, z = centroids[:, 0], centroids[:, 1], centroids[:, 2]
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
