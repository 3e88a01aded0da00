"""Max-quotient principle for finite-dimensional symmetric operators.

For a real symmetric matrix A the quotient |(Av, u)|^2 / (Av, v) never
exceeds (Au, u) when A is positive semidefinite (Cauchy inequality), with
equality at v proportional to u. When A is indefinite the quotient is
unbounded along an explicit two-dimensional family v = lambda*z + w built
from a positive and a negative direction; :func:`find_witness` constructs
that family and sweeps toward the pole of the denominator.

All operations are pure; randomness always comes from an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    InconsistentWitnessError,
    NonFiniteInputError,
)

__all__ = [
    "SymmetricForm",
    "QuotientValue",
    "IndefinitenessWitness",
    "PrincipleReport",
    "quotient",
    "classify",
    "find_witness",
    "verify_principle",
    "DENOM_EPS",
    "SPECTRAL_EPS",
]

# Degeneracy band for the quotient denominator, relative to ||A|| ||v||^2.
DENOM_EPS = 1e-13

# Eigenvalue sign tolerance for classification, relative to ||A||.
SPECTRAL_EPS = 1e-10

# Witness sweep: geometric approach to the denominator pole.
SWEEP_STEPS = 40
APPROACH_FACTOR = 0.5


@dataclass(frozen=True)
class SymmetricForm:
    """A real symmetric matrix with its ascending eigenvalues and spectral norm.

    The eigenvalues come from one dense decomposition at construction, which
    every later sign test reads.
    """

    matrix: np.ndarray
    n: int
    norm: float
    eigenvalues: np.ndarray

    @classmethod
    def from_matrix(cls, matrix) -> "SymmetricForm":
        """Symmetrize ``matrix``; asymmetry above 1e-8 max|entry| is an error."""
        m = np.array(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionMismatchError("matrix must have dimension >= 1")
        if not np.all(np.isfinite(m)):
            raise NonFiniteInputError("matrix contains non-finite entries")
        scale = float(np.max(np.abs(m)))
        asym = float(np.max(np.abs(m - m.T)))
        if scale > 0 and asym > 1e-8 * scale:
            raise AsymmetricMatrixError(
                f"matrix asymmetry {asym:.3e} exceeds 1.0e-08 * max|entry|"
            )
        sym = 0.5 * (m + m.T)
        sym.setflags(write=False)
        try:
            evals = np.linalg.eigvalsh(sym)
        except np.linalg.LinAlgError as exc:
            raise NonFiniteInputError(f"eigendecomposition failed: {exc}") from exc
        evals.setflags(write=False)
        norm = float(max(evals[-1], -evals[0]))
        return cls(sym, sym.shape[0], norm, evals)


@dataclass(frozen=True)
class QuotientValue:
    """Quotient value with the (Av, v) = 0 convention flagged explicitly."""

    value: float
    degenerate: bool = False


@dataclass(frozen=True)
class IndefinitenessWitness:
    """Explicit unboundedness certificate for an indefinite operator.

    z and w are unit eigenvectors with (Az, z) = a > 0 and (Aw, w) = c < 0;
    lambda1 < 0 < lambda2 are the roots of q(l) = a l^2 + 2 b l + c, and
    v_star = lambda_star * z + w realizes ``quotient`` just outside a root.
    """

    z: np.ndarray
    w: np.ndarray
    a: float
    b: float
    c: float
    lambda1: float
    lambda2: float
    lambda_star: float
    v_star: np.ndarray
    quotient: float


@dataclass(frozen=True)
class PrincipleReport:
    classification: str           # nonneg | indefinite | nonpos
    quadratic_form_at_u: float
    best_quotient: float
    attained_at_u: bool
    witness: Optional[IndefinitenessWitness]


def _vector(x, n: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (n,):
        raise DimensionMismatchError(
            f"{name} must have shape ({n},), got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise NonFiniteInputError(f"{name} contains non-finite entries")
    return v


def quotient(form: SymmetricForm, u, v) -> QuotientValue:
    """Evaluate |(Av, u)|^2 / (Av, v), zero in the degeneracy band."""
    u = _vector(u, form.n, "u")
    v = _vector(v, form.n, "v")
    av = form.matrix @ v
    denom = float(v @ av)
    if abs(denom) <= DENOM_EPS * form.norm * float(v @ v):
        return QuotientValue(0.0, True)
    num = float(u @ av) ** 2
    return QuotientValue(num / denom, False)


def classify(form: SymmetricForm) -> str:
    """Sign classification by eigenvalues: nonneg, nonpos, indefinite or zero."""
    evals = form.eigenvalues
    tol = SPECTRAL_EPS * form.norm
    has_pos = bool(evals[-1] > tol)
    has_neg = bool(evals[0] < -tol)
    if has_pos and has_neg:
        return "indefinite"
    if has_pos:
        return "nonneg"
    if has_neg:
        return "nonpos"
    return "zero"


def find_witness(form: SymmetricForm, u) -> Optional[IndefinitenessWitness]:
    """Construct v = lambda*z + w with an unbounded quotient, if one exists.

    Returns None for operators that are not indefinite, and for the measure-
    zero case where Au is orthogonal to both eigendirections (the numerator
    polynomial then shares every root of the denominator, so the quotient is
    bounded along this particular family).
    """
    u = _vector(u, form.n, "u")
    if classify(form) != "indefinite":
        return None
    evals, evecs = np.linalg.eigh(form.matrix)
    z = evecs[:, -1].copy()
    w = evecs[:, 0].copy()
    a = float(z @ form.matrix @ z)
    c = float(w @ form.matrix @ w)
    b = float(z @ form.matrix @ w)
    if a <= 0 or c >= 0:
        raise InconsistentWitnessError(
            f"extreme eigendirections gave a = {a!r}, c = {c!r}; expected a > 0 > c"
        )
    disc = math.sqrt(b * b - a * c)
    lambda1 = (-b - disc) / a
    lambda2 = (-b + disc) / a

    au = form.matrix @ u
    alpha = float(au @ z)
    beta = float(au @ w)
    au_norm = float(np.linalg.norm(au))
    if max(abs(alpha), abs(beta)) <= 1e-12 * au_norm or au_norm == 0.0:
        return None  # numerator vanishes identically on span{z, w}

    delta0 = 0.5 * min(-lambda1, lambda2)
    best = None
    for k in range(SWEEP_STEPS):
        delta = delta0 * APPROACH_FACTOR**k
        for lam in (lambda1 - delta, lambda2 + delta):
            v = lam * z + w
            q = quotient(form, u, v)
            if q.degenerate:
                continue
            if best is None or q.value > best[2]:
                best = (lam, v, q.value)
    if best is None:
        return None
    lam_star, v_star, q_star = best
    z.setflags(write=False)
    w.setflags(write=False)
    v_star.setflags(write=False)
    return IndefinitenessWitness(
        z, w, a, b, c, lambda1, lambda2, lam_star, v_star, q_star
    )


def verify_principle(
    form: SymmetricForm, u, random_trials: int = 1000, seed: int = 0
) -> PrincipleReport:
    """Probe the principle at v = u, random unit vectors and the witness.

    Deterministic for a fixed seed. For indefinite operators whose witness
    search comes back empty (or not exceeding (Au, u)), 10,000 more random
    directions are probed.
    """
    u = _vector(u, form.n, "u")
    if random_trials < 1:
        raise ValueError(f"random_trials must be >= 1, got {random_trials}")
    cls = classify(form)
    qfu = float(u @ form.matrix @ u)
    at_u = quotient(form, u, u)
    best = at_u.value

    rng = np.random.default_rng(seed)

    def random_best(trials: int) -> float:
        v = rng.standard_normal((trials, form.n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        av = v @ form.matrix
        denoms = np.einsum("ij,ij->i", v, av)
        nums = (av @ u) ** 2
        ok = np.abs(denoms) > DENOM_EPS * form.norm  # rows are unit vectors
        if not np.any(ok):
            return 0.0
        return float(np.max(nums[ok] / denoms[ok]))

    best = max(best, random_best(int(random_trials)))

    witness = None
    if cls == "indefinite":
        witness = find_witness(form, u)
        if witness is not None:
            best = max(best, witness.quotient)
        if witness is None or witness.quotient <= qfu:
            best = max(best, random_best(10_000))

    attained = abs(at_u.value - qfu) <= 1e-10 * (1.0 + abs(qfu))
    report_cls = "nonneg" if cls == "zero" else cls
    return PrincipleReport(report_cls, qfu, best, attained, witness)
