"""Max-quotient principle for finite-dimensional symmetric operators.

For a real symmetric matrix A the quotient |(Av, u)|^2 / (Av, v) never
exceeds (Au, u) when A is positive semidefinite (Cauchy inequality), with
equality at v proportional to u. When A is indefinite the quotient is
unbounded along an explicit two-dimensional family v = lambda*z + w built
from a positive and a negative direction; :func:`find_witness` constructs
that family and sweeps toward the pole of the denominator.

A form is its two extreme eigenpairs: lambda_min >= 0 is exactly A >= 0, and
their eigenvectors are the witness family's directions. Both come from one
tridiagonal reduction at construction, of which nothing else is kept; no
dense eigendecomposition runs.

All operations are pure; the random probes always come from one fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    InconsistentWitnessError,
    NonFiniteInputError,
    VarcapError,
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

# Degeneracy band for the quotient denominator, relative to scale |v|^2
# (see _quotients).
DENOM_EPS = 1e-13

# Eigenvalue sign tolerance for classification, relative to ||A||.
SPECTRAL_EPS = 1e-10

# Witness sweep: geometric approach to the denominator pole.
SWEEP_STEPS = 40
APPROACH_FACTOR = 0.5

# verify_principle's random probes: this many unit directions, from this seed.
RANDOM_TRIALS = 1000
RANDOM_SEED = 0


@dataclass(frozen=True)
class SymmetricForm:
    """A real symmetric matrix with its spectral norm and two extreme eigenpairs.

    ``lambda_min`` and ``lambda_max``, which every sign test reads, are the
    ends of the spectrum, and ``w`` and ``z`` their unit eigenvectors, which
    :func:`find_witness` combines. All four come from one tridiagonal
    reduction at construction; its reflectors are dropped once they are used.
    """

    matrix: np.ndarray
    n: int
    norm: float
    lambda_min: float
    lambda_max: float
    w: np.ndarray = field(repr=False, compare=False)
    z: np.ndarray = field(repr=False, compare=False)

    @classmethod
    def from_matrix(cls, matrix) -> "SymmetricForm":
        """Symmetrize ``matrix``; asymmetry above 1e-8 max|entry| is an error."""
        m = _floats(matrix, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise DimensionMismatchError("matrix must have dimension >= 1")
        # Non-finite or overflowing values are errors, not NaN in a report.
        with np.errstate(over="ignore", invalid="ignore"):
            scale = float(np.max(np.abs(m)))
            asym = float(np.max(np.abs(m - m.T)))
            sym = 0.5 * (m + m.T)
        if scale > 0 and asym > 1e-8 * scale:
            raise AsymmetricMatrixError(
                f"matrix asymmetry {asym:.3e} exceeds 1.0e-08 * max|entry|"
            )
        if not np.all(np.isfinite(sym)):
            raise NonFiniteInputError("matrix is not finite, or overflows when symmetrized")
        sym.setflags(write=False)
        n = sym.shape[0]
        # The reduction runs on 2^-k A, whose entries lie within [-1, 1]. The
        # scaling is exact and stands in for the one eigvalsh's dsyevd applies
        # near the ends of the double range. The transpose of the fresh
        # C-ordered copy is the Fortran-ordered matrix dsytrd overwrites.
        k = math.frexp(scale)[1]
        lwork = int(lapack.dsytrd_lwork(n, lower=1)[0])
        reflectors, d, e, tau, info = lapack.dsytrd(
            np.ldexp(sym, -k).T, lower=1, lwork=lwork, overwrite_a=1
        )
        if info != 0:
            raise NonFiniteInputError(f"eigendecomposition failed: LAPACK info {info}")
        evals, w, z = _extreme_eigenpairs(d, e, reflectors, tau)
        with np.errstate(over="ignore"):
            evals = np.ldexp(evals, k)
        if not np.all(np.isfinite(evals)):
            raise NonFiniteInputError("eigenvalues overflow the double range")
        w.setflags(write=False)
        z.setflags(write=False)
        lambda_min, lambda_max = evals.tolist()
        return cls(sym, n, max(lambda_max, -lambda_min), lambda_min, lambda_max, w, z)


def _extreme_eigenpairs(d, e, reflectors, tau):
    """T's smallest and largest eigenvalue, and A's unit eigenvectors w and z.

    T = Q^T (2^-k A) Q, as LAPACK's dsytrd (lower) leaves it: ``d`` and ``e``
    hold T, and Q is the product of the Householder reflectors stored below
    the subdiagonal of ``reflectors``, with factors ``tau``. T's two eigenpairs
    come from bisection and inverse iteration (stebz and stein); one dormqr
    call applies Q to both eigenvectors. Q leaves the first coordinate alone,
    and its reflectors act on the rest.
    """
    n = len(d)
    (top,), z = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))
    (bottom,), w = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    y = np.hstack([z, w])
    if n > 1:
        # lwork 2, the column count, runs the unblocked dorm2r: for two columns
        # it took 0.3 ms at n = 800 against 0.8 ms for the blocked dormqr.
        y[1:] = lapack.dormqr("L", "N", reflectors[1:, :-1], tau, y[1:], 2)[0]
    return np.array([bottom, top]), y[:, 1].copy(), y[:, 0].copy()


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
    The sweep stops about 1e-12 ||A|| |v|^2 from the pole, so ``quotient``
    carries 3-4 significant digits: over 200 seeded forms it deviates by up
    to 4.1e-4 relative from (lambda alpha + beta)^2 / (a (lambda - lambda1)
    (lambda - lambda2)), alpha and beta the components of Au along z and w.
    It only has to exceed (Au, u).
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
    holds_on_probes: bool  # no probe beat (Au, u) beyond round-off, and u attains it
    consistent: bool  # the probes agree with the classification


def _floats(x, name: str) -> np.ndarray:
    """``x`` as a float64 array; ragged or non-numeric input is a VarcapError.

    The dtype is inferred first, so strings, booleans alone and ``None`` are
    rejected instead of converted; a boolean among numbers becomes a number.
    """
    try:
        a = np.asarray(x)
    except ValueError as exc:
        raise VarcapError(f"{name} is not a rectangular array of numbers: {exc}") from exc
    if a.dtype.kind not in "iuf":
        raise VarcapError(f"{name} is not a rectangular array of numbers: dtype {a.dtype}")
    return a.astype(np.float64, copy=False)


def _vector(x, n: int, name: str) -> np.ndarray:
    v = _floats(x, name)
    if v.shape != (n,):
        raise DimensionMismatchError(
            f"{name} must have shape ({n},), got {v.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise NonFiniteInputError(f"{name} contains non-finite entries")
    return v


def _quotients(matrix: np.ndarray, au: np.ndarray, vs: np.ndarray, scale: float):
    """(v.Au)^2 / (v.Av) for each row v of ``vs``, and which rows are degenerate.

    A row is degenerate, and its value 0, when |v.Av| <= DENOM_EPS scale |v|^2:
    the paper's convention for (Av, v) = 0. Taken as (v.Au) ((v.Au) / (v.Av)),
    a value overflows only when it, not (v.Au)^2, leaves the double range.
    quotient, verify_principle, find_witness and capacitance.rayleigh_bound
    evaluate their quotients here. The maximum over a span of trial densities
    has a closed form, which capacitance._span_maximum alone evaluates
    (zeroth_capacitance, subspace_bound and bound_ledger); gauss_functional is 1/Q.
    """
    denoms = np.einsum("ij,ij->i", vs, vs @ matrix)
    degenerate = np.abs(denoms) <= DENOM_EPS * scale * np.einsum("ij,ij->i", vs, vs)
    num = vs @ au
    values = np.divide(num, denoms, out=np.zeros(len(vs)), where=~degenerate)
    return np.multiply(values, num, out=values, where=~degenerate), degenerate


def quotient(form: SymmetricForm, u, v) -> QuotientValue:
    """Evaluate |(Av, u)|^2 / (Av, v), zero in the degeneracy band."""
    u = _vector(u, form.n, "u")
    v = _vector(v, form.n, "v")
    values, degenerate = _quotients(form.matrix, form.matrix @ u, v[None], form.norm)
    return QuotientValue(float(values[0]), bool(degenerate[0]))


def classify(form: SymmetricForm) -> str:
    """Sign classification by eigenvalues: nonneg, nonpos, indefinite or zero."""
    tol = SPECTRAL_EPS * form.norm
    has_pos = form.lambda_max > tol
    has_neg = form.lambda_min < -tol
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
    z, w = form.z, form.w
    a = float(z @ form.matrix @ z)
    c = float(w @ form.matrix @ w)
    b = float(z @ form.matrix @ w)
    if a <= 0 or c >= 0:
        raise InconsistentWitnessError(
            f"extreme eigendirections gave a = {a!r}, c = {c!r}; expected a > 0 > c"
        )
    # The roots do not change when a, b and c are scaled by a power of two,
    # which keeps b^2 - ac in the double range at any ||A||.
    k = math.frexp(max(a, -c, abs(b)))[1]
    a_k, b_k, c_k = (math.ldexp(x, -k) for x in (a, b, c))
    disc = math.sqrt(b_k * b_k - a_k * c_k)
    lambda1 = (-b_k - disc) / a_k
    lambda2 = (-b_k + disc) / a_k

    au = form.matrix @ u
    alpha = float(au @ z)
    beta = float(au @ w)
    # |Au| as max|Au| |Au / max|Au||, which neither underflows nor overflows.
    au_max = float(np.max(np.abs(au)))
    au_norm = au_max and au_max * float(np.linalg.norm(au / au_max))
    if max(abs(alpha), abs(beta)) <= 1e-12 * au_norm or au_norm == 0.0:
        return None  # numerator vanishes identically on span{z, w}

    # Candidates lambda1 - delta and lambda2 + delta for each step toward the
    # poles, evaluated as one batch. Near a pole a batch row and a single
    # quotient call round differently, so the chosen one is evaluated again
    # and the witness reports what quotient() gives for v_star.
    deltas = 0.5 * min(-lambda1, lambda2) * APPROACH_FACTOR ** np.arange(SWEEP_STEPS)
    lams = np.column_stack([lambda1 - deltas, lambda2 + deltas]).ravel()
    # Near the pole of a form close to the double range a quotient can
    # overflow; such candidates are skipped like degenerate ones.
    with np.errstate(over="ignore"):
        values, degenerate = _quotients(form.matrix, au, lams[:, None] * z + w, form.norm)
    usable = ~degenerate & np.isfinite(values)
    if not usable.any():
        return None
    k = int(np.argmax(np.where(usable, values, -np.inf)))
    lam_star = float(lams[k])
    v_star = lam_star * z + w
    q_star = quotient(form, u, v_star).value
    v_star.setflags(write=False)
    return IndefinitenessWitness(
        z, w, a, b, c, lambda1, lambda2, lam_star, v_star, q_star
    )


def verify_principle(form: SymmetricForm, u) -> PrincipleReport:
    """Probe the principle at v = u, random unit vectors and the witness.

    Deterministic: RANDOM_TRIALS directions come from RANDOM_SEED. For
    indefinite operators whose witness search comes back empty (or not
    exceeding (Au, u)), 10,000 more random directions are probed.
    """
    u = _vector(u, form.n, "u")
    cls = classify(form)
    with np.errstate(over="ignore", invalid="ignore"):
        au = form.matrix @ u
        qfu = float(u @ au)
    if not math.isfinite(qfu):
        raise NonFiniteInputError(f"(Au, u) = {qfu} overflows the double range")
    at_u = float(_quotients(form.matrix, au, u[None], form.norm)[0][0])
    rng = np.random.default_rng(RANDOM_SEED)

    def random_best(trials: int) -> float:
        v = rng.standard_normal((trials, form.n))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return float(np.max(_quotients(form.matrix, au, v, form.norm)[0]))

    best = max(at_u, random_best(RANDOM_TRIALS))

    witness = None
    if cls == "indefinite":
        witness = find_witness(form, u)
        if witness is not None:
            best = max(best, witness.quotient)
        if witness is None or witness.quotient <= qfu:
            best = max(best, random_best(10_000))

    attained = abs(at_u - qfu) <= 1e-10 * (1.0 + abs(qfu))
    # The quotient scales with ||A|| |u|^2, and so does the slack.
    slack = 1e-12 * form.norm * float(u @ u)
    holds = best <= qfu * (1.0 + 1e-8) + slack and attained
    # The principle must hold for nonneg forms (a zero form counts as one),
    # the witness beat (Au, u) for indefinite ones, and the principle fail
    # for nonpos ones.
    report_cls = "nonneg" if cls == "zero" else cls
    consistent = {"nonneg": holds, "indefinite": best > qfu, "nonpos": not holds}[report_cls]
    return PrincipleReport(report_cls, qfu, best, attained, witness, holds, consistent)
