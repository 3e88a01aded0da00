"""Max-quotient principle: sufficiency, necessity and edge cases."""

import math

import numpy as np
import pytest
import scipy.linalg

from varcap import (
    SymmetricForm,
    classify,
    find_witness,
    quotient,
    verify_principle,
)
from varcap.errors import (
    AsymmetricMatrixError,
    DimensionMismatchError,
    NonFiniteInputError,
)
from varcap.varprinciple import APPROACH_FACTOR, SWEEP_STEPS


def random_spd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.1, 10.0, n)
    return (q * d) @ q.T


def random_indefinite(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    d = rng.uniform(0.1, 10.0, n)
    d[rng.integers(0, n)] *= -1.0
    return (q * d) @ q.T


class TestSymmetricForm:
    def test_rejects_asymmetric(self):
        with pytest.raises(AsymmetricMatrixError):
            SymmetricForm.from_matrix([[1.0, 2.0], [0.0, 1.0]])

    def test_symmetrizes_roundoff(self):
        m = np.array([[1.0, 2.0 + 1e-12], [2.0, 1.0]])
        form = SymmetricForm.from_matrix(m)
        assert np.array_equal(form.matrix, form.matrix.T)
        assert form.norm == pytest.approx(3.0, rel=1e-9)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionMismatchError):
            SymmetricForm.from_matrix(np.ones((2, 3)))
        with pytest.raises(NonFiniteInputError):
            SymmetricForm.from_matrix([[np.inf]])


class TestQuotient:
    def test_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        form = SymmetricForm.from_matrix(random_spd(rng, 5))
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        av = form.matrix @ v
        expected = (u @ av) ** 2 / (v @ av)
        q = quotient(form, u, v)
        assert not q.degenerate
        assert q.value == pytest.approx(expected, rel=1e-14)

    def test_zero_denominator_convention(self):
        form = SymmetricForm.from_matrix(np.diag([1.0, -1.0]))
        # (Av, v) = 0 on the diagonal directions of the light cone.
        q = quotient(form, [1.0, 0.0], [1.0, 1.0])
        assert q.degenerate and q.value == 0.0

    def test_scale_invariance_in_v(self):
        rng = np.random.default_rng(4)
        form = SymmetricForm.from_matrix(random_spd(rng, 6))
        u = rng.standard_normal(6)
        v = rng.standard_normal(6)
        q1 = quotient(form, u, v).value
        q2 = quotient(form, u, 7.5 * v).value
        assert q1 == pytest.approx(q2, rel=1e-12)


class TestClassify:
    def test_signatures(self):
        assert classify(SymmetricForm.from_matrix(np.eye(3))) == "nonneg"
        assert classify(SymmetricForm.from_matrix(-2.0 * np.eye(3))) == "nonpos"
        assert classify(SymmetricForm.from_matrix(np.diag([1.0, -1.0]))) == "indefinite"
        assert classify(SymmetricForm.from_matrix(np.zeros((2, 2)))) == "zero"
        # Positive semidefinite with an exact kernel is still nonneg.
        assert classify(SymmetricForm.from_matrix(np.diag([1.0, 0.0]))) == "nonneg"


class TestSufficiency:
    def test_bounded_and_attained_spd(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            form = SymmetricForm.from_matrix(random_spd(rng, n))
            u = rng.standard_normal(n)
            qfu = float(u @ form.matrix @ u)
            report = verify_principle(form, u)
            assert report.classification == "nonneg"
            assert report.attained_at_u
            assert report.best_quotient <= qfu * (1 + 1e-8) + 1e-12
            assert report.holds_on_probes
            assert report.witness is None

    def test_semidefinite_kernel_direction(self):
        form = SymmetricForm.from_matrix(np.diag([1.0, 0.0]))
        u = np.array([1.0, 1.0])
        report = verify_principle(form, u)
        assert report.classification == "nonneg"
        assert report.best_quotient <= (u @ form.matrix @ u) * (1 + 1e-8) + 1e-12


class TestNecessity:
    def test_witness_exceeds_any_bound(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            form = SymmetricForm.from_matrix(random_indefinite(rng, n))
            u = rng.standard_normal(n)
            qfu = float(u @ form.matrix @ u)
            witness = find_witness(form, u)
            assert witness is not None
            assert witness.a > 0 > witness.c
            assert witness.lambda1 < 0 < witness.lambda2
            # Roots of the denominator polynomial a l^2 + 2 b l + c.
            for lam in (witness.lambda1, witness.lambda2):
                val = witness.a * lam**2 + 2 * witness.b * lam + witness.c
                assert abs(val) < 1e-9 * max(abs(witness.a), abs(witness.c))
            assert witness.quotient >= qfu + 1.0

    def test_two_by_two_analytic_family(self):
        # For diag(1, -1) and u = (1, 1): v = lam*z + w with z = e1, w = e2
        # gives quotient (lam - s)^2 / (lam^2 - 1) for s = z-sign convention;
        # just outside the pole lam = -(1 + delta) it equals (2 + delta)/delta.
        form = SymmetricForm.from_matrix(np.diag([1.0, -1.0]))
        u = np.array([1.0, 1.0])
        for delta in (0.1, 0.01, 1e-4):
            lam = -(1.0 + delta)
            v = np.array([lam, 1.0])
            q = quotient(form, u, v)
            assert not q.degenerate
            assert q.value == pytest.approx((2.0 + delta) / delta, rel=1e-9)

    def test_orthogonal_numerator_returns_none(self):
        # With u in the kernel-orthogonal complement trick: pick u with
        # A u orthogonal to both extreme eigenvectors.
        form = SymmetricForm.from_matrix(np.diag([1.0, 0.5, -1.0]))
        u = np.array([0.0, 1.0, 0.0])  # Au = 0.5 e2, orthogonal to e1 and e3
        assert find_witness(form, u) is None

    def test_not_indefinite_returns_none(self):
        form = SymmetricForm.from_matrix(np.eye(2))
        assert find_witness(form, [1.0, 0.0]) is None

    def test_fallback_still_beats_bound(self):
        # Numerator orthogonal to the witness family: the report falls back
        # to random probes, which still reveal unboundedness comfortably.
        form = SymmetricForm.from_matrix(np.diag([1.0, 0.5, -1.0]))
        u = np.array([0.0, 1.0, 0.0])
        report = verify_principle(form, u)
        assert report.classification == "indefinite"
        assert report.best_quotient > float(u @ form.matrix @ u)


class TestConsistency:
    # A report is consistent when its probes agree with its classification:
    # the principle holds for nonneg forms (a zero form counts as one), the
    # witness beats (Au, u) for indefinite ones, and the principle fails for
    # nonpos ones. At u = 0 every quotient is 0, which no witness beats and
    # no nonpos form can fail.
    @pytest.mark.parametrize(
        "matrix, u, classification, consistent",
        [
            (np.diag([2.0, 0.5]), [1.0, -1.0], "nonneg", True),
            (np.zeros((2, 2)), [1.0, -1.0], "nonneg", True),
            (np.diag([2.0, -0.5]), [1.0, 1.0], "indefinite", True),
            (np.diag([2.0, -0.5]), [0.0, 0.0], "indefinite", False),
            (np.diag([-2.0, -0.5]), [1.0, 1.0], "nonpos", True),
            (np.diag([-2.0, -0.5]), [0.0, 0.0], "nonpos", False),
        ],
        ids=["nonneg", "zero", "indefinite", "indefinite-at-0", "nonpos", "nonpos-at-0"],
    )
    def test_consistent_by_classification(self, matrix, u, classification, consistent):
        report = verify_principle(SymmetricForm.from_matrix(matrix), u)
        assert report.classification == classification
        assert report.consistent is consistent


class TestWitnessSweep:
    def test_batch_picks_the_one_at_a_time_candidate(self):
        # find_witness evaluates its 2 * SWEEP_STEPS candidates as one batch;
        # one quotient call per candidate must choose the same lambda_star.
        rng = np.random.default_rng(41)
        for n in [int(rng.integers(2, 21)) for _ in range(50)] + [200]:
            form = SymmetricForm.from_matrix(random_indefinite(rng, n))
            u = rng.standard_normal(n)
            witness = find_witness(form, u)
            delta0 = 0.5 * min(-witness.lambda1, witness.lambda2)
            best = None
            for k in range(SWEEP_STEPS):
                delta = delta0 * APPROACH_FACTOR**k
                for lam in (witness.lambda1 - delta, witness.lambda2 + delta):
                    q = quotient(form, u, lam * witness.z + witness.w)
                    if not q.degenerate and (best is None or q.value > best[1]):
                        best = (lam, q.value)
            assert witness.lambda_star == best[0]
            assert witness.quotient == quotient(form, u, witness.v_star).value


class TestTridiagonalReduction:
    # One tridiagonalization per form: the two extreme eigenpairs, which the
    # classification and the witness read, come from it.
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_eigenpairs_match_dense_decomposition(self, n):
        rng = np.random.default_rng(51 + n)
        for matrix in (random_spd(rng, n), random_indefinite(rng, n)):
            form = SymmetricForm.from_matrix(matrix)
            expected = np.linalg.eigvalsh(form.matrix)
            assert abs(form.lambda_min - expected[0]) <= 1e-13 * form.norm
            assert abs(form.lambda_max - expected[-1]) <= 1e-13 * form.norm
            for vec, value in ((form.z, form.lambda_max), (form.w, form.lambda_min)):
                assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
                residual = np.linalg.norm(form.matrix @ vec - value * vec)
                assert residual <= 1e-12 * form.norm
            if classify(form) != "indefinite":
                continue
            witness = find_witness(form, rng.standard_normal(n))
            assert witness.z is form.z and witness.w is form.w
            assert witness.a == pytest.approx(form.lambda_max, abs=1e-13 * form.norm)
            assert witness.c == pytest.approx(form.lambda_min, abs=1e-13 * form.norm)

    def test_form_keeps_no_reduction(self):
        # A form keeps its matrix and two eigenvectors, not the n x n
        # Householder reflectors or the rest of the spectrum.
        rng = np.random.default_rng(81)
        form = SymmetricForm.from_matrix(random_indefinite(rng, 200))
        fields = vars(form)
        assert sorted(fields) == ["lambda_max", "lambda_min", "matrix", "n", "norm", "w", "z"]
        arrays = {name for name, value in fields.items() if isinstance(value, np.ndarray)}
        assert arrays == {"matrix", "w", "z"}
        assert all(isinstance(fields[name], (int, float)) for name in fields.keys() - arrays)
        assert form.w.shape == form.z.shape == (200,)
        assert not form.w.flags.writeable and not form.z.flags.writeable

    def test_no_dense_eigendecomposition(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("a dense eigendecomposition ran")

        for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                             (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh")):
            monkeypatch.setattr(module, name, unused)
        rng = np.random.default_rng(61)
        form = SymmetricForm.from_matrix(random_indefinite(rng, 30))
        u = rng.standard_normal(30)
        assert find_witness(form, u) is not None
        report = verify_principle(form, u)
        assert report.witness is not None and report.consistent

    def test_repeated_extreme_eigenvalues(self):
        form = SymmetricForm.from_matrix(np.diag([1.0, 1.0, -1.0, -1.0]))
        u = np.array([1.0, 0.5, 0.25, 0.125])
        witness = find_witness(form, u)
        assert witness is not None
        assert (witness.a, witness.c) == pytest.approx((1.0, -1.0), abs=1e-15)
        assert witness.quotient > float(u @ form.matrix @ u)

    @pytest.mark.parametrize("s", [1e-300, 1e-200, 1.0, 1e200, 1e250, 1e300])
    def test_witness_is_scale_free(self, s):
        # b^2 - ac and |Au| leave the double range for these s unless scaled,
        # and near the pole the quotient itself overflows at s = 1e300.
        form = SymmetricForm.from_matrix(np.diag([s, -s]))
        u = np.array([1.0, 0.5])
        witness = find_witness(form, u)
        assert witness is not None
        assert (witness.lambda1, witness.lambda2) == (-1.0, 1.0)
        assert math.isfinite(witness.quotient) and witness.quotient > 0.75 * s
        report = verify_principle(form, u)
        assert report.witness is not None and report.consistent
        assert math.isfinite(report.best_quotient)

    @pytest.mark.parametrize("s", [1e-310, 1e-300, 1e200, 1e300])
    def test_reduction_at_the_ends_of_the_double_range(self, s):
        # Unscaled, the reduction of 1e200 A leaves bisection unable to
        # converge, and 1e-310 A gives a > 0 > c the wrong signs.
        rng = np.random.default_rng(71)
        matrix = random_indefinite(rng, 20)
        reference = np.linalg.eigvalsh(0.5 * (matrix + matrix.T))
        form = SymmetricForm.from_matrix(s * matrix)
        scaled = np.array([form.lambda_min, form.lambda_max]) / s
        ends = reference[[0, -1]]
        assert np.max(np.abs(scaled - ends)) <= 1e-12 * np.max(np.abs(reference))
        witness = find_witness(form, rng.standard_normal(20))
        assert witness is not None and math.isfinite(witness.quotient)


class TestDeterminism:
    def test_same_seed_same_report(self):
        rng = np.random.default_rng(31)
        form = SymmetricForm.from_matrix(random_indefinite(rng, 8))
        u = rng.standard_normal(8)
        r1 = verify_principle(form, u)
        r2 = verify_principle(form, u)
        assert r1.best_quotient == r2.best_quotient
        assert r1.quadratic_form_at_u == r2.quadratic_form_at_u


IDENTITY = SymmetricForm.from_matrix(np.eye(2))


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: SymmetricForm.from_matrix(np.zeros((0, 0))), DimensionMismatchError,
         "dimension >= 1"),
        (lambda: quotient(IDENTITY, [1.0, 1.0], [np.nan, 1.0]), NonFiniteInputError, "v "),
        # m + m.T overflows, and eigvalsh would return NaN.
        (lambda: SymmetricForm.from_matrix(np.diag([1e308, -1e308])), NonFiniteInputError,
         "symmetrized"),
        # The entries are finite, their largest eigenvalue 2.1e308 is not.
        (lambda: SymmetricForm.from_matrix(np.full((3, 3), 7e307)), NonFiniteInputError,
         "eigenvalues"),
        (lambda: verify_principle(IDENTITY, [1e200, 1e200]), NonFiniteInputError, r"\(Au, u\)"),
    ],
    ids=[
        "empty-matrix", "quotient-nan-v", "symmetrize-overflow",
        "eigenvalue-overflow", "quadratic-form-overflow",
    ],
)
def test_input_checks_raise(call, error, match):
    # Each input check raises a VarcapError, so the CLI maps it to exit 2.
    with pytest.raises(error, match=match):
        call()
