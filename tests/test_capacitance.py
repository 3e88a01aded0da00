"""Capacitance solve, variational bounds and their algebraic identities."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import varcap
from varcap.capacitance import (
    bound_ledger,
    gauss_functional,
    rayleigh_bound,
    solve_capacitance,
    subspace_bound,
    trial_families,
    zeroth_capacitance,
)
from varcap.errors import (
    AssemblyError,
    DimensionMismatchError,
    NonFiniteInputError,
    SolveError,
    VarcapError,
    ZeroTotalChargeError,
)

FOUR_PI = 4.0 * math.pi


class TestSolve:
    def test_direct_solution_quality(self, solved):
        sm = solved("sphere2")
        sigma, b = sm.solution.sigma, sm.system.areas
        assert sm.solution.residual_norm < 1e-12
        # residual_norm is sigma's relative residual against the full A_h.
        residual = np.linalg.norm(sm.system.matrix @ sigma - b) / np.linalg.norm(b)
        assert sm.solution.residual_norm == residual
        assert sm.solution.capacitance == pytest.approx(float(b @ sigma), rel=1e-15)
        # Equilibrium density on a sphere is constant; panel values vary only
        # with the few-percent shape variation of the icosphere triangles.
        assert np.ptp(sigma) < 0.05 * np.mean(sigma)

    def test_cg_matches_direct(self, solved):
        sm = solved("cube4")
        cg = solve_capacitance(sm.system, method="cg")
        assert cg.solve_iterations > 0
        assert cg.capacitance == pytest.approx(sm.solution.capacitance, rel=1e-9)

    def test_unknown_method(self, solved):
        with pytest.raises(VarcapError):
            solve_capacitance(solved("sphere1").system, method="lu")

    def test_non_spd_raises(self, solved):
        system = solved("sphere1").system
        bad = varcap.GalerkinSystem(
            -system.matrix, system.areas, system.total_area, 0.0, system.centroids
        )
        with pytest.raises(SolveError):
            solve_capacitance(bad)

    @pytest.mark.parametrize("name", ["sphere2", "cube4", "ellipsoid"])
    def test_lambda_min_lower_bound(self, solved, name):
        sm = solved(name)
        lam = scipy.linalg.eigvalsh(sm.system.matrix, subset_by_index=[0, 0])[0]
        assert 0 < sm.solution.lambda_min_lower_bound <= lam
        assert solve_capacitance(sm.system, method="cg").lambda_min_lower_bound is None

    @staticmethod
    def moved(system, ratio, overlap=1e-9):
        """``system`` with a matrix whose diagonally scaled form
        H = D^-1/2 A D^-1/2, D = diag(A), has lambda_min = ratio tau, with a
        lowest mode whose cosine with D^-1/2 b is about ``overlap``.

        On the icosahedral sphere1 the lowest modes of H form a multiplet
        orthogonal to b, so moving them alone leaves the solve nothing to
        see. So a rotation by ``overlap`` in the plane of one of them, v,
        and u = D^-1/2 b / |D^-1/2 b| tilts v toward u, a rank-one move
        halves the tilted mode's eigenvalue, which parts it from the rest of
        the multiplet, and A - c D then moves that eigenvalue to ratio tau
        and keeps the modes. Refinement stalls at 2 tau only if b's part
        along the mode is well above REFINE_RTOL (1e-12): 1e-9 stalls at a
        scaled residual of 1.3e-8. At 1000 tau the mode's share of C grows
        as overlap^2 / lambda_min, and so does the rounding by which two
        solvers differ there: 1e-9 matches the plain solve to 2e-16 after
        two refinement steps, 1e-8 only to 1.2e-14.
        """
        n = system.n
        gamma = (n + 1) * 2.0**-53 / (1 - (n + 1) * 2.0**-53)
        tau = 2.0 * gamma * n
        b = system.areas
        scale = np.sqrt(system.matrix.diagonal())
        h = system.matrix / np.outer(scale, scale)
        lam, vecs = np.linalg.eigh(h)
        u = b / scale / np.linalg.norm(b / scale)
        v = vecs[:, 0] - (vecs[:, 0] @ u) * u
        v /= np.linalg.norm(v)
        cos, sin = math.cos(overlap), math.sin(overlap)
        rot = (
            np.eye(n)
            + (cos - 1.0) * (np.outer(v, v) + np.outer(u, u))
            + sin * (np.outer(u, v) - np.outer(v, u))
        )
        tilted = rot @ v
        h = rot @ h @ rot.T - 0.5 * lam[0] * np.outer(tilted, tilted)
        matrix = np.outer(scale, scale) * (0.5 * (h + h.T))
        diag = np.diag(matrix.diagonal())
        lam = scipy.linalg.eigvalsh(matrix, diag, subset_by_index=[0, 0])[0]
        target = ratio * tau
        matrix = matrix - (lam - target) / (1.0 - target) * diag
        scale = np.sqrt(matrix.diagonal())
        lam, vecs = np.linalg.eigh(matrix / np.outer(scale, scale))
        assert lam[0] == pytest.approx(target, rel=1e-3)
        assert lam[1] > 1e3 * tau
        cosine = abs(vecs[:, 0] @ (b / scale)) / np.linalg.norm(b / scale)
        assert cosine == pytest.approx(overlap, rel=0.1)
        return varcap.GalerkinSystem(
            matrix, system.areas, system.total_area, 0.0, system.centroids
        )

    def test_positive_below_shift_raises(self, solved):
        # 0 < lambda_min < tau: positive definite, but the shifted
        # factorization cannot prove it.
        moved = self.moved(solved("sphere1").system, 0.5)
        assert np.linalg.eigvalsh(moved.matrix)[0] > 0
        with pytest.raises(SolveError, match="could not prove A_h positive definite"):
            solve_capacitance(moved)

    def test_spd_check_agrees_with_solve(self, solved):
        # lambda_min = 1.4e-15 > 0, far below the certified shift tau (about
        # 1.4e-12 of the diagonal): plain Cholesky would factor it, but
        # neither spd_check nor the solve can prove A_h > 0, as both rest on
        # the one certified factorization.
        system = solved("sphere1").system
        lam = np.linalg.eigvalsh(system.matrix)[0]
        shifted = varcap.GalerkinSystem(
            system.matrix - (lam - 1.4e-15) * np.eye(system.n),
            system.areas, system.total_area, 0.0, system.centroids,
        )
        report = varcap.spd_check(shifted)
        assert report.min_eigenvalue == pytest.approx(1.4e-15, rel=0.01)
        assert not report.cholesky_succeeded
        with pytest.raises(SolveError, match="could not prove A_h positive definite"):
            solve_capacitance(shifted)

    def test_stalled_refinement_raises(self, solved):
        # lambda_min = 2 tau: the shift is proven, but refinement against A_h
        # shrinks the error along the lowest mode by tau / (lambda_min - tau)
        # = 1 per step, so it never converges.
        moved = self.moved(solved("sphere1").system, 2.0)
        with pytest.raises(SolveError, match="refinement .* stalled"):
            solve_capacitance(moved)

    @staticmethod
    def plain_capacitance(system):
        b = system.areas
        factor = scipy.linalg.cho_factor(system.matrix, lower=True)
        return float(b @ scipy.linalg.cho_solve(factor, b))

    @pytest.mark.parametrize(
        "name, ratio",
        [("sphere2", None), ("cube4", None), ("ellipsoid", None), ("sphere1", 1e3)],
        ids=["sphere2", "cube4", "ellipsoid", "sphere1-near-shift"],
    )
    def test_matches_unshifted_solve(self, solved, name, ratio):
        # Refinement removes the shift: C equals the plain Cholesky solve's
        # b^T A_h^-1 b, also at lambda_min = 1000 tau, where it takes two
        # steps.
        system = solved(name).system
        if ratio is not None:
            system = self.moved(system, ratio)
        assert solve_capacitance(system).capacitance == pytest.approx(
            self.plain_capacitance(system), rel=1e-14
        )

    def test_certificate_ignores_row_scaling(self, solved):
        # One panel's row and column scaled by 1e-6, so its self-term is 1e-12
        # of the others', as for a panel 1e-4 of their linear size (the
        # self-term grows as area^3/2). Plain Cholesky factors S A_h S, and
        # the diagonally shifted one must prove and solve it too; the areas
        # are scaled alike so that sigma keeps its size.
        system = solved("sphere1").system
        s = np.ones(system.n)
        s[0] = 1e-6
        scaled = varcap.GalerkinSystem(
            s[:, None] * system.matrix * s,
            s * system.areas,
            float(np.sum(s * system.areas)),
            0.0,
            system.centroids,
        )
        solution = solve_capacitance(scaled)
        lam = np.linalg.eigvalsh(scaled.matrix)[0]
        assert 0 < solution.lambda_min_lower_bound <= lam
        assert solution.capacitance == pytest.approx(
            self.plain_capacitance(scaled), rel=1e-14
        )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_matrix_raises(self, solved, value):
        # A hand-built system is checked where it is made, as an assembled one is.
        system = solved("sphere1").system
        matrix = np.array(system.matrix)
        matrix[5, 2] = matrix[2, 5] = value
        with pytest.raises(NonFiniteInputError):
            varcap.GalerkinSystem(matrix, system.areas, system.total_area, 0.0, system.centroids)

    def test_empty_system_rejected(self):
        with pytest.raises(DimensionMismatchError):
            varcap.GalerkinSystem(np.empty((0, 0)), np.empty(0), 0.0, 0.0, np.empty((0, 3)))

    @staticmethod
    def changed(matrix, index, value):
        out = np.array(matrix)
        out[index] = value
        return out

    # Each case: (A_h, b) -> the hand-built (matrix, areas), and its varcap
    # error or None. With None, C is b^T A^-1 b of the matrix as float64,
    # the full matrix every reader multiplies with, not either triangle.
    HAND_BUILT = {
        "areas-short": (lambda a, b: (a, b[:-1]), DimensionMismatchError),
        "column-short": (lambda a, b: (a[:, :-1], b), DimensionMismatchError),
        "nan-upper": (lambda a, b: (TestSolve.changed(a, (2, 5), math.nan), b), AssemblyError),
        "inf-upper": (lambda a, b: (TestSolve.changed(a, (2, 5), math.inf), b), AssemblyError),
        "nan-lower": (lambda a, b: (TestSolve.changed(a, (5, 2), math.nan), b), AssemblyError),
        "inf-lower": (lambda a, b: (TestSolve.changed(a, (5, 2), -math.inf), b), AssemblyError),
        "nested-list": (lambda a, b: (a.tolist(), b), None),
        "int": (lambda a, b: (np.rint(1e6 * a).astype(np.int64), b), None),
        "asymmetric": (lambda a, b: (TestSolve.changed(a, (2, 5), a[2, 5] * (1 + 1e-3)), b), None),
        "upper-times-1.5": (lambda a, b: (a + 0.5 * np.triu(a, 1), b), SolveError),
    }

    @pytest.mark.parametrize("case", HAND_BUILT)
    def test_hand_built_system(self, solved, case):
        system = solved("sphere1").system
        make, expected = self.HAND_BUILT[case]
        matrix, areas = make(np.array(system.matrix), system.areas)
        if expected in (DimensionMismatchError, AssemblyError):
            with pytest.raises(expected):
                varcap.GalerkinSystem(matrix, areas, system.total_area, 0.0, system.centroids)
            return
        built = varcap.GalerkinSystem(matrix, areas, system.total_area, 0.0, system.centroids)
        # The other readers take the system as it is.
        varcap.spd_check(built)
        zeroth_capacitance(built)
        rayleigh_bound(built, np.ones(built.n))
        if expected is SolveError:
            with pytest.raises(SolveError, match="refinement .* stalled"):
                solve_capacitance(built)
            return
        solution = solve_capacitance(built)
        a = np.array(matrix, dtype=np.float64)
        assert solution.capacitance == pytest.approx(areas @ np.linalg.solve(a, areas), rel=1e-14)
        assert bound_ledger(built, solution).capacitance == solution.capacitance

    def test_solve_makes_no_matrix_copy(self, solved):
        # The factor is packed, m(m+1)/2 doubles: a solve holds no m x m copy.
        system = solved("sphere2").system
        tracemalloc.start()
        try:
            solve_capacitance(system)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * system.matrix.nbytes, peak / system.matrix.nbytes

    def test_matrix_unchanged_by_solve_and_check(self, solved):
        # A writable hand-built matrix too: the factor lives in its own array.
        system = solved("sphere2").system
        matrix = np.array(system.matrix)
        writable = varcap.GalerkinSystem(
            matrix, system.areas, system.total_area, 0.0, system.centroids
        )
        solve_capacitance(writable)
        varcap.spd_check(writable)
        assert np.array_equal(matrix, system.matrix)


class TestFunctionals:
    def test_rayleigh_at_sigma_equals_capacitance(self, solved):
        sm = solved("sphere2")
        q = rayleigh_bound(sm.system, sm.solution.sigma)
        assert not q.degenerate
        assert q.value == pytest.approx(sm.solution.capacitance, rel=1e-12)

    def test_rayleigh_is_lower_bound(self, solved):
        sm = solved("cube4")
        rng = np.random.default_rng(5)
        c = sm.solution.capacitance
        for _ in range(50):
            v = rng.standard_normal(sm.system.n) + 1.0
            q = rayleigh_bound(sm.system, v)
            assert q.value <= c * (1 + 1e-12)

    def test_gauss_reciprocal_identity(self, solved):
        sm = solved("sphere2")
        rng = np.random.default_rng(6)
        for _ in range(20):
            v = rng.standard_normal(sm.system.n) + 0.5
            r = rayleigh_bound(sm.system, v)
            g = gauss_functional(sm.system, v)
            assert r.value == pytest.approx(1.0 / g, rel=1e-12)

    @pytest.mark.parametrize("name", ["sphere2", "cube4"])
    def test_rayleigh_is_the_papers_quotient(self, solved, name):
        # The bound is |(Au, v)|^2 / (Av, v) with A = A_h and Au = A_h sigma = b.
        sm = solved(name)
        form = varcap.SymmetricForm.from_matrix(sm.system.matrix)
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.standard_normal(sm.system.n)
            expected = varcap.quotient(form, sm.solution.sigma, v).value
            assert rayleigh_bound(sm.system, v).value == pytest.approx(expected, rel=1e-12)

    def test_rayleigh_allocates_no_matrix_copy(self, solved):
        # The degeneracy scale max|A_h| is read without an m x m temporary.
        sm = solved("sphere3")
        v = sm.solution.sigma.copy()
        tracemalloc.start()
        try:
            rayleigh_bound(sm.system, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * sm.system.matrix.nbytes, peak / sm.system.matrix.nbytes

    def test_rayleigh_zero_density_is_degenerate(self, solved):
        system = solved("sphere2").system
        q = rayleigh_bound(system, np.zeros(system.n))
        assert q.degenerate and q.value == 0.0

    def test_gauss_zero_charge_rejected(self, solved):
        sm = solved("sphere1")
        v = np.ones(sm.system.n)
        v[: sm.system.n // 2] = -1.0
        v -= (sm.system.areas @ v) / sm.system.areas.sum()  # exact zero charge
        with pytest.raises(ZeroTotalChargeError):
            gauss_functional(sm.system, v)

    def test_dimension_checks(self, solved):
        with pytest.raises(DimensionMismatchError):
            rayleigh_bound(solved("sphere1").system, np.ones(3))


class TestZerothApproximation:
    def test_sphere_constant_density_is_nearly_optimal(self, solved):
        sm = solved("sphere3")
        zeroth = zeroth_capacitance(sm.system)
        c = sm.solution.capacitance
        assert zeroth.c_zeroth <= c * (1 + 1e-10)
        # On a sphere the equilibrium density is constant, so the gap is
        # within the discretization error scale.
        assert abs(zeroth.c_zeroth - c) <= 2.0 * abs(c - FOUR_PI)

    def test_j_integral_consistency(self, solved):
        sm = solved("sphere2")
        zeroth = zeroth_capacitance(sm.system)
        ones = np.ones(sm.system.n)
        energy = float(ones @ sm.system.matrix @ ones)
        assert zeroth.j_integral == pytest.approx(FOUR_PI * energy, rel=1e-14)
        assert zeroth.c_zeroth == pytest.approx(
            sm.system.total_area**2 / energy, rel=1e-14
        )

    def test_cube_constant_density_is_suboptimal(self, solved):
        sm = solved("cube8")
        zeroth = zeroth_capacitance(sm.system)
        c = sm.solution.capacitance
        assert c - zeroth.c_zeroth > 0.01 * c


class TestSubspaceBounds:
    def test_nested_families_monotone(self, solved):
        # On centered bodies the odd linear monomials carry zero total
        # charge and cannot improve on the constant family, so monotonicity
        # is non-strict there; the quadratic family helps on non-spheres.
        for name in ("cube4", "ellipsoid"):
            sm = solved(name)
            values = [
                subspace_bound(sm.system, cols.T)
                for _, cols in trial_families(sm.system.centroids)
            ]
            assert values[1] >= values[0] * (1 - 1e-12)
            assert values[2] >= values[1] * (1 - 1e-12)
            assert values[2] > values[0] * (1 + 1e-6)
            assert values[2] <= sm.solution.capacitance * (1 + 1e-10)

    def test_asymmetric_mesh_linear_family_improves(self):
        # An egg-shaped body has no central symmetry, so the equilibrium
        # density picks up an odd component and linear trial densities
        # strictly improve on the constant one.
        def egg(v):
            out = v.copy()
            out[:, 2] = v[:, 2] * (1.0 + 0.3 * v[:, 2])
            return out

        mesh = varcap.make_icosphere(1.0, 2).transformed(egg)
        system = varcap.assemble(varcap.build_panels(mesh))
        values = [
            subspace_bound(system, cols.T)
            for _, cols in trial_families(system.centroids)
        ]
        assert values[1] > values[0] * (1 + 1e-10)

    def test_bounds_ignore_position_and_size(self, solved):
        # The families span the same space on a moved or scaled copy, so the
        # bounds (over the copy's scale) equal the original's and stay nested.
        base = solved("ellipsoid")
        expected = [
            subspace_bound(base.system, cols.T)
            for _, cols in trial_families(base.system.centroids)
        ]
        copies = [
            (1.0, base.mesh.transformed(lambda v: v + [1e3, 3e2, -7e2])),
            (1e-6, base.mesh.scaled(1e-6)),
            (1e6, base.mesh.scaled(1e6)),
        ]
        for scale, mesh in copies:
            system = varcap.assemble(varcap.build_panels(mesh))
            values = [
                subspace_bound(system, cols.T) / scale
                for _, cols in trial_families(system.centroids)
            ]
            assert values == pytest.approx(expected, rel=1e-9), scale
            assert values[1] >= values[0] * (1 - 1e-12), scale
            assert values[2] >= values[1] * (1 - 1e-12), scale

    def test_constant_family_equals_zeroth(self, solved):
        sm = solved("cube4")
        zeroth = zeroth_capacitance(sm.system)
        got = subspace_bound(sm.system, [np.ones(sm.system.n)])
        assert got == pytest.approx(zeroth.c_zeroth, rel=1e-13)

    def test_full_basis_recovers_capacitance(self, solved):
        sm = solved("sphere2")
        full = subspace_bound(sm.system, np.eye(sm.system.n))
        assert full == pytest.approx(sm.solution.capacitance, rel=1e-10)

    def test_degenerate_family_handled(self, solved):
        sm = solved("sphere1")
        v = np.ones(sm.system.n)
        # Duplicated vectors leave the span unchanged.
        dup = subspace_bound(sm.system, [v, v, 2.0 * v])
        single = subspace_bound(sm.system, [v])
        assert dup == pytest.approx(single, rel=1e-10)
        with pytest.raises(VarcapError):
            subspace_bound(sm.system, [])

    def test_all_zero_family_is_degenerate(self, solved):
        system = solved("sphere1").system
        with pytest.raises(VarcapError, match="degenerate"):
            subspace_bound(system, [np.zeros(system.n), np.zeros(system.n)])


class TestBoundLedger:
    def test_ledger_is_consistent(self, solved):
        sm = solved("cube4")
        ledger = bound_ledger(sm.system, sm.solution)
        c = sm.solution.capacitance
        assert ledger.capacitance == c
        assert ledger.c_zeroth <= c * (1 + 1e-10)
        names = [name for name, _ in ledger.subspace_bounds]
        assert names == ["constant", "linear", "quadratic"]
        values = [val for _, val in ledger.subspace_bounds]
        assert values[0] == pytest.approx(ledger.c_zeroth, rel=1e-12)
        assert values[1] >= values[0] * (1 - 1e-12)
        assert values[2] >= values[1] * (1 - 1e-12)
        assert ledger.gauss_at_sigma == pytest.approx(1.0 / c, rel=1e-12)
        zeroth = zeroth_capacitance(sm.system)
        assert (ledger.c_zeroth, ledger.j_integral) == (zeroth.c_zeroth, zeroth.j_integral)

    def test_ledger_makes_two_products_with_the_matrix(self, solved):
        # One product for the zeroth bound, one for every other bound and
        # the Gauss value: A_h is read twice, however many families there are.
        class Counted(np.ndarray):
            products = 0

            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                if ufunc is np.matmul:
                    Counted.products += 1
                inputs = [np.asarray(x) for x in inputs]
                return getattr(ufunc, method)(*inputs, **kwargs)

        sm = solved("cube4")
        system = sm.system
        counted = varcap.GalerkinSystem(
            system.matrix.view(Counted), system.areas, system.total_area,
            system.asymmetry_norm, system.centroids,
        )
        ledger = bound_ledger(counted, sm.solution)
        assert Counted.products == 2
        assert ledger == bound_ledger(system, sm.solution)

    def test_ledger_rejects_solution_of_other_size(self, solved):
        with pytest.raises(DimensionMismatchError):
            bound_ledger(solved("sphere1").system, solved("sphere2").solution)

    def test_ledger_rejects_solution_of_other_system(self, solved):
        # Same panel count, twice the radius: b^T sigma is 4 C, not C.
        larger = varcap.assemble(varcap.build_panels(varcap.make_icosphere(2.0, 1)))
        with pytest.raises(VarcapError, match="another system"):
            bound_ledger(larger, solved("sphere1").solution)


class TestLowerBound:
    """The paper's principle: with exact entries, C_h is a lower bound on C."""

    def test_nested_cubes_increase(self, solved):
        # cube4, cube8 and cube16 are nested, so their panel spaces are too.
        c4, c8, c16 = (solved(name).solution.capacitance for name in ("cube4", "cube8", "cube16"))
        assert c4 < c8 < c16

    def test_icospheres_below_sphere_capacity(self, solved):
        # Each icosphere is inscribed in the unit sphere, whose capacity is 4 pi.
        for name in ("sphere1", "sphere2", "sphere3", "sphere4"):
            assert solved(name).solution.capacitance < FOUR_PI, name
