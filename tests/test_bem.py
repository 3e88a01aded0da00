"""Quadrature rules, the analytic triangle potential and assembly invariants."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import varcap
from varcap import PanelSystem, assemble, bem, spd_check, triangle_potential, triangle_rule
from varcap.bem import FOUR_PI, _refined_rules
from varcap.errors import DegenerateTriangleError, VarcapError

from oracles import numeric_triangle_potential, reference_triangle_monomial

TRI = np.array([[0.1, -0.2, 0.05], [1.3, 0.4, -0.1], [0.2, 1.1, 0.3]])


def rule_monomial(points, weights, a, b):
    """Apply a barycentric rule to x^a y^b on the unit reference triangle."""
    x, y = points[:, 1], points[:, 2]
    # Weights average over the triangle; its area is 1/2.
    return 0.5 * float(np.sum(weights * x**a * y**b))


class TestQuadratureRules:
    @pytest.mark.parametrize("order", range(1, 8))
    def test_normalization_and_positivity(self, order):
        rule = triangle_rule(order)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-15
        np.testing.assert_allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("order", range(1, 8))
    def test_declared_degree_is_exact(self, order):
        rule = triangle_rule(order)
        for a in range(rule.degree + 1):
            for b in range(rule.degree + 1 - a):
                exact = reference_triangle_monomial(a, b)
                got = rule_monomial(rule.points, rule.weights, a, b)
                assert got == pytest.approx(exact, abs=1e-15, rel=1e-13), (
                    f"order {order} degree {a}+{b}"
                )

    def test_invalid_order(self):
        with pytest.raises(VarcapError):
            triangle_rule(0)
        with pytest.raises(VarcapError):
            triangle_rule(8)

    @pytest.mark.parametrize("case", ["self", "edge", "vertex", "near"])
    def test_graded_rules_stay_exact(self, case):
        # Graded refinement pastes together exact leaves, so the composite
        # rule must keep the leaf rule's full polynomial degree.
        points, weights = _refined_rules()[case]
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-12
        for a, b in [(0, 0), (3, 2), (5, 3), (8, 0), (4, 4)]:
            exact = reference_triangle_monomial(a, b)
            got = rule_monomial(points, weights, a, b)
            assert got == pytest.approx(exact, rel=1e-12, abs=1e-15)


class TestTrianglePotential:
    def test_against_oracle_feature_points(self):
        cent = TRI.mean(axis=0)
        normal = np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0])
        normal /= np.linalg.norm(normal)
        points = [
            cent + np.array([3.0, -2.0, 5.0]),   # far
            cent + 0.05 * normal,                # just off the plane
            cent,                                # interior singular point
            TRI[0],                              # vertex
            0.5 * (TRI[0] + TRI[1]),             # edge midpoint
        ]
        for p in points:
            oracle = numeric_triangle_potential(p, TRI)
            assert triangle_potential(p, TRI) == pytest.approx(oracle, rel=1e-10)

    def test_against_oracle_random(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            tri = rng.standard_normal((3, 3))
            p_free = rng.standard_normal(3) * 2.0
            p_on = rng.dirichlet((1.0, 1.0, 1.0)) @ tri
            for p in (p_free, p_on):
                oracle = numeric_triangle_potential(p, tri)
                assert triangle_potential(p, tri) == pytest.approx(oracle, rel=1e-10)

    def test_far_field_point_charge_limit(self):
        area = 0.5 * np.linalg.norm(
            np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0])
        )
        cent = TRI.mean(axis=0)
        d = 1e3
        p = cent + np.array([0.0, 0.0, d])
        assert triangle_potential(p, TRI) == pytest.approx(area / d, rel=1e-5)

    def test_mirror_symmetry_bitwise(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.1, 0.2, 0.0], [0.3, 0.9, 0.0]])
        above = triangle_potential([0.4, 0.3, 0.7], tri)
        below = triangle_potential([0.4, 0.3, -0.7], tri)
        assert above == below

    def test_degenerate_triangle_rejected(self):
        tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        with pytest.raises(DegenerateTriangleError):
            triangle_potential([0.0, 0.0, 1.0], tri)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((50, 3)) * 3.0
        vals = varcap.triangle_potentials(pts, TRI)
        assert np.all(vals > 0)


def four_dim_gauss_entry(tri_a, tri_b, order=16):
    """Independent oracle for a separated-pair Galerkin entry.

    Tensor-product Gauss-Legendre over both triangles via the collapsed
    (u, v(1-u)) parametrization; spectrally accurate once the pair is well
    separated. Shares no code with the assembly path.
    """
    nodes, weights = leggauss(order)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights

    def mapped(tri):
        v0, e1, e2 = tri[0], tri[1] - tri[0], tri[2] - tri[0]
        jac = np.linalg.norm(np.cross(e1, e2))
        uu, vv = np.meshgrid(u, u, indexing="ij")
        pts = v0 + uu[..., None] * e1 + (vv * (1 - uu))[..., None] * e2
        wts = np.outer(w, w) * (1 - uu) * jac
        return pts.reshape(-1, 3), wts.ravel()

    pa, wa = mapped(np.asarray(tri_a, dtype=float))
    pb, wb = mapped(np.asarray(tri_b, dtype=float))
    r = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    return float(wa @ (1.0 / r) @ wb)


class TestAssembly:
    def test_separated_pair_entry_matches_oracle(self):
        tri_a = TRI
        tri_b = TRI + np.array([20.0, 3.0, -5.0])
        panels = PanelSystem.from_triangles(np.stack([tri_a, tri_b]))
        system = assemble(panels, rule=triangle_rule(7))
        oracle = four_dim_gauss_entry(tri_a, tri_b) / FOUR_PI
        assert system.matrix[0, 1] == pytest.approx(oracle, rel=1e-10)

    def test_singular_entries_match_double_integral_oracle(self):
        # Reference values from an adaptive outer integral of the (adaptive)
        # inner potential oracle, estimated error ~1.5e-9; the residual here
        # is the graded outer rule's own discretization error.
        self_energy = 1.0030658847731690   # unit right triangle with itself
        edge_energy = 0.483538914350496    # the two halves of a unit square
        t1 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        t2 = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        system = assemble(PanelSystem.from_triangles(np.stack([t1, t2])))
        assert FOUR_PI * system.matrix[0, 0] == pytest.approx(self_energy, rel=1e-5)
        assert FOUR_PI * system.matrix[1, 1] == pytest.approx(self_energy, rel=1e-5)
        assert FOUR_PI * system.matrix[0, 1] == pytest.approx(edge_energy, rel=1e-6)

    def test_near_field_depths_meet_quadrature_budget(self, solved, monkeypatch):
        # The near-field depths are sized to a quadrature budget of
        # |dC/C| <= 1e-7; refining every class further must not move C
        # beyond it (measured: 5.7e-8 against the deeper rules below).
        sm = solved("sphere1")
        for name, value in [
            ("EDGE_DEPTH", 6), ("VERTEX_DEPTH", 8), ("NEAR_DEPTH", 2), ("NEAR_FACTOR", 3.0)
        ]:
            monkeypatch.setattr(bem, name, value)
        monkeypatch.setattr(bem, "_graded_cache", {})
        c_deep = varcap.solve_capacitance(assemble(sm.panels)).capacitance
        assert abs(sm.solution.capacitance - c_deep) <= 1e-7 * c_deep

    def test_sphere_invariants(self, solved):
        system = solved("sphere2").system
        scale = float(np.max(np.abs(system.matrix)))
        assert system.asymmetry_norm <= 1e-6 * scale
        assert np.array_equal(system.matrix, system.matrix.T)
        assert np.all(system.matrix > 0)  # positive kernel, positive entries
        assert np.all(np.diag(system.matrix) >= system.matrix.max(axis=1) * 0.99)

    def test_cube_invariants(self, solved):
        system = solved("cube4").system
        scale = float(np.max(np.abs(system.matrix)))
        assert system.asymmetry_norm <= 1e-6 * scale
        assert np.all(system.matrix > 0)

    def test_workers_bitwise_identical(self):
        panels = varcap.build_panels(varcap.make_icosphere(1.0, 1))
        m1 = assemble(panels, workers=1).matrix
        m4 = assemble(panels, workers=4).matrix
        assert np.array_equal(m1, m4)

    def test_spd_reports(self, solved):
        for name in ("sphere2", "cube4"):
            system = solved(name).system
            report = spd_check(system)
            assert report.cholesky_succeeded
            assert report.min_eigenvalue > 0
            exact = np.linalg.eigvalsh(system.matrix)[0]
            assert report.min_eigenvalue == pytest.approx(exact, rel=1e-10), name

    def test_spd_check_detects_indefinite(self):
        panels = varcap.build_panels(varcap.make_icosphere(1.0, 1))
        system = assemble(panels)
        bad_matrix = system.matrix - 2.0 * np.max(system.matrix) * np.eye(system.n)
        bad = varcap.GalerkinSystem(
            bad_matrix, system.areas, system.total_area, 0.0, system.centroids
        )
        report = spd_check(bad)
        assert not report.cholesky_succeeded
        assert report.min_eigenvalue < 0
