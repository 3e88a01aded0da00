"""Quadrature rules, the analytic triangle potential and assembly invariants."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import varcap
from varcap import PanelSystem, assemble, bem, spd_check, triangle_potential, triangle_rule
from varcap.bem import FOUR_PI, _refined_rules
from varcap.errors import DegenerateTriangleError, VarcapError

from oracles import (
    deep_panel_integral,
    numeric_triangle_potential,
    reference_triangle_monomial,
)

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

    @pytest.mark.parametrize("case, degree", [("edge", 4), ("vertex", 6), ("near", 14)])
    def test_near_field_rules_exact_to_degree(self, case, degree):
        # A Duffy-collapsed n x n Gauss rule with s = sigma^p (or 1 - (1 -
        # sigma)^p) integrates degree d exactly while p (d + 1) + p - 1 <=
        # 2n - 1: edge p = 3, n = 10; vertex p = 2, n = 8; near p = 1, n = 8.
        points, weights = _refined_rules()[case]
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-14
        assert np.all(points >= 0) and np.all(points <= 1)
        np.testing.assert_allclose(points.sum(axis=1), 1.0, atol=1e-15)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = reference_triangle_monomial(a, b)
                got = rule_monomial(points, weights, a, b)
                assert got == pytest.approx(exact, rel=1e-12, abs=1e-16), (a, b)


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

    def test_small_and_distant_triangles_accepted(self):
        # The potential is homogeneous of degree 1 and translation-invariant.
        p = TRI.mean(axis=0) + np.array([0.1, -0.2, 0.3])
        ref = triangle_potential(p, TRI)
        for s in (1e-8, 1e-20):
            assert triangle_potential(s * p, s * TRI) == pytest.approx(s * ref, rel=1e-12)
        shift = np.array([1e7, -1e7, 0.0])
        assert triangle_potential(p + shift, TRI + shift) == pytest.approx(ref, rel=1e-8)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((50, 3)) * 3.0
        vals = varcap.triangle_potentials(pts, TRI)
        assert np.all(vals > 0)

    def test_batched_kernel_matches_oracle_and_single_calls(self):
        # The near field calls the kernel with many source triangles at once,
        # each with its own points: its vertices, edge midpoints, centroid, a
        # point just off its plane and a far one.
        rng = np.random.default_rng(29)
        tris = np.stack([TRI] + [rng.standard_normal((3, 3)) for _ in range(3)])
        points = []
        for tri in tris:
            normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            normal /= np.linalg.norm(normal)
            cent = tri.mean(axis=0)
            mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
            far = cent + np.array([4.0, -3.0, 6.0])
            points.append(np.vstack([tri, mids, cent, cent + 0.05 * normal, far]))
        points = np.stack(points)  # (P, K, 3)
        batch = bem._potential_batch(np.ascontiguousarray(points.transpose(2, 0, 1)), tris)
        assert batch.shape == points.shape[:2]
        for tri, pts, row in zip(tris, points, batch):
            assert np.array_equal(row, varcap.triangle_potentials(pts, tri))
            for p, value in zip(pts, row):
                oracle = numeric_triangle_potential(p, tri)
                assert value == pytest.approx(oracle, rel=1e-10)


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

    def test_near_field_rules_meet_quadrature_budget(self, solved, monkeypatch):
        # The near-field rules are sized to a quadrature budget of
        # |dC/C| <= 1e-7. Refining every class at once, edge and vertex rules
        # at twice the nodes per direction and a 16x16 near ring out to
        # NEAR_FACTOR 3 (the diagonal is exact), must not move C beyond it.
        # Measured: 1.0e-8 on sphere1, 1.2e-9 on cube4; the recursively
        # graded rules these replaced read 2.5e-7 and 2.0e-7.
        before = {name: solved(name).solution.capacitance for name in ("sphere1", "cube4")}
        deeper = {
            name: (corner, 2 * nodes, grade)
            for name, (corner, nodes, grade) in bem.NEAR_RULES.items()
        }
        monkeypatch.setattr(bem, "NEAR_RULES", deeper)
        monkeypatch.setattr(bem, "NEAR_FACTOR", 3.0)
        for name, c in before.items():
            c_deep = varcap.solve_capacitance(assemble(solved(name).panels)).capacitance
            assert abs(c - c_deep) <= 1e-7 * c_deep, name

    def test_self_entries_closed_form(self):
        # Oracle value for the unit right triangle (see the test above), and
        # a triangle of aspect ratio 10 against a deep graded reference.
        right = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        skinny = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.3, 0.1, 0.0]])
        system = assemble(PanelSystem.from_triangles(np.stack([right, skinny + 5.0])))
        assert FOUR_PI * system.matrix[0, 0] == pytest.approx(1.0030658847731690, rel=1e-12)
        deep = deep_panel_integral(skinny, skinny, varcap.triangle_potentials)
        assert FOUR_PI * system.matrix[1, 1] == pytest.approx(deep, rel=1e-10)

    @pytest.mark.parametrize(
        "apex1, apex2",
        [
            ((0.3, 0.8, 0.0), (0.4, -0.8, 0.0)),        # coplanar
            ((0.7, 0.5, 0.0), (0.2, -1.1, 0.0)),        # coplanar, other shapes
            ((0.3, 0.8, 0.0), (0.4, 0.0, 0.8)),         # 90 degrees
            ((0.3, 0.8, 0.0), (0.4, -0.79, 0.14)),      # about 170 degrees
            ((0.5, 0.2, 0.0), (0.45, -0.2, 0.0)),       # aspect 5, coplanar
            ((0.5, 0.2, 0.0), (0.45, 0.0, 0.2)),        # aspect 5, 90 degrees
        ],
    )
    def test_edge_entries_match_deep_reference(self, apex1, apex2):
        # The shared edge runs from the origin to (1, 0, 0). Measured: at
        # most 1.8e-8 on these pairs; the recursively graded rule that this
        # one replaced read up to 6.5e-7 on the flat ones.
        t1 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], apex1])
        t2 = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], apex2])
        self._check_touching_entry(t1, t2, "edge")

    def test_skinny_edge_entries_match_deep_reference(self):
        # Aspect-5 panels sharing their short edge, flat and at 90 degrees
        # (measured 7.9e-8 and 1.1e-7). At aspect 10 the rule reads about
        # 1e-6, as the replaced rules did; see the table in varcap.bem.
        h = 0.2
        t1 = np.array([[0.0, 0.0, 0.0], [h, 0.0, 0.0], [0.5 * h, 1.0, 0.0]])
        for apex in ([0.4 * h, -1.0, 0.0], [0.4 * h, 0.0, 1.0]):
            t2 = np.array([[h, 0.0, 0.0], [0.0, 0.0, 0.0], apex])
            self._check_touching_entry(t1, t2, "edge")

    @pytest.mark.parametrize(
        "second, third",
        [
            ((0.2329, -0.8693, 0.0), (0.9659, -0.2588, 0.0)),  # coplanar, 15 degree gap
            ((-0.9, 0.2, 0.0), (-0.4, -0.9, 0.0)),          # coplanar, wide gap
            ((-0.6, 0.3, 0.7), (-0.2, -0.8, 0.4)),          # out of plane
            ((0.0, 0.0, 1.0), (0.0, -1.0, 0.0)),            # cube corner
        ],
    )
    def test_vertex_entries_match_deep_reference(self, second, third):
        # The panels share the origin only; measured worst 5.7e-8 (15 degree gap).
        t1 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.85, 0.0]])
        t2 = np.array([[0.0, 0.0, 0.0], second, third])
        self._check_touching_entry(t1, t2, "vertex")

    @staticmethod
    def _check_touching_entry(t1, t2, case):
        system = assemble(PanelSystem.from_triangles(np.stack([t1, t2])))
        assert system.assembly[case].entries == 2
        deep = deep_panel_integral(t1, t2, varcap.triangle_potentials)
        assert FOUR_PI * system.matrix[0, 1] == pytest.approx(deep, rel=2e-7)

    def test_touching_pairs_match_loop_reference(self):
        # Every ordered pair of distinct panels, compared corner by corner.
        for mesh in (varcap.make_icosphere(1.0, 1), varcap.make_cube(1.0, 2)):
            corners = varcap.build_panels(mesh).corners
            m = len(corners)
            expected = {}
            for i in range(m):
                for j in range(m):
                    shared = [
                        a for a in range(3)
                        if i != j and any(np.array_equal(corners[i, a], c) for c in corners[j])
                    ]
                    if shared:
                        expected[(i, j)] = shared
            keys, tasks = bem._touching_pairs(corners)
            got = {}
            for case, (rows, perms, srcs) in tasks.items():
                for row, perm, src in zip(rows, perms, srcs):
                    assert list(perm) == [(perm[0] + k) % 3 for k in range(3)]
                    got[(row, src)] = sorted(perm[:2] if case == "edge" else perm[:1])
            assert got == expected
            assert sorted(keys) == sorted(i * m + j for i, j in expected)

    def test_near_ring_invariant_under_translation_and_scaling(self):
        # Many cube pairs sit exactly on the near-ring cut-off; rounding must
        # not move them across it when the cube is translated or scaled.
        def ring(mesh):
            panels = varcap.build_panels(mesh)
            touching, _ = bem._touching_pairs(panels.corners)
            pairs = bem._near_ring(panels.corners, panels.centroids, touching)
            return set(map(tuple, pairs.tolist()))

        cube = varcap.make_cube(1.0, 4)
        base = ring(cube)
        assert len(base) > 0
        assert ring(cube.transformed(lambda v: v + [0.1, 0.2, 0.3])) == base
        for s in (3.0, 0.7):
            assert ring(cube.scaled(s)) == base, s

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

    def test_correction_entries_independent_of_position(self):
        # A refined entry must not depend on its place in a correction
        # chunk: prepending rows or permuting the pairs moves no bit.
        panels = varcap.build_panels(varcap.make_icosphere(1.0, 2))
        m = panels.n_panels
        pairs = np.random.default_rng(31).permutation(m * m)[:703]
        rows, srcs = pairs[3:] // m, pairs[3:] % m
        pts, wts = _refined_rules()["near"]

        def entries(order, pad):
            matrix = np.zeros((m, m))
            r = np.concatenate([pairs[:pad] // m, rows[order]])
            s = np.concatenate([pairs[:pad] % m, srcs[order]])
            perms = np.tile((0, 1, 2), (len(r), 1))
            bem._apply_corrections(
                matrix, panels.corners, panels.areas, r, perms, s, pts, wts
            )
            return matrix[rows, srcs]

        base = entries(np.arange(len(rows)), 0)
        assert np.all(base > 0)
        for pad in (1, 2, 3):
            assert np.array_equal(entries(np.arange(len(rows)), pad), base), pad
        assert np.array_equal(entries(np.arange(len(rows))[::-1], 0), base)

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
