"""Quadrature rules, the analytic triangle potential and assembly invariants."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.polynomial.legendre import leggauss

import varcap
from varcap import PanelSystem, assemble, bem, spd_check, triangle_potential
from varcap.bem import FOUR_PI
from varcap.cli import EXIT_MESH, main
from varcap.errors import (
    AssemblyError,
    DegenerateTriangleError,
    DimensionMismatchError,
    NonFiniteInputError,
    SolveError,
)

from oracles import (
    deep_panel_integral,
    numeric_triangle_potential,
    reference_triangle_monomial,
)

TRI = np.array([[0.1, -0.2, 0.05], [1.3, 0.4, -0.1], [0.2, 1.1, 0.3]])

# A deeper far rule for references: the ungraded collapsed 5 x 5 Gauss rule,
# 25 points, exact to degree 8, as the ring tier's rule is (the near tier's
# at 8 x 8 is exact to 14).
DEEP_FAR_RULE = bem.Duffy(0, 5, lambda x: (x, np.ones_like(x)))
# The far rule, Dunavant's 6 points, is exact to this degree.
FAR_DEGREE = 4


def tier_rule(name):
    """(Barycentric points, weights) of the TIERS row of this name."""
    return bem._rule_table(next(tier.rule for tier in bem.TIERS if tier.name == name))


def deep_far_tiers():
    """TIERS with DEEP_FAR_RULE in the far row, the last."""
    return (*bem.TIERS[:-1], bem.TIERS[-1]._replace(rule=DEEP_FAR_RULE))


def rule_monomial(points, weights, a, b):
    """Apply a barycentric rule to x^a y^b on the unit reference triangle."""
    x, y = points[:, 1], points[:, 2]
    # Weights average over the triangle; its area is 1/2.
    return 0.5 * float(np.sum(weights * x**a * y**b))


class TestQuadratureRules:
    # The far rule, Dunavant's 6-point rule, is exact up to FAR_DEGREE, 4:
    # checked at orders 3 and 4.
    @pytest.mark.parametrize("order", [3, 4])
    def test_normalization_and_positivity(self, order):
        points, weights = tier_rule("far")
        assert FAR_DEGREE >= order and len(weights) == 6
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-15
        assert np.all(points >= 0) and np.all(points <= 1)
        np.testing.assert_allclose(points.sum(axis=1), 1.0, atol=1e-15)

    @pytest.mark.parametrize("order", [3, 4])
    def test_declared_degree_is_exact(self, order):
        points, weights = tier_rule("far")
        assert order <= FAR_DEGREE
        for a in range(order + 1):
            for b in range(order + 1 - a):
                exact = reference_triangle_monomial(a, b)
                got = rule_monomial(points, weights, a, b)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-16), (a, b)

    @pytest.mark.parametrize(
        "case, degree", [("edge", 4), ("vertex", 6), ("near", 14), ("ring", 8)]
    )
    def test_near_field_rules_exact_to_degree(self, case, degree):
        # A Duffy-collapsed n x n Gauss rule with s = sigma^p (or 1 - (1 -
        # sigma)^p) integrates degree d exactly while p (d + 1) + p - 1 <=
        # 2n - 1: edge p = 3, n = 10; vertex p = 2, n = 8; near p = 1, n = 8;
        # ring p = 1, n = 5.
        points, weights = tier_rule(case)
        assert np.all(weights > 0)
        assert abs(weights.sum() - 1.0) <= 1e-15
        assert np.all(points >= 0) and np.all(points <= 1)
        np.testing.assert_allclose(points.sum(axis=1), 1.0, atol=1e-15)
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = reference_triangle_monomial(a, b)
                got = rule_monomial(points, weights, a, b)
                assert got == pytest.approx(exact, rel=1e-13, abs=1e-16), (a, b)


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

    @pytest.mark.parametrize(
        "points, corners, error",
        [
            ([[0.0, 0.0, 1.0, 4.0]], TRI, DimensionMismatchError),
            ([[0.0, 0.0]], TRI, DimensionMismatchError),
            (np.zeros((2, 2, 3)), TRI, DimensionMismatchError),
            ([[0.0, 0.0, 1.0]], TRI[:2], DimensionMismatchError),
            ([[0.0, 0.0, 1.0]], TRI.ravel(), DimensionMismatchError),
            ([[np.nan, 0.0, 1.0]], TRI, NonFiniteInputError),
            ([0.0, np.inf, 1.0], TRI, NonFiniteInputError),
            ([[0.0, 0.0, 1.0]], np.where(np.eye(3, dtype=bool), np.nan, TRI), NonFiniteInputError),
        ],
        ids=[
            "four-columns", "two-columns", "three-dims", "two-corners", "flat-corners",
            "nan-point", "inf-point", "nan-corner",
        ],
    )
    def test_malformed_input_rejected(self, points, corners, error):
        # Points are (n, 3) or one (3,), corners (3, 3), all finite: a fourth
        # column is not dropped, and no NaN comes back.
        with pytest.raises(error):
            varcap.triangle_potentials(points, corners)

    def test_scalar_wrapper_takes_one_point(self):
        for point in (5.0, [[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]]):
            with pytest.raises(DimensionMismatchError):
                triangle_potential(point, TRI)

    def test_small_and_distant_triangles_accepted(self):
        # The potential is homogeneous of degree 1 and translation-invariant.
        p = TRI.mean(axis=0) + np.array([0.1, -0.2, 0.3])
        ref = triangle_potential(p, TRI)
        for s in (1e-8, 1e-20):
            assert triangle_potential(s * p, s * TRI) == pytest.approx(s * ref, rel=1e-12, abs=0.0)
        shift = np.array([1e7, -1e7, 0.0])
        assert triangle_potential(p + shift, TRI + shift) == pytest.approx(ref, rel=1e-8)

    def test_positive_everywhere(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((50, 3)) * 3.0
        vals = varcap.triangle_potentials(pts, TRI)
        assert np.all(vals > 0)

    def test_in_plane_points_match_oracle(self):
        # Points on the source plane outside the triangle, on the lines of
        # its sides beyond their ends and on the sides themselves, where h
        # and d_k vanish, up to round-off on the tilted TRI. On a side,
        # R_k1 + R_k2 - l_k vanishes too, and the max(., 1e-300) guard
        # keeps its log finite.
        for tri in (TRI, np.array([[0.0, 0.0, 0.0], [1.1, 0.2, 0.0], [0.3, 0.9, 0.0]])):
            cent = tri.mean(axis=0)
            points = [cent + 2.5 * (tri[k] - cent) for k in range(3)]
            points += [cent - 1.5 * (tri[k] - cent) for k in range(3)]
            for k in range(3):
                a, b = tri[k], tri[(k + 1) % 3]
                points += [b + t * (b - a) for t in (0.01, 0.5, 3.0)]
                points += [a - t * (b - a) for t in (0.01, 0.5)]
                points += [a + t * (b - a) for t in (0.0, 0.25, 0.5)]
            values = varcap.triangle_potentials(np.array(points), tri)
            for p, value in zip(points, values):
                oracle = numeric_triangle_potential(p, tri)
                assert value == pytest.approx(oracle, rel=1e-10), p

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
        points_cm = np.ascontiguousarray(points.transpose(2, 0, 1))
        batch = bem._potential_batch(points_cm, tris)
        assert batch.shape == points.shape[:2]
        for tri, pts, row in zip(tris, points, batch):
            assert np.array_equal(row, varcap.triangle_potentials(pts, tri))
            for p, value in zip(pts, row):
                oracle = numeric_triangle_potential(p, tri)
                assert value == pytest.approx(oracle, rel=1e-10)

    def test_batched_kernel_broadcasts_shared_points(self):
        # Points (3, 1, K), as triangle_potentials passes them, are shared by
        # all sources; each row must equal that source's own call bitwise.
        rng = np.random.default_rng(41)
        tris = np.stack([TRI + rng.standard_normal(3) for _ in range(4)])
        points = np.ascontiguousarray((rng.standard_normal((37, 3)) * 2.0).T)[:, None, :]
        batch = bem._potential_batch(points, tris)
        assert batch.shape == (4, 37)
        for tri, row in zip(tris, batch):
            single = bem._potential_batch(points, tri[None])
            assert np.array_equal(row, single[0])


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
    def test_separated_pair_entry_matches_oracle(self, monkeypatch):
        tri_a = TRI
        tri_b = TRI + np.array([20.0, 3.0, -5.0])
        panels = PanelSystem.from_triangles(np.stack([tri_a, tri_b]))
        monkeypatch.setattr(bem, "TIERS", deep_far_tiers())
        system = assemble(panels)
        oracle = four_dim_gauss_entry(tri_a, tri_b) / FOUR_PI
        assert system.matrix[0, 1] == pytest.approx(oracle, rel=1e-10, abs=0.0)

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
        # The refined tiers are sized to a quadrature budget of |dC/C| <=
        # 1e-7. Refining every one at once, every rule at twice the nodes per
        # direction (16x16 near tier, 10x10 ring tier) and the ring, the
        # last refined row, out to a cut of 3 (the diagonal is exact), must
        # not move C beyond it. Measured: 2.1e-8 on sphere1, 3.4e-9 on cube4,
        # as with one 8x8 rule for the whole ring; the recursively graded
        # rules these replaced read 2.5e-7 and 2.0e-7.
        before = {name: solved(name).solution.capacitance for name in ("sphere1", "cube4")}
        *refined, far = bem.TIERS
        deeper = [t._replace(rule=t.rule._replace(nodes=2 * t.rule.nodes)) for t in refined]
        deeper[-1] = deeper[-1]._replace(cut=3.0)
        monkeypatch.setattr(bem, "TIERS", (*deeper, far))
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
        # Every ordered pair of distinct panels, compared corner by corner,
        # and every pair (i, j), i < j, that shares none, by the centroid rule:
        # the first separated row of TIERS whose cut it is within, if any.
        separated = [t for t in bem.TIERS[:-1] if t.shared == 0]
        for mesh in (
            varcap.make_icosphere(1.0, 1),
            varcap.make_cube(1.0, 2),
            varcap.make_ellipsoid(2.0, 1.0, 1.0, 2),
        ):
            panels = varcap.build_panels(mesh)
            corners, centroids = panels.corners, panels.centroids
            m = len(corners)
            radii = np.linalg.norm(corners - centroids[:, None, :], axis=2).max(axis=1)
            expected, tiers = {}, {t.name: set() for t in separated}
            for i in range(m):
                # on[j][a]: corner a of panel i is one of panel j's corners.
                on = (corners[i][:, None, None, :] == corners[None]).all(axis=3).any(axis=2)
                dist = np.linalg.norm(centroids - centroids[i], axis=1)
                within = [dist < t.cut * (1.0 + 1e-9) * (radii[i] + radii) for t in separated]
                for j, corner_on in enumerate(on.T.tolist()):
                    shared = [a for a in range(3) if corner_on[a]]
                    if i != j and shared:
                        expected[(i, j)] = shared
                    elif i < j and not shared:
                        tier = next((t.name for t, w in zip(separated, within) if w[j]), None)
                        if tier is not None:
                            tiers[tier].add((i, j))
            pairs = bem._refined_pairs(corners, centroids)
            got = {}
            for case in ("edge", "vertex"):
                for i, j, perm_i, perm_j in zip(*pairs[case]):
                    assert i < j
                    for key, perm in (((i, j), perm_i), ((j, i), perm_j)):
                        assert list(perm) == [(perm[0] + k) % 3 for k in range(3)]
                        assert key not in got
                        got[key] = sorted(perm[:2] if case == "edge" else perm[:1])
            assert got == expected
            for tier, want in tiers.items():
                i, j, perm_i, perm_j = pairs[tier]
                assert len(want) > 0, tier
                assert set(zip(i, j)) == want and len(i) == len(want), tier
                assert np.all(perm_i == [0, 1, 2]) and np.all(perm_j == [0, 1, 2]), tier

    def test_near_ring_invariant_under_translation_and_scaling(self):
        # Many cube pairs sit exactly on the ring tier's cut; rounding must
        # move no pair across it or the near tier's cut when the cube is
        # translated or scaled.
        def ring(mesh):
            panels = varcap.build_panels(mesh)
            pairs = bem._refined_pairs(panels.corners, panels.centroids)
            return {t: set(zip(*(k.tolist() for k in pairs[t][:2]))) for t in ("near", "ring")}

        cube = varcap.make_cube(1.0, 4)
        base = ring(cube)
        assert all(len(tier) > 0 for tier in base.values())
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
        # The 2:1:1 ellipsoid too: a curved mesh without the sphere's symmetry.
        for name in ("cube4", "ellipsoid"):
            system = solved(name).system
            scale = float(np.max(np.abs(system.matrix)))
            assert system.asymmetry_norm <= 1e-6 * scale, name
            assert np.array_equal(system.matrix, system.matrix.T), name
            assert np.all(system.matrix > 0), name

    def test_correction_entries_independent_of_position(self):
        # A refined entry must not depend on its place in a correction
        # chunk: prepending rows or permuting the pairs moves no bit, with
        # the corners kept (separated pairs) or rotated (touching pairs).
        panels = varcap.build_panels(varcap.make_icosphere(1.0, 2))
        m = panels.n_panels
        pairs = np.random.default_rng(31).permutation(m * m)[:703]
        rows, srcs = pairs[3:] // m, pairs[3:] % m
        pts, wts = tier_rule("near")

        def entries(order, pad, perms):
            r = np.concatenate([pairs[:pad] // m, rows[order]])
            s = np.concatenate([pairs[:pad] % m, srcs[order]])
            perms = np.tile(perms, (len(r), 1))
            vals = bem._refined_entries(
                panels.corners, panels.areas, bem._frames(panels.corners), r, s, perms, pts, wts
            )
            out = np.empty(len(rows))
            out[order] = vals[pad:]
            return out

        for perms in ((0, 1, 2), (1, 2, 0)):
            base = entries(np.arange(len(rows)), 0, perms)
            assert np.all(base > 0)
            for pad in (1, 2, 3):
                assert np.array_equal(entries(np.arange(len(rows)), pad, perms), base), pad
            assert np.array_equal(entries(np.arange(len(rows))[::-1], 0, perms), base)

    @pytest.mark.parametrize("name", ["sphere2", "cube4", "aspect10"])
    def test_refined_entries_match_3d_reference(self, solved, name):
        # The refined classes interpolate the outer points' coordinates in
        # the source frame from the outer corners'. A reference that builds
        # the outer points in 3-D and calls triangle_potentials there must
        # agree to round-off on a sample of each class: cube4's coplanar
        # neighbours have h at round-off, and the aspect-10 panels meet as an
        # edge pair (their short side), vertex pairs and near-tier pairs; a
        # fifth, lifted by 2.2, is a ring-tier pair with each of the others.
        if name == "aspect10":
            t = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.05, 1.0, 0.0]])
            mirror = t[[1, 0, 2]] * [1, -1, 1]
            tris = [t, mirror, -mirror, mirror + [0.0, 0.0, 0.2], t + [0.0, 0.0, 2.2]]
            panels = PanelSystem.from_triangles(np.stack(tris))
        else:
            panels = solved(name).panels
        corners, areas = panels.corners, panels.areas
        refined = bem._refined_pairs(corners, panels.centroids)
        for case in ("edge", "vertex", "near", "ring"):
            pts, wts = tier_rule(case)
            i, j, perm_i, perm_j = refined[case]
            assert len(i) > 0, case
            rows, srcs, perm = (np.concatenate(two) for two in ((i, j), (j, i), (perm_i, perm_j)))
            frames = bem._frames(corners)
            got = bem._refined_entries(corners, areas, frames, rows, srcs, perm, pts, wts)
            for k in np.random.default_rng(47).permutation(len(rows))[:150]:
                outer = corners[rows[k]][perm[k]]
                inner = varcap.triangle_potentials(pts @ outer, corners[srcs[k]])
                ref = areas[rows[k]] * float(wts @ inner) / FOUR_PI
                assert got[k] == pytest.approx(ref, rel=1e-13, abs=0.0), (case, k)

    @staticmethod
    def _tier_entries(panels, tier, rows, srcs, perms):
        # One direction of a tier's pairs, as a lone _refined_entries call
        # with the tier's own rule.
        pts, wts = tier_rule(tier)
        return bem._refined_entries(
            panels.corners, panels.areas, bem._frames(panels.corners), rows, srcs, perms, pts, wts
        )

    @pytest.mark.parametrize("name", ["sphere2", "ellipsoid"])
    def test_near_ring_evaluated_once_and_mirrored(self, solved, name):
        # Every refined row of TIERS, each entry bitwise. A separated pair
        # (i, j), i < j, is evaluated with panel i as the outer triangle and
        # copied to (j, i), and its tier counts pairs. A touching pair's
        # entry is the mean of its two directions, which its tier counts,
        # and asymmetry_norm is their largest difference.
        sm = solved(name)
        matrix = sm.system.matrix
        pairs = bem._refined_pairs(sm.panels.corners, sm.panels.centroids)
        assert [tier.name for tier in bem.TIERS[:-1]] == list(pairs)
        asym = 0.0
        for tier in bem.TIERS[:-1]:
            i, j, perm_i, perm_j = pairs[tier.name]
            assert len(i) > 0 and np.all(i < j), tier.name
            assert np.array_equal(matrix[i, j], matrix[j, i]), tier.name
            forward = self._tier_entries(sm.panels, tier.name, i, j, perm_i)
            if tier.shared == 0:
                assert sm.system.assembly[tier.name].entries == len(i), tier.name
                assert np.array_equal(matrix[i, j], forward), tier.name
                continue
            backward = self._tier_entries(sm.panels, tier.name, j, i, perm_j)
            assert sm.system.assembly[tier.name].entries == 2 * len(i), tier.name
            assert np.array_equal(matrix[i, j], 0.5 * (forward + backward)), tier.name
            asym = max(asym, float(np.max(np.abs(forward - backward))))
        assert sm.system.asymmetry_norm == asym > 0

    @pytest.mark.parametrize("name", ["cube8", "ellipsoid"])
    def test_near_ring_one_direction_keeps_capacitance(self, solved, name):
        # Averaging both directions of every near-ring pair, each tier with
        # its own rule, as assembly once did, moves C by at most 1e-11
        # relative. Measured: 3.8e-12 on cube8, 3.0e-12 on the ellipsoid; the
        # largest per-entry difference between the directions is 1.9e-9
        # (near) and 1.3e-8 (ring) relative on cube8, 1.6e-8 and 4.7e-8 on
        # the ellipsoid.
        sm = solved(name)
        matrix = sm.system.matrix.copy()
        pairs = bem._refined_pairs(sm.panels.corners, sm.panels.centroids)
        for tier in ("near", "ring"):
            i, j, perm_i, perm_j = pairs[tier]
            forward = self._tier_entries(sm.panels, tier, i, j, perm_i)
            backward = self._tier_entries(sm.panels, tier, j, i, perm_j)
            matrix[i, j] = matrix[j, i] = 0.5 * (forward + backward)
        averaged = varcap.GalerkinSystem(
            matrix, sm.system.areas, sm.system.total_area, 0.0, sm.system.centroids
        )
        c = sm.solution.capacitance
        assert abs(varcap.solve_capacitance(averaged).capacitance - c) <= 1e-11 * c

    def test_far_entries_match_point_pair_definition(self, solved):
        # A far entry is a_i a_j sum_pq w_p w_q / (4 pi |x_p - y_q|) over the
        # far rule's points on both panels: a plain loop over sampled far
        # pairs of sphere2, on both sides of the diagonal, must give the
        # assembled entries. Against the analytic inner integral under the
        # same outer rule, as the far field was once computed, they differ
        # by the rule's own error. Measured: at most 9.9e-7 relative over
        # all of sphere2's far entries (2.1e-6 on sphere3, 2.2e-6 on cube8).
        sm = solved("sphere2")
        panels, matrix = sm.panels, sm.system.matrix
        corners, areas, m = panels.corners, panels.areas, panels.n_panels
        refined = np.eye(m, dtype=bool)
        for i, j, *_ in bem._refined_pairs(corners, panels.centroids).values():
            refined[i, j] = refined[j, i] = True
        far_i, far_j = np.nonzero(~refined)
        pick = np.random.default_rng(43).choice(len(far_i), 400, replace=False)
        points, weights = tier_rule("far")
        worst = 0.0
        for i, j in zip(far_i[pick], far_j[pick]):
            x, y = points @ corners[i], points @ corners[j]
            total = 0.0
            for wp, xp in zip(weights, x):
                for wq, yq in zip(weights, y):
                    total += wp * wq / math.dist(xp, yq)
            entry = areas[i] * areas[j] * total / FOUR_PI
            assert matrix[i, j] == pytest.approx(entry, rel=1e-13, abs=0.0), (i, j)
            inner = varcap.triangle_potentials(x, corners[j])
            analytic = areas[i] * float(weights @ inner) / FOUR_PI
            worst = max(worst, abs(matrix[i, j] / analytic - 1.0))
        assert np.any(far_i[pick] < far_j[pick]) and np.any(far_i[pick] > far_j[pick])
        assert 0 < worst <= 2e-6

    def test_far_field_rule_meets_quadrature_budget(self, solved, monkeypatch):
        # The far field's 6 x 6 point pairs meet the quadrature budget
        # |dC/C| <= 1e-7: a degree-8 rule on both panels (25 x 25 pairs)
        # must not move C beyond it. Measured: 6.3e-9 on sphere2, 5.0e-9 on
        # cube4, 5.0e-10 on the ellipsoid.
        names = ("sphere2", "cube4", "ellipsoid")
        before = {name: solved(name).solution.capacitance for name in names}
        monkeypatch.setattr(bem, "TIERS", deep_far_tiers())
        for name, c in before.items():
            deep = assemble(solved(name).panels)
            c_deep = varcap.solve_capacitance(deep).capacitance
            assert abs(c - c_deep) <= 1e-7 * c_deep, name

    def test_duplicate_panels_rejected(self, tmp_path, capsys, monkeypatch):
        # Two panels with the same corners make A_h indefinite (the edge
        # rule overshoots their self-term), so assembly names them before
        # it computes any entry; the corners may come in any order.
        def no_far_field(*args):
            raise AssertionError("far field computed for duplicate panels")

        monkeypatch.setattr(bem, "_far_tile", no_far_field)
        for tris in ([TRI, TRI], [TRI, TRI, TRI + 5.0], [TRI, TRI[[1, 2, 0]]]):
            with pytest.raises(DegenerateTriangleError, match="duplicate panels 0 and 1") as info:
                assemble(PanelSystem.from_triangles(np.stack(tris)))
            assert info.value.indices == [0, 1]
        # A closed two-panel mesh file: the CLI exits with the mesh error code.
        for faces in ("f 1 2 3\nf 1 2 3\n", "f 1 2 3\nf 2 3 1\n"):
            path = tmp_path / "duplicate.obj"
            path.write_text("".join(f"v {x} {y} {z}\n" for x, y, z in TRI) + faces)
            with pytest.warns(UserWarning, match="not consistently oriented"):
                code = main(["solve", "--mesh", str(path), "--json"])
            err = json.loads(capsys.readouterr().out)["error"]
            assert code == EXIT_MESH == err["code"]
            assert err["type"] == "DegenerateTriangleError"
            assert "duplicate panels 0 and 1" in err["message"]
            assert err["indices"] == [0, 1]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_entry_rejected(self, monkeypatch, workers):
        # With the finder patched to see no refined pairs, a duplicate pair
        # reaches a far tile, whose coincident rule points give inf; the
        # finiteness guard names the pair.
        none = np.empty(0, dtype=int)
        empty = (none, none, np.empty((0, 3), dtype=int), np.empty((0, 3), dtype=int))
        refined = {tier.name: empty for tier in bem.TIERS[:-1]}
        monkeypatch.setattr(bem, "_refined_pairs", lambda *args: refined)
        panels = PanelSystem.from_triangles(np.stack([TRI, TRI[[1, 2, 0]], TRI + 5.0]))
        with pytest.raises(AssemblyError, match=r"panel pair \(0, 1\)"):
            assemble(panels, workers=workers)

    def test_kernel_calls_within_point_budget(self, monkeypatch):
        # Every kernel call of an assembly stays within POINTS_PER_CALL, and
        # every far-field tile within nq POINTS_PER_CALL point pairs; with a
        # budget small enough to split sphere2's rows into many tiles, the
        # entries are the same up to the weighted sums' round-off.
        panels = varcap.build_panels(varcap.make_icosphere(1.0, 2))
        nq = len(tier_rule("far")[1])
        kernel, tile = bem._potential_local, bem._far_tile
        sizes, pairs = [], []

        def counted(local, dims):
            out = kernel(local, dims)
            sizes.append(out.size)
            return out

        def counted_tile(matrix, points, areas, weights, r0, r1, c0, c1, scratch):
            pairs.append((r1 - r0) * (c1 - c0) * len(weights) ** 2)
            tile(matrix, points, areas, weights, r0, r1, c0, c1, scratch)

        monkeypatch.setattr(bem, "_potential_local", counted)
        monkeypatch.setattr(bem, "_far_tile", counted_tile)
        base = assemble(panels).matrix
        assert 0 < max(sizes) <= bem.POINTS_PER_CALL
        assert 0 < max(pairs) <= nq * bem.POINTS_PER_CALL
        tiles = len(pairs)
        sizes.clear()
        pairs.clear()
        monkeypatch.setattr(bem, "POINTS_PER_CALL", 600)
        small = assemble(panels).matrix
        assert max(sizes) <= 600
        assert max(pairs) <= nq * 600 and len(pairs) > tiles
        np.testing.assert_allclose(small, base, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("budget", [None, 600], ids=["default", "600"])
    def test_workers_bitwise_identical_odd_panel_count(self, monkeypatch, budget):
        # 79 panels: worker k fills far-field tiles k, k + workers, ...,
        # with the calling thread as worker 0. The square tiles depend on m
        # and nq alone and each writes its own entries into both triangles
        # once, so neither the split nor the thread timing can move a bit,
        # and A_h is exactly symmetric. At a budget of 600 points the tiles
        # are 10 panels wide: eight diagonal tiles and partial edge tiles.
        monkeypatch.setattr(bem, "_usable_cpus", lambda: 4)
        if budget is not None:
            monkeypatch.setattr(bem, "POINTS_PER_CALL", budget)
        corners = varcap.build_panels(varcap.make_icosphere(1.0, 2)).corners[:79]
        panels = PanelSystem.from_triangles(corners)
        base = assemble(panels, workers=1).matrix
        assert np.array_equal(base, base.T)
        for workers in (2, 3):
            assert np.array_equal(assemble(panels, workers=workers).matrix, base), workers

    def test_workers_capped_by_usable_cpus(self, monkeypatch):
        # A workers count far above the CPUs asks the pool for at most one
        # thread per usable CPU besides the calling one. The fake pool runs
        # its shares serially in the calling thread, so no thread starts.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(bem, "ThreadPoolExecutor", SerialPool)
        panels = varcap.build_panels(varcap.make_icosphere(1.0, 2))
        base = assemble(panels, workers=1).matrix
        for cpus in (bem._usable_cpus(), 3):
            monkeypatch.setattr(bem, "_usable_cpus", lambda: cpus)
            asked.clear()
            assert np.array_equal(assemble(panels, workers=10_000).matrix, base)
            assert asked == [max(1, cpus - 1)], (cpus, asked)

    def test_assembly_peak_memory(self, solved):
        # Every value is written, in its final units, into both triangles
        # where it is computed, so assembly holds no m x m temporary besides
        # the finiteness mask (1/8 of the matrix).
        # Measured on sphere3: 1.35x the matrix; averaging M and M^T whole
        # read 3.18x.
        panels = solved("sphere3").panels
        tracemalloc.start()
        try:
            matrix = assemble(panels).matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * matrix.nbytes, peak / matrix.nbytes

    def test_duffy_rules_built_once_and_read_only(self):
        # Each spec's table is built once; a fresh build is bitwise the same.
        for tier in bem.TIERS[:-1]:
            pts, wts = bem._rule_table(tier.rule)
            assert bem._rule_table(tier.rule)[0] is pts
            assert not (pts.flags.writeable or wts.flags.writeable)
            fresh = bem._duffy_rule.__wrapped__(*tier.rule)
            assert np.array_equal(fresh[0], pts) and np.array_equal(fresh[1], wts)

    def test_frames_computed_once_per_assembly(self, monkeypatch):
        # The diagonal and every refined tier read one frame table.
        calls = []
        frames = bem._frames
        monkeypatch.setattr(bem, "_frames", lambda tris: calls.append(len(tris)) or frames(tris))
        panels = varcap.build_panels(varcap.make_icosphere(1.0, 1))
        assemble(panels)
        assert calls == [panels.n_panels]

    def test_workers_bitwise_identical(self, monkeypatch):
        monkeypatch.setattr(bem, "_usable_cpus", lambda: 4)
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

    def test_certified_cholesky_bound_not_positive(self):
        # diag(1e-307, 1, 1) factors, but the underflow allowance for its
        # smallest pivot exceeds the shift, so the proof fails with no
        # LAPACK error behind it.
        with pytest.raises(SolveError, match="could not prove") as info:
            bem._certified_cholesky(np.diag([1e-307, 1.0, 1.0]))
        assert info.value.__cause__ is None

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rfp_diagonal_positions(self, n):
        # LAPACK's RFP layout (TRANSR 'N', UPLO 'U') differs for odd and even n.
        packed, info = scipy.linalg.lapack.dtrttf(np.diag(np.arange(1.0, n + 1)))
        assert info == 0
        assert np.array_equal(packed[bem._rfp_diagonal(n)], np.arange(1.0, n + 1))

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
