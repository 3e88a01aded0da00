"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output on failure). Tolerances
are pinned in the asserts themselves.
"""

import contextlib
import json
import math
import zlib

import numpy as np
import pytest

import varcap
from varcap import SymmetricForm, find_witness, quotient, spd_check, verify_principle
from varcap.capacitance import (
    gauss_functional,
    rayleigh_bound,
    subspace_bound,
    trial_families,
    zeroth_capacitance,
)
from varcap.cli import main, richardson_extrapolate

from conftest import ALL_MESH_NAMES, get_solved

FOUR_PI = 4.0 * math.pi

SPHERES = ("sphere1", "sphere2", "sphere3", "sphere4")
CUBES = ("cube4", "cube8", "cube16")


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {description}")
        raise
    print(f"[criterion {num:02d}] PASS - {description}")


def test_criterion_01_sphere_oracle():
    with criterion(1, "sphere capacitance converges to 4*pi within budget"):
        errors = []
        seconds = {}
        for name in SPHERES:
            sm = get_solved(name)
            errors.append(abs(sm.solution.capacitance - FOUR_PI))
            seconds[name] = sm.build_seconds
        assert errors[2] <= 0.02 * FOUR_PI   # subdivision 3 within 2%
        assert errors[3] <= 0.01 * FOUR_PI   # subdivision 4 within 1%
        assert errors[0] > errors[1] > errors[2] > errors[3]
        total_seconds = sum(seconds.values())
        per_mesh = ", ".join(f"{name} {t:.1f}s" for name, t in seconds.items())
        assert total_seconds < 120.0, (
            f"sphere suite took {total_seconds:.1f}s ({per_mesh})"
        )


def test_criterion_02_constant_density_bound():
    with criterion(2, "constant-density bound below C, tight only on spheres"):
        for name in ALL_MESH_NAMES:
            sm = get_solved(name)
            c = sm.solution.capacitance
            c0 = zeroth_capacitance(sm.system).c_zeroth
            assert c0 <= c * (1.0 + 1e-10), name
            if name in SPHERES:
                assert abs(c0 - c) <= 2.0 * abs(c - FOUR_PI), name
            if name in CUBES:
                assert c - c0 > 0.01 * c, name


def test_criterion_03_cube_benchmark():
    with criterion(3, "cube Richardson extrapolation self-consistency"):
        values = [get_solved(name).solution.capacitance for name in CUBES]
        result = richardson_extrapolate(values)
        assert 0.655 <= result["limit"] / FOUR_PI <= 0.666
        est1, est2 = result["pair_estimates"]
        assert abs(est1 - est2) <= 0.005 * abs(est2)


def test_criterion_04_positive_definiteness():
    with criterion(4, "assembled systems are SPD on every mesh"):
        for name in ALL_MESH_NAMES:
            report = spd_check(get_solved(name).system)
            assert report.cholesky_succeeded, name
            assert report.min_eigenvalue > 0, name


def test_criterion_05_sufficiency_suite():
    with criterion(5, "quotient bounded by (Au, u) and attained for SPD"):
        for i in range(100):
            rng = np.random.default_rng(1000 + i)
            n = int(rng.integers(2, 21))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            form = SymmetricForm.from_matrix((q * rng.uniform(0.1, 10.0, n)) @ q.T)
            u = rng.standard_normal(n)
            qfu = float(u @ form.matrix @ u)

            v = rng.standard_normal((1000, n))
            av = v @ form.matrix
            denoms = np.einsum("ij,ij->i", v, av)
            nums = (av @ u) ** 2
            norms2 = np.einsum("ij,ij->i", v, v)
            ok = np.abs(denoms) > 1e-13 * form.norm * norms2
            probes = nums[ok] / denoms[ok]
            assert np.max(probes) <= qfu * (1.0 + 1e-8) + 1e-12, i
            at_u = quotient(form, u, u)
            assert abs(at_u.value - qfu) <= 1e-10 * (1.0 + abs(qfu)), i


def test_criterion_06_necessity_suite():
    with criterion(6, "indefinite operators are exposed by explicit witnesses"):
        for i in range(100):
            rng = np.random.default_rng(2000 + i)
            n = int(rng.integers(2, 21))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d = rng.uniform(0.1, 10.0, n)
            d[rng.integers(0, n)] *= -1.0
            form = SymmetricForm.from_matrix((q * d) @ q.T)
            u = rng.standard_normal(n)
            qfu = float(u @ form.matrix @ u)
            report = verify_principle(form, u)
            assert report.classification == "indefinite", i
            # The witness alone, not the random probes, must beat (Au, u).
            assert report.witness is not None, i
            assert report.witness.quotient >= qfu + 1.0, i

        # Analytic two-dimensional family: for diag(1, -1), u = (1, 1) the
        # sweep v = lambda*z + w at lambda = -(1 + delta) gives (2+delta)/delta.
        form = SymmetricForm.from_matrix(np.diag([1.0, -1.0]))
        u = np.array([1.0, 1.0])
        witness = find_witness(form, u)
        assert witness is not None and witness.quotient > 1e6
        z, w = witness.z, witness.w
        sign = math.copysign(1.0, float(z[0]))  # eigenvector sign convention
        delta = 0.1
        for _ in range(20):
            lam = witness.lambda1 - delta
            q_val = quotient(form, u, lam * (sign * z) + (w * math.copysign(1.0, w[1]))).value
            assert q_val == pytest.approx(2.0 / delta, rel=0.05), delta
            delta *= 0.5


def test_criterion_07_energy_principle():
    with criterion(7, "energy per squared charge is minimized by equilibrium"):
        for name in ALL_MESH_NAMES:
            sm = get_solved(name)
            c = sm.solution.capacitance
            g_sigma = gauss_functional(sm.system, sm.solution.sigma)
            assert abs(g_sigma - 1.0 / c) <= 1e-10 / c, name

            rng = np.random.default_rng(zlib.crc32(name.encode()))
            n = sm.system.n
            v = rng.standard_normal((1000, n)) + 1.0
            energies = np.einsum("ij,ij->i", v, v @ sm.system.matrix)
            charges = v @ sm.system.areas
            assert np.all(np.abs(charges) > 0)
            values = energies / charges**2
            assert np.min(values) >= 1.0 / c - 1e-12, name
            # Spot-check the batched evaluation against the public API.
            for k in range(5):
                assert gauss_functional(sm.system, v[k]) == pytest.approx(
                    values[k], rel=1e-13
                )


def test_criterion_08_algebraic_identities():
    with criterion(8, "capacitance representations agree algebraically"):
        for name in ALL_MESH_NAMES:
            sm = get_solved(name)
            c = sm.solution.capacitance
            sigma = sm.solution.sigma
            b_sigma = float(sm.system.areas @ sigma)
            energy = float(sigma @ sm.system.matrix @ sigma)
            assert abs(b_sigma - c) <= 1e-10 * c, name
            assert abs(energy - c) <= 1e-10 * c, name
            bounds = [
                subspace_bound(sm.system, cols.T)
                for _, cols in trial_families(sm.system.centroids)
            ]
            assert bounds[1] >= bounds[0] * (1 - 1e-12), name
            assert bounds[2] >= bounds[1] * (1 - 1e-12), name
            assert bounds[2] <= c * (1 + 1e-10), name

        for name in ("sphere2", "cube4"):
            sm = get_solved(name)
            full = subspace_bound(sm.system, np.eye(sm.system.n))
            assert abs(full - sm.solution.capacitance) <= 1e-10 * full, name

        sm = get_solved("cube4")
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.standard_normal(sm.system.n) + 0.5
            r = rayleigh_bound(sm.system, v)
            g = gauss_functional(sm.system, v)
            assert abs(r.value - 1.0 / g) <= 1e-12 * abs(r.value)


def test_criterion_09_symmetry_and_scaling():
    with criterion(9, "capacitance scales linearly and ignores rigid motions"):
        base = get_solved("sphere2")
        c = base.solution.capacitance
        for s in (0.1, 2.5, 10.0, 1e-8):
            mesh = base.mesh.scaled(s)
            system = varcap.assemble(varcap.build_panels(mesh))
            c_s = varcap.solve_capacitance(system).capacitance
            assert abs(c_s - s * c) <= 1e-12 * s * c, s

        angle = 0.7
        rot = np.array(
            [
                [math.cos(angle), -math.sin(angle), 0.0],
                [math.sin(angle), math.cos(angle), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = base.mesh.transformed(lambda v: v @ rot.T + [1.5, -0.25, 3.0])
        system = varcap.assemble(varcap.build_panels(moved))
        c_m = varcap.solve_capacitance(system).capacitance
        assert abs(c_m - c) <= 1e-10 * c


def test_criterion_10_determinism(tmp_path, capsys, monkeypatch):
    # Four CPUs reported, so four workers split the far field four ways.
    monkeypatch.setattr(varcap.bem, "_usable_cpus", lambda: 4)
    with criterion(10, "solve reports are bitwise reproducible across workers"):
        reports = []
        for run in range(2):
            for workers in (1, 4):
                out = tmp_path / f"report_{run}_{workers}.json"
                code = main(
                    [
                        "solve", "--shape", "icosphere", "--subdiv", "2",
                        "--workers", str(workers),
                        "--json", "--out", str(out),
                    ]
                )
                capsys.readouterr()
                assert code == 0
                payload = json.loads(out.read_text())
                del payload["timings"]
                reports.append(json.dumps(payload, sort_keys=True))
        assert len(set(reports)) == 1
