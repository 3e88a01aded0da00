"""The benchmark's workloads.

Each workload makes its inputs from a seed, runs one round of program calls
(the timed part) and checks the answers against references computed apart
from varcap: 4*pi for the sphere, 4*pi / R_F(a^2, b^2, c^2) for an
ellipsoid (Carlson's symmetric integral, from scipy), Read's unit-cube value,
and the spectra the principle inputs are built from.

One operation is one capacitance solve or one ``verify-principle`` call. A
round is a list of steps, each a call that runs a few operations and returns
one answer per operation, or ``None`` for an operation that raised or exited
with a non-zero code. The steps let the benchmark time the machine's speed
between them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import elliprf

from varcap import bem, capacitance, cli, geometry

FOUR_PI = 4.0 * math.pi

# Unit cube, C / (4 pi) = 0.6606785: F. H. Read, "Improved extrapolation
# technique in the boundary element method to find the capacitances of the
# unit square and cube", J. Comput. Phys. 133 (1997) 1-5.
READ_CUBE = 0.6606785 * FOUR_PI

# |C_h - C| / C allowed on the finest mesh of a level (icosphere subdivisions);
# measured: level 1 4.3%, level 2 1.13%, level 3 0.29%.
SPHERE_TOL = {3: 0.02}
ELLIPSOID_TOL = {1: 0.08, 2: 0.02}
CG_AGREEMENT = 1e-8          # measured <= 6e-11 relative
RICHARDSON_TOL = 1e-3        # measured +5e-5 (levels 4,8,16), +2.7e-4 (2,4,8)
ROUNDOFF = 1e-9


def attempt(fn, *args):
    """Run one program call; an exception makes the operation failed (None)."""
    try:
        return fn(*args)
    except Exception:  # noqa: BLE001 - counted as a failed operation
        traceback.print_exc(file=sys.stderr)
        return None


def run_cli(argv: list[str]) -> str | None:
    """``varcap <argv>`` in-process; standard output, or None on a non-zero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        print(f"varcap {' '.join(argv)} exited {code}: {out.getvalue()}", file=sys.stderr)
        return None
    return out.getvalue()


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable      # (seed, smoke, workdir) -> inputs
    steps: Callable        # inputs -> [step, ...]; step() -> answers, one per operation
    check: Callable        # (inputs, answers) -> (problems, c_rel_error)
    mutations: tuple       # ((label, answers -> wrong answers), ...) for --self-test
    warm_up: Callable | None = None   # inputs -> None, run once before timing

    def run_round(self, inputs):
        return [answer for step in self.steps(inputs) for answer in step()]


# ---------------------------------------------------------------------------
# sphere-suite: icospheres 1-3, build_panels + assemble + direct solve
# ---------------------------------------------------------------------------

def sphere_prepare(seed, smoke, workdir):
    return {"levels": [1, 2] if smoke else [1, 2, 3]}


def _sphere_solve(level):
    mesh = geometry.make_icosphere(1.0, level)
    system = bem.assemble(geometry.build_panels(mesh), workers=1)
    return capacitance.solve_capacitance(system).capacitance


def sphere_warm_up(inputs):
    # The first sphere3 build in a process took 5-20% longer than later ones,
    # with 466k page faults against 4k: the heap grows to its working size.
    _sphere_solve(max(inputs["levels"]))


def sphere_steps(inputs):
    return [lambda level=level: [attempt(_sphere_solve, level)] for level in inputs["levels"]]


def sphere_check(inputs, answers):
    problems = []
    errors = []
    for level, c in zip(inputs["levels"], answers):
        if c is None:
            continue
        err = 1.0 - c / FOUR_PI
        tol = SPHERE_TOL.get(level, 1.0)
        if not err > 0:
            problems.append(f"sphere{level}: C_h/4pi = {c / FOUR_PI!r} is not below 1")
        if err > tol:
            problems.append(f"sphere{level}: error {err:.3g} exceeds {tol}")
        errors.append(abs(err))
    if any(b >= a for a, b in zip(errors, errors[1:])):
        problems.append(f"sphere errors do not strictly decrease: {errors}")
    finest = answers[-1]
    return problems, _rel(finest, FOUR_PI) if finest is not None else 1.0


# ---------------------------------------------------------------------------
# ellipsoid-batch: seeded ellipsoids, direct and CG solves, bound ledger
# ---------------------------------------------------------------------------

def ellipsoid_prepare(seed, smoke, workdir):
    rng = np.random.default_rng(seed)
    count, level = (2, 1) if smoke else (4, 2)
    semiaxes = [tuple(float(x) for x in rng.uniform(0.5, 1.5, 3)) for _ in range(count)]
    return {"semiaxes": semiaxes, "level": level}


def _ellipsoid_system(axes, level):
    mesh = geometry.make_ellipsoid(*axes, level)
    return bem.assemble(geometry.build_panels(mesh), workers=1)


def _direct_with_ledger(system):
    solution = capacitance.solve_capacitance(system, method="direct")
    ledger = capacitance.bound_ledger(system, solution)
    return {
        "C": solution.capacitance,
        "c_zeroth": ledger.c_zeroth,
        "bounds": dict(ledger.subspace_bounds),
        "gauss": ledger.gauss_at_sigma,
    }


def _cg(system):
    return {"C": capacitance.solve_capacitance(system, method="cg").capacitance}


def _ellipsoid_step(axes, level):
    system = attempt(_ellipsoid_system, axes, level)
    if system is None:
        return [None, None]
    return [attempt(_direct_with_ledger, system), attempt(_cg, system)]


def ellipsoid_steps(inputs):
    return [lambda axes=axes: _ellipsoid_step(axes, inputs["level"])
            for axes in inputs["semiaxes"]]


def ellipsoid_check(inputs, answers):
    problems = []
    worst = 0.0
    tol = ELLIPSOID_TOL[inputs["level"]]
    for k, axes in enumerate(inputs["semiaxes"]):
        direct, cg = answers[2 * k], answers[2 * k + 1]
        a, b, c = axes
        c_ref = FOUR_PI / float(elliprf(a * a, b * b, c * c))
        tag = f"ellipsoid {a:.4f},{b:.4f},{c:.4f}"
        if direct is None:
            worst = 1.0
            continue
        c_h = direct["C"]
        deficit = 1.0 - c_h / c_ref
        worst = max(worst, abs(deficit))
        if not 0.0 < deficit <= tol:
            problems.append(f"{tag}: 1 - C_h/C_ref = {deficit:.4g}, expected in (0, {tol}]")
        quad = direct["bounds"]["quadratic"]
        slack = ROUNDOFF * c_h
        if not direct["c_zeroth"] <= quad + slack or not quad <= c_h + slack:
            problems.append(
                f"{tag}: bounds not nested: c_zeroth {direct['c_zeroth']!r}, "
                f"quadratic {quad!r}, C_h {c_h!r}"
            )
        if abs(direct["gauss"] * c_h - 1.0) > ROUNDOFF:
            problems.append(f"{tag}: gauss_at_sigma * C_h = {direct['gauss'] * c_h!r}")
        if cg is not None and _rel(cg["C"], c_h) > CG_AGREEMENT:
            problems.append(f"{tag}: cg {cg['C']!r} and direct {c_h!r} disagree")
    return problems, worst


def _scaled_direct(answers, factor):
    return [
        dict(a, C=a["C"] * factor) if a is not None and "gauss" in a else a for a in answers
    ]


def _scaled_cg(answers, factor):
    return [
        dict(a, C=a["C"] * factor) if a is not None and "gauss" not in a else a
        for a in answers
    ]


# ---------------------------------------------------------------------------
# cube-converge: `varcap converge --shape cube --levels 2,4,8 --workers 2`
# ---------------------------------------------------------------------------

def cube_prepare(seed, smoke, workdir):
    return {"levels": [2, 4, 8]}


def _cube_step(levels):
    argv = ["converge", "--shape", "cube", "--levels", ",".join(map(str, levels)),
            "--workers", "2", "--json"]
    report = attempt(run_cli, argv)
    # One converge call makes one solve per level; they succeed or fail together.
    return [report] * len(levels)


def cube_steps(inputs):
    return [lambda: _cube_step(inputs["levels"])]


def cube_check(inputs, answers):
    if answers[0] is None:
        return [], 1.0
    report = json.loads(answers[0])
    rows = report["rows"]
    problems = []
    values = [r["C"] for r in rows]
    if [r["panels"] for r in rows] != [12 * n * n for n in inputs["levels"]]:
        problems.append(f"cube panel counts {[r['panels'] for r in rows]}")
    for r in rows:
        if not r["C"] < READ_CUBE:
            problems.append(f"cube{r['level']}: C_h/4pi = {r['C_over_4pi']!r} not below Read")
    if any(b <= a for a, b in zip(values, values[1:])):
        problems.append(f"cube C_h does not increase over nested meshes: {values}")
    limit = report["extrapolation"]["limit"]
    if _rel(limit, READ_CUBE) > RICHARDSON_TOL:
        problems.append(f"Richardson limit {limit / FOUR_PI!r}*4pi is off Read's value")
    return problems, _rel(values[-1], READ_CUBE)


def _scaled_cube(answers, factor):
    report = json.loads(answers[0])
    report["rows"][-1]["C"] *= factor
    report["rows"][-1]["C_over_4pi"] *= factor
    return [json.dumps(report)] * len(answers)


# ---------------------------------------------------------------------------
# principle: `varcap verify-principle` on seeded symform/1 files
# ---------------------------------------------------------------------------

# Spectrum kind -> the classification its signs imply.
SPECTRA = {
    "positive-definite": "nonneg",
    "singular-nonneg": "nonneg",
    "one-negative": "indefinite",
    "nonpositive": "nonpos",
}


def _spectrum(kind, n, rng):
    d = rng.uniform(0.1, 1.0, n)
    if kind == "singular-nonneg":
        d[rng.choice(n, n // 4, replace=False)] = 0.0
    elif kind == "one-negative":
        d[rng.integers(n)] *= -1.0
    elif kind == "nonpositive":
        d = -d
        d[rng.choice(n, n // 4, replace=False)] = 0.0
    return d


def _write_symform(path, matrix, u):
    # json.dumps uses the C encoder; json.dump to a file does not.
    text = json.dumps({"schema": "symform/1", "matrix": matrix.tolist(), "u": u.tolist()})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def principle_prepare(seed, smoke, workdir):
    rng = np.random.default_rng(seed)
    cases = []
    for n in (20, 50) if smoke else (200, 800):
        for kind, expected in SPECTRA.items():
            d = _spectrum(kind, n, rng)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            matrix = (q * d) @ q.T
            matrix = 0.5 * (matrix + matrix.T)
            cases.append({"kind": kind, "expected": expected, "matrix": matrix,
                          "u": rng.standard_normal(n), "norm": float(np.max(np.abs(d)))})
    # The paper's use of the principle: the Galerkin matrix of the unit sphere
    # with u = A^{-1} b, so (Au, u) = b.u = C_h, the maximum of the quotient.
    level = 1 if smoke else 2
    system = bem.assemble(geometry.build_panels(geometry.make_icosphere(1.0, level)))
    matrix = np.array(system.matrix)
    cases.append({"kind": f"galerkin-sphere{level}", "expected": "nonneg", "matrix": matrix,
                  "u": np.linalg.solve(matrix, system.areas),
                  "norm": float(np.linalg.norm(matrix, 2)), "level": level})
    for k, case in enumerate(cases):
        case["path"] = str(Path(workdir) / f"form{k}-{case['kind']}-{len(case['u'])}.json")
        _write_symform(case["path"], case["matrix"], case["u"])
    return {"cases": cases}


def principle_steps(inputs):
    return [lambda path=case["path"]: [attempt(run_cli, ["verify-principle", "--input", path])]
            for case in inputs["cases"]]


def _check_report(case, rep):
    problems = []
    tag = f"{case['kind']} n={len(case['u'])}"
    matrix, u = case["matrix"], case["u"]
    scale = case["norm"] * float(u @ u)
    q_ref = float(u @ matrix @ u)
    if rep["classification"] != case["expected"]:
        problems.append(f"{tag}: classified {rep['classification']}, spectrum says "
                        f"{case['expected']}")
    if rep["consistent"] is not True:
        problems.append(f"{tag}: report is not consistent")
    if abs(rep["quadratic_form_at_u"] - q_ref) > ROUNDOFF * scale:
        problems.append(f"{tag}: (Au,u) = {rep['quadratic_form_at_u']!r}, u^T A u = {q_ref!r}")
    if case["expected"] == "nonneg":
        if rep["best_quotient"] > q_ref + ROUNDOFF * scale or not rep["attained_at_u"]:
            problems.append(f"{tag}: best quotient {rep['best_quotient']!r} above (Au,u) "
                            f"{q_ref!r} or not attained at u")
    if case["expected"] == "indefinite":
        w = rep["witness"]
        if w is None or not w["quotient"] > q_ref:
            problems.append(f"{tag}: no witness quotient above (Au,u) = {q_ref!r}")
        else:
            z, y = np.array(w["z"]), np.array(w["w"])
            a, b, c = float(z @ matrix @ z), float(z @ matrix @ y), float(y @ matrix @ y)
            if max(abs(a - w["a"]), abs(b - w["b"]), abs(c - w["c"])) > ROUNDOFF * case["norm"]:
                problems.append(f"{tag}: witness a, b, c do not match z, w")
            for lam in (w["lambda1"], w["lambda2"]):
                resid = a * lam * lam + 2 * b * lam + c
                if abs(resid) > ROUNDOFF * (abs(a) * lam * lam + 2 * abs(b * lam) + abs(c)):
                    problems.append(f"{tag}: lambda {lam!r} is not a root of a l^2 + 2b l + c")
            if not (a > 0 > c and w["lambda1"] < 0 < w["lambda2"]):
                problems.append(f"{tag}: witness signs a={a!r}, c={c!r}")
    return problems


def principle_check(inputs, answers):
    problems = []
    c_rel_error = 1.0
    for case, text in zip(inputs["cases"], answers):
        if text is None:
            continue
        rep = json.loads(text)
        problems += _check_report(case, rep)
        if "level" in case:
            c_h = rep["quadratic_form_at_u"]
            c_rel_error = _rel(c_h, FOUR_PI)
            if not 0.0 < 1.0 - c_h / FOUR_PI <= SPHERE_TOL.get(case["level"], 0.05):
                problems.append(f"{case['kind']}: (Au,u) = C_h = {c_h!r} against 4pi")
    return problems, c_rel_error


def _flip_classification(answers):
    flip = {"nonneg": "indefinite", "indefinite": "nonneg", "nonpos": "nonneg"}
    out = []
    for text in answers:
        rep = json.loads(text)
        rep["classification"] = flip[rep["classification"]]
        out.append(json.dumps(rep))
    return out


def _scaled_quadratic_form(answers, factor):
    out = []
    for text in answers:
        rep = json.loads(text)
        rep["quadratic_form_at_u"] *= factor
        out.append(json.dumps(rep))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sphere-suite", sphere_prepare, sphere_steps, sphere_check,
                 (("C_h x 1.05", lambda ans: [c * 1.05 for c in ans]),
                  ("C_h of the finest mesh x 1.02", lambda ans: ans[:-1] + [ans[-1] * 1.02])),
                 sphere_warm_up),
        Workload("ellipsoid-batch", ellipsoid_prepare, ellipsoid_steps, ellipsoid_check,
                 (("direct C_h x 1.05", lambda ans: _scaled_direct(ans, 1.05)),
                  ("cg C_h x (1 + 1e-6)", lambda ans: _scaled_cg(ans, 1.0 + 1e-6)))),
        Workload("cube-converge", cube_prepare, cube_steps, cube_check,
                 (("finest C_h x 1.01", lambda ans: _scaled_cube(ans, 1.01)),)),
        Workload("principle", principle_prepare, principle_steps, principle_check,
                 (("flipped classification", _flip_classification),
                  ("(Au,u) x (1 + 1e-6)", lambda ans: _scaled_quadratic_form(ans, 1.0 + 1e-6)))),
    )
}
