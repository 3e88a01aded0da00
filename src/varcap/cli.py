"""Command-line front end: mesh generation, capacitance runs, convergence
studies and variational-principle checks with machine-readable JSON reports.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import bem, capacitance, geometry, varprinciple
from .errors import (
    AssemblyError,
    AsymmetricMatrixError,
    DegenerateTriangleError,
    DimensionMismatchError,
    MeshFormatError,
    NonFiniteInputError,
    NotWatertightError,
    SolveError,
    VarcapError,
    ZeroTotalChargeError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MESH = 3
EXIT_IO = 4
EXIT_ASSEMBLY = 5
EXIT_SOLVE = 6
EXIT_PRINCIPLE = 7

_ERROR_CODES = [
    (NotWatertightError, EXIT_MESH),
    (DegenerateTriangleError, EXIT_MESH),
    (MeshFormatError, EXIT_IO),
    (AssemblyError, EXIT_ASSEMBLY),
    (SolveError, EXIT_SOLVE),
    (ZeroTotalChargeError, EXIT_SOLVE),
    (AsymmetricMatrixError, EXIT_PRINCIPLE),
    (DimensionMismatchError, EXIT_USAGE),
    (NonFiniteInputError, EXIT_USAGE),
    (OSError, EXIT_IO),
    (VarcapError, EXIT_USAGE),
]


def _error_payload(exc: Exception) -> tuple[int, dict]:
    code = EXIT_USAGE
    for etype, ecode in _ERROR_CODES:
        if isinstance(exc, etype):
            code = ecode
            break
    detail = {"type": type(exc).__name__, "message": str(exc), "code": code}
    if isinstance(exc, NotWatertightError):
        detail["boundary_edges"] = [list(map(int, e)) for e in exc.boundary_edges]
        detail["nonmanifold_edges"] = [list(map(int, e)) for e in exc.nonmanifold_edges]
    return code, {"schema": "caperror/1", "error": detail}


def _emit(payload: dict, out_path, as_json: bool, text: str | None = None) -> None:
    serialized = json.dumps(payload, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(serialized + "\n")
    if as_json or text is None:
        print(serialized)
    else:
        print(text)


def _add_shape_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shape", choices=["icosphere", "cube", "ellipsoid"])
    parser.add_argument("--radius", type=float, default=1.0)
    parser.add_argument("--side", type=float, default=1.0)
    parser.add_argument(
        "--semiaxes", type=str, default="1,1,1", help="ellipsoid a,b,c"
    )
    parser.add_argument("--subdiv", type=int, default=3)
    parser.add_argument("--panels-per-edge", type=int, default=4)


def _build_shape(args, level: int | None = None) -> geometry.SurfaceMesh:
    if args.shape == "icosphere":
        return geometry.make_icosphere(args.radius, level if level is not None else args.subdiv)
    if args.shape == "cube":
        return geometry.make_cube(
            args.side, level if level is not None else args.panels_per_edge
        )
    if args.shape == "ellipsoid":
        try:
            a, b, c = (float(x) for x in args.semiaxes.split(","))
        except ValueError as exc:
            raise VarcapError(f"bad --semiaxes {args.semiaxes!r}, expected a,b,c") from exc
        return geometry.make_ellipsoid(
            a, b, c, level if level is not None else args.subdiv
        )
    raise VarcapError("no mesh source: pass --shape or --mesh")


def _mesh_source(args) -> geometry.SurfaceMesh:
    if getattr(args, "mesh", None):
        if args.shape:
            raise VarcapError("pass exactly one of --mesh and --shape")
        fmt = args.format or _infer_format(args.mesh)
        return geometry.load_mesh(args.mesh, fmt)
    return _build_shape(args)


def _infer_format(path: str) -> str:
    lower = path.lower()
    if lower.endswith(".obj"):
        return "obj"
    if lower.endswith(".stl"):
        with open(path, "rb") as fh:
            head = fh.read(5)
        return "stl-ascii" if head == b"solid" else "stl-binary"
    raise MeshFormatError(f"cannot infer mesh format from {path!r}; pass --format")


def _shape_config(args) -> dict:
    cfg = {"shape": args.shape}
    if args.shape == "icosphere":
        cfg.update(radius=args.radius, subdiv=args.subdiv)
    elif args.shape == "cube":
        cfg.update(side=args.side, panels_per_edge=args.panels_per_edge)
    elif args.shape == "ellipsoid":
        cfg.update(semiaxes=args.semiaxes, subdiv=args.subdiv)
    return cfg


def _solve_pipeline(mesh, quad_order, solver, workers):
    t0 = time.perf_counter()
    panels = geometry.build_panels(mesh)
    rule = bem.triangle_rule(quad_order)
    t1 = time.perf_counter()
    system = bem.assemble(panels, rule, workers=workers)
    t2 = time.perf_counter()
    spd = bem.spd_check(system)
    t3 = time.perf_counter()
    solution = capacitance.solve_capacitance(system, method=solver)
    t4 = time.perf_counter()
    ledger = capacitance.bound_ledger(system, solution)
    t5 = time.perf_counter()
    timings = {
        "build_panels_s": t1 - t0,
        "assemble_s": t2 - t1,
        "spd_check_s": t3 - t2,
        "solve_s": t4 - t3,
        "bounds_s": t5 - t4,
        **{f"assemble_{name}_s": s.seconds for name, s in system.assembly.items()},
    }
    return panels, system, spd, solution, ledger, timings


def _solve_report(args, mesh, panels, system, spd, solution, ledger, timings) -> dict:
    lo, hi = mesh.bbox
    return {
        "schema": "capreport/1",
        "config": {
            "command": "solve",
            "mesh": getattr(args, "mesh", None),
            **_shape_config(args),
            "quad_order": args.quad_order,
            "solver": args.solver,
            "seed": args.seed,
        },
        "mesh": {
            "panels": panels.n_panels,
            "vertices": mesh.n_vertices,
            "total_area": system.total_area,
            "bbox": [lo.tolist(), hi.tolist()],
        },
        "capacitance": {
            "C": ledger.capacitance,
            "C_over_4pi": ledger.capacitance / bem.FOUR_PI,
            "c_zeroth": ledger.c_zeroth,
            "J": capacitance.zeroth_capacitance(system).j_integral,
            "subspace_bounds": {name: val for name, val in ledger.subspace_bounds},
            "gauss_at_sigma": ledger.gauss_at_sigma,
        },
        "diagnostics": {
            "min_eigenvalue": spd.min_eigenvalue,
            "cholesky_succeeded": spd.cholesky_succeeded,
            "asymmetry_norm": system.asymmetry_norm,
            "residual_norm": solution.residual_norm,
            "solve_iterations": solution.solve_iterations,
            "assembly": {
                name: {"entries": s.entries, "points_per_entry": s.points}
                for name, s in system.assembly.items()
            },
        },
        "timings": timings,
    }


def _solve_text(report: dict) -> str:
    cap = report["capacitance"]
    diag = report["diagnostics"]
    rows = [
        ("panels", report["mesh"]["panels"]),
        ("total area |S|", f"{report['mesh']['total_area']:.10g}"),
        ("C", f"{cap['C']:.10g}"),
        ("C / 4pi", f"{cap['C_over_4pi']:.10g}"),
        ("C0 (v = 1 bound)", f"{cap['c_zeroth']:.10g}"),
        ("J", f"{cap['J']:.10g}"),
        ("gauss(sigma)", f"{cap['gauss_at_sigma']:.10g}"),
        ("min eigenvalue", f"{diag['min_eigenvalue']:.4g}"),
        ("cholesky ok", diag["cholesky_succeeded"]),
        ("asymmetry norm", f"{diag['asymmetry_norm']:.3g}"),
    ] + [
        (f"bound[{name}]", f"{val:.10g}")
        for name, val in cap["subspace_bounds"].items()
    ]
    width = max(len(str(k)) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if not args.shape:
        raise VarcapError("generate requires --shape")
    mesh = _build_shape(args)
    fmt = args.format or ("obj" if args.out.lower().endswith(".obj") else "stl")
    if fmt == "obj":
        geometry.save_obj(mesh, args.out)
    elif fmt == "stl":
        geometry.save_stl(mesh, args.out)
    else:
        raise VarcapError(f"unknown output format {fmt!r}; expected obj or stl")
    print(
        json.dumps(
            {
                "schema": "genreport/1",
                "out": args.out,
                "format": fmt,
                "triangles": mesh.n_triangles,
                "vertices": mesh.n_vertices,
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    mesh = _mesh_source(args)
    panels, system, spd, solution, ledger, timings = _solve_pipeline(
        mesh, args.quad_order, args.solver, args.workers
    )
    report = _solve_report(args, mesh, panels, system, spd, solution, ledger, timings)
    _emit(report, args.out, args.json, _solve_text(report))
    return EXIT_OK


def richardson_extrapolate(values: list[float]) -> dict:
    """Extrapolated limit and empirical order from 3+ refinement values.

    Assumes a refinement ratio of 2 between consecutive levels.
    """
    if len(values) < 3:
        raise VarcapError("Richardson extrapolation needs at least 3 levels")
    y1, y2, y3 = values[-3:]
    ratio = (y1 - y2) / (y2 - y3)
    if ratio <= 0:
        raise VarcapError("non-monotone refinement sequence; cannot extrapolate")
    order = math.log2(ratio)
    factor = 2.0**order - 1.0
    pair_estimates = [
        values[k + 1] + (values[k + 1] - values[k]) / factor
        for k in range(len(values) - 1)
    ]
    return {
        "order": order,
        "limit": pair_estimates[-1],
        "pair_estimates": pair_estimates,
    }


def cmd_converge(args) -> int:
    if not args.shape:
        raise VarcapError("converge requires a built-in --shape")
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError as exc:
        raise VarcapError(f"bad --levels {args.levels!r}") from exc
    if len(levels) < 2:
        raise VarcapError("converge needs at least 2 refinement levels")
    if len(levels) >= 3:
        # Richardson extrapolation assumes the mesh width halves per level.
        cube = args.shape == "cube"
        if levels[1:] != [2 * n if cube else n + 1 for n in levels[:-1]]:
            rule = "double the panels per edge" if cube else "be consecutive subdivisions"
            raise VarcapError(
                f"--levels {args.levels!r} must {rule}: Richardson extrapolation "
                "assumes a refinement ratio of 2"
            )
    # convreport/1 carries C and C0 per level, so no SPD check or bound ledger.
    rule = bem.triangle_rule(args.quad_order)
    rows = []
    for level in levels:
        panels = geometry.build_panels(_build_shape(args, level=level))
        system = bem.assemble(panels, rule, workers=args.workers)
        c = capacitance.solve_capacitance(system, method=args.solver).capacitance
        rows.append(
            {
                "level": level,
                "panels": panels.n_panels,
                "C": c,
                "C_over_4pi": c / bem.FOUR_PI,
                "c_zeroth": capacitance.zeroth_capacitance(system).c_zeroth,
            }
        )
    extrapolation = None
    if len(rows) >= 3:
        extrapolation = richardson_extrapolate([r["C"] for r in rows])
        limit = extrapolation["limit"]
        for r in rows:
            r["error_vs_limit"] = abs(r["C"] - limit)
    report = {
        "schema": "convreport/1",
        "config": {
            "command": "converge",
            **_shape_config(args),
            "levels": levels,
            "quad_order": args.quad_order,
            "solver": args.solver,
            "seed": args.seed,
        },
        "rows": rows,
        "extrapolation": extrapolation,
    }
    header = f"{'level':>6} {'panels':>8} {'C':>16} {'C/4pi':>12} {'C0':>16}"
    lines = [header] + [
        f"{r['level']:>6} {r['panels']:>8} {r['C']:>16.10g} "
        f"{r['C_over_4pi']:>12.8g} {r['c_zeroth']:>16.10g}"
        for r in rows
    ]
    if extrapolation:
        lines.append(
            f"extrapolated C = {extrapolation['limit']:.10g} "
            f"(order {extrapolation['order']:.3g})"
        )
    _emit(report, args.out, args.json, "\n".join(lines))
    return EXIT_OK


def _witness_payload(witness) -> dict | None:
    if witness is None:
        return None
    return {
        "z": witness.z.tolist(),
        "w": witness.w.tolist(),
        "a": witness.a,
        "b": witness.b,
        "c": witness.c,
        "lambda1": witness.lambda1,
        "lambda2": witness.lambda2,
        "lambda_star": witness.lambda_star,
        "v_star": witness.v_star.tolist(),
        "quotient": witness.quotient,
    }


def cmd_verify_principle(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshFormatError(f"{args.input}: invalid JSON: {exc}") from exc
    if payload.get("schema") != "symform/1":
        raise VarcapError(
            f"{args.input}: expected schema 'symform/1', got {payload.get('schema')!r}"
        )
    if "matrix" not in payload or "u" not in payload:
        raise VarcapError(f"{args.input}: missing 'matrix' or 'u'")
    form = varprinciple.SymmetricForm.from_matrix(payload["matrix"])
    u = np.asarray(payload["u"], dtype=np.float64)
    report = varprinciple.verify_principle(
        form, u, random_trials=args.trials, seed=args.seed
    )
    qfu = report.quadratic_form_at_u
    holds = (
        report.best_quotient <= qfu * (1.0 + 1e-8) + 1e-12 and report.attained_at_u
    )
    if report.classification == "nonneg":
        consistent = holds
    elif report.classification == "indefinite":
        consistent = report.best_quotient > qfu
    else:  # nonpos: the principle must fail unless the operator is zero
        consistent = not holds or form.norm == 0.0
    out = {
        "schema": "principlereport/1",
        "classification": report.classification,
        "quadratic_form_at_u": qfu,
        "best_quotient": report.best_quotient,
        "attained_at_u": report.attained_at_u,
        "principle_holds_on_probes": holds,
        "consistent": consistent,
        "witness": _witness_payload(report.witness),
    }
    _emit(out, args.out, True)
    return EXIT_OK if consistent else EXIT_PRINCIPLE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcap",
        description="Boundary-element capacitance solver and variational-"
        "principle toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a built-in shape to OBJ/STL")
    _add_shape_args(gen)
    gen.add_argument("--format", choices=["obj", "stl"])
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve capacitance and emit a report")
    _add_shape_args(solve)
    solve.add_argument("--mesh", help="mesh file path (instead of --shape)")
    solve.add_argument("--format", choices=["obj", "stl-ascii", "stl-binary"])
    solve.add_argument("--quad-order", type=int, default=bem.DEFAULT_QUAD_ORDER)
    solve.add_argument("--solver", choices=["direct", "cg"], default="direct")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--workers", type=int, default=1)
    solve.add_argument("--out")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=cmd_solve)

    conv = sub.add_parser("converge", help="refinement study with extrapolation")
    _add_shape_args(conv)
    conv.add_argument("--levels", required=True, help="comma-separated refinements")
    conv.add_argument("--quad-order", type=int, default=bem.DEFAULT_QUAD_ORDER)
    conv.add_argument("--solver", choices=["direct", "cg"], default="direct")
    conv.add_argument("--seed", type=int, default=0)
    conv.add_argument("--workers", type=int, default=1)
    conv.add_argument("--out")
    conv.add_argument("--json", action="store_true")
    conv.set_defaults(func=cmd_converge)

    ver = sub.add_parser(
        "verify-principle", help="check the max-quotient principle on a matrix"
    )
    ver.add_argument("--input", required=True, help="symform/1 JSON file")
    ver.add_argument("--trials", type=int, default=1000)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out")
    ver.set_defaults(func=cmd_verify_principle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes + JSON
        code, payload = _error_payload(exc)
        print(json.dumps(payload, sort_keys=True))
        return code


if __name__ == "__main__":
    sys.exit(main())
