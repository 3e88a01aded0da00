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
    MeshFormatError,
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
    (OSError, EXIT_IO),
    (VarcapError, EXIT_USAGE),
]


def _error_payload(exc: Exception) -> tuple[int, dict]:
    code = next((c for etype, c in _ERROR_CODES if isinstance(exc, etype)), EXIT_USAGE)
    detail = {"type": type(exc).__name__, "message": str(exc), "code": code}
    if isinstance(exc, NotWatertightError):
        detail.update(boundary_edges=exc.boundary_edges, nonmanifold_edges=exc.nonmanifold_edges)
    if isinstance(exc, DegenerateTriangleError):
        detail["indices"] = [int(i) for i in exc.indices]
    return code, {"schema": "caperror/1", "error": detail}


def _emit(payload: dict, out_path, as_json: bool, text: str | None = None) -> None:
    # RFC 8259 has no NaN or Infinity: a report that would need them is an error.
    serialized = json.dumps(
        payload, indent=2, sort_keys=True, allow_nan=False, default=np.ndarray.tolist
    )
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(serialized + "\n")
    if as_json or text is None:
        print(serialized)
    else:
        print(text)


# Each built-in shape: its generator, how many --size values it takes (the
# icosphere's radius, the cube's side, the ellipsoid's semiaxes), its default
# level (subdivisions, or the cube's panels per edge) and the level after n
# that halves the mesh width.
SHAPES = {
    "icosphere": (geometry.make_icosphere, 1, 3, lambda n: n + 1),
    "cube": (geometry.make_cube, 1, 4, lambda n: 2 * n),
    "ellipsoid": (geometry.make_ellipsoid, 3, 3, lambda n: n + 1),
}


def _add_shape_args(parser: argparse.ArgumentParser, subdiv: bool = True) -> None:
    parser.add_argument("--shape", choices=list(SHAPES))
    parser.add_argument(
        "--size", nargs="+", type=float, help="radius, cube side or semiaxes a b c (default 1)"
    )
    if subdiv:
        parser.add_argument(
            "--subdiv", type=int, help="subdivisions, or cube panels per edge (default 3, cube 4)"
        )


def _shape_config(args) -> dict:
    """The built-in shape's name, size and, where the command has it, level."""
    if not args.shape:
        raise VarcapError("no mesh source: pass --shape (or, for solve, --mesh)")
    _, count, default_level, _ = SHAPES[args.shape]
    size = args.size or [1.0] * count
    if len(size) != count:
        raise VarcapError(f"--shape {args.shape} takes {count} --size value(s), got {len(size)}")
    config = {"shape": args.shape, "size": size}
    if "subdiv" in args:
        config["subdiv"] = default_level if args.subdiv is None else args.subdiv
    return config


def _build_shape(config: dict, level: int) -> geometry.SurfaceMesh:
    return SHAPES[config["shape"]][0](*config["size"], level)


def _mesh_source(args) -> tuple[geometry.SurfaceMesh, dict]:
    """The mesh to solve and the config entries that name it."""
    if args.mesh:
        if args.shape or args.size or args.subdiv is not None:
            raise VarcapError("--mesh takes no --shape, --size or --subdiv")
        return geometry.load_mesh(args.mesh), {"mesh": args.mesh, "shape": None}
    config = _shape_config(args)
    return _build_shape(config, config["subdiv"]), {"mesh": None, **config}


def _solve_pipeline(mesh, workers):
    """A_h and the direct solve of one mesh, with each step's seconds."""
    t0 = time.perf_counter()
    panels = geometry.build_panels(mesh)
    t1 = time.perf_counter()
    system = bem.assemble(panels, workers=workers)
    t2 = time.perf_counter()
    # The direct solve's one Cholesky factorization also proves A_h > 0.
    solution = capacitance.solve_capacitance(system)
    timings = {
        "build_panels_s": t1 - t0,
        "assemble_s": t2 - t1,
        "solve_s": time.perf_counter() - t2,
        **{f"assemble_{name}_s": s.seconds for name, s in system.assembly.items()},
    }
    return system, solution, timings


def _solve_report(config, mesh, system, solution, ledger, timings) -> dict:
    lo, hi = mesh.bbox
    return {
        "schema": "capreport/8",
        "config": {"command": "solve", **config},
        "mesh": {
            "panels": system.n,
            "vertices": mesh.n_vertices,
            "total_area": system.total_area,
            "bbox": [lo.tolist(), hi.tolist()],
        },
        "capacitance": {
            "C": ledger.capacitance,
            "C_over_4pi": ledger.capacitance / bem.FOUR_PI,
            "c_zeroth": ledger.c_zeroth,
            "J": ledger.j_integral,
            "subspace_bounds": {name: val for name, val in ledger.subspace_bounds},
            "gauss_at_sigma": ledger.gauss_at_sigma,
        },
        "diagnostics": {
            "lambda_min_lower_bound": solution.lambda_min_lower_bound,
            "asymmetry_norm": system.asymmetry_norm,
            "residual_norm": solution.residual_norm,
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
        ("lambda_min >=", f"{diag['lambda_min_lower_bound']:.4g}"),
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
    config = _shape_config(args)
    mesh = _build_shape(config, config["subdiv"])
    fmt = "obj" if args.out.lower().endswith(".obj") else "stl"
    (geometry.save_obj if fmt == "obj" else geometry.save_stl)(mesh, args.out)
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
    mesh, config = _mesh_source(args)
    system, solution, timings = _solve_pipeline(mesh, args.workers)
    start = time.perf_counter()
    ledger = capacitance.bound_ledger(system, solution)
    timings["bounds_s"] = time.perf_counter() - start
    report = _solve_report(config, mesh, system, solution, ledger, timings)
    _emit(report, args.out, args.json, _solve_text(report))
    return EXIT_OK


def richardson_extrapolate(values: list[float]) -> dict:
    """Extrapolated limit and empirical order from 3+ refinement values.

    Assumes a refinement ratio of 2 between consecutive levels. The last
    three values must converge: their differences must shrink, so that
    (y1 - y2) / (y2 - y3) exceeds 1 and the order is positive.
    """
    if len(values) < 3:
        raise VarcapError("Richardson extrapolation needs at least 3 levels")
    y1, y2, y3 = values[-3:]
    ratio = (y1 - y2) / (y2 - y3) if y2 != y3 else math.inf
    if not 1.0 < ratio < math.inf:
        raise VarcapError(
            f"cannot extrapolate: the last three values' ratio (y1 - y2) / (y2 - y3) "
            f"= {ratio:.6g} must be finite and exceed 1"
        )
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
    config = _shape_config(args)
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError as exc:
        raise VarcapError(f"bad --levels {args.levels!r}") from exc
    if len(levels) < 2:
        raise VarcapError("converge needs at least 2 refinement levels")
    refine = SHAPES[args.shape][3]
    if len(levels) >= 3 and levels[1:] != [refine(n) for n in levels[:-1]]:
        raise VarcapError(
            f"--levels {args.levels!r} must halve the mesh width per level, as "
            f"{levels[0]},{refine(levels[0])} does: Richardson extrapolation "
            "assumes a refinement ratio of 2"
        )
    # convreport/4 carries C and C0 per level, so no SPD check or bound ledger.
    rows = []
    for level in levels:
        system, solution, _ = _solve_pipeline(_build_shape(config, level), args.workers)
        c = solution.capacitance
        rows.append(
            {
                "level": level,
                "panels": system.n,
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
        "schema": "convreport/4",
        "config": {"command": "converge", **config, "levels": levels},
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


def cmd_verify_principle(args) -> int:
    # orjson reads strict RFC 8259 UTF-8 (no BOM, NaN or Infinity; a number
    # that overflows a double is an error) and converts decimals to the same
    # doubles as json, about 4x faster. Reports stay with json.dumps, whose
    # float format (1e-05, not 0.00001) their bytes keep. It is imported
    # here, so the other commands do not load it.
    import orjson

    with open(args.input, "rb") as fh:
        try:
            payload = orjson.loads(fh.read())
        except orjson.JSONDecodeError as exc:
            raise MeshFormatError(f"{args.input}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise VarcapError(f"{args.input}: expected a JSON object, got {type(payload).__name__}")
    if payload.get("schema") != "symform/1":
        raise VarcapError(
            f"{args.input}: expected schema 'symform/1', got {payload.get('schema')!r}"
        )
    if "matrix" not in payload or "u" not in payload:
        raise VarcapError(f"{args.input}: missing 'matrix' or 'u'")
    form = varprinciple.SymmetricForm.from_matrix(payload["matrix"])
    report = varprinciple.verify_principle(form, payload["u"])
    out = {
        "schema": "principlereport/1",
        "classification": report.classification,
        "quadratic_form_at_u": report.quadratic_form_at_u,
        "best_quotient": report.best_quotient,
        "attained_at_u": report.attained_at_u,
        "principle_holds_on_probes": report.holds_on_probes,
        "consistent": report.consistent,
        "witness": report.witness and vars(report.witness),
    }
    _emit(out, args.out, True)
    return EXIT_OK if report.consistent else EXIT_PRINCIPLE


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varcap",
        description="Boundary-element capacitance solver and variational-"
        "principle toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a built-in shape to OBJ/STL")
    _add_shape_args(gen)
    gen.add_argument("--out", required=True, help="OBJ if it ends in .obj, else binary STL")
    gen.set_defaults(func=cmd_generate)

    solve = sub.add_parser("solve", help="solve capacitance and emit a report")
    _add_shape_args(solve)
    solve.add_argument("--mesh", help="OBJ or STL file (instead of --shape)")
    solve.add_argument("--workers", type=_positive_int, default=1)
    solve.add_argument("--out")
    solve.add_argument("--json", action="store_true")
    solve.set_defaults(func=cmd_solve)

    conv = sub.add_parser("converge", help="refinement study with extrapolation")
    _add_shape_args(conv, subdiv=False)
    conv.add_argument("--levels", required=True, help="comma-separated refinements")
    conv.add_argument("--workers", type=_positive_int, default=1)
    conv.add_argument("--out")
    conv.add_argument("--json", action="store_true")
    conv.set_defaults(func=cmd_converge)

    ver = sub.add_parser(
        "verify-principle", help="check the max-quotient principle on a matrix"
    )
    ver.add_argument("--input", required=True, help="symform/1 JSON file")
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
