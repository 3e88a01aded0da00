"""What the benchmark under bench/ uses of the program still exists.

The benchmark wraps public functions by name to time each layer, and runs
the command line with fixed options. A change that removes one of them
fails here, not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

from varcap import bem, capacitance, cli, geometry

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # The spans read attributes of what the traced calls return: assembly's
    # panel count, and each solve's method and iteration count.
    spans = load_bench("spans")
    originals = {(module, attr): getattr(module, attr) for module, attr, _ in spans.TRACED}
    with spans.Tracer() as tracer:
        for (module, attr), original in originals.items():
            assert getattr(module, attr) is not original, attr
        system = bem.assemble(geometry.build_panels(geometry.make_icosphere(1.0, 1)))
        # No workload calls spd_check, so its span is checked here.
        assert bem.spd_check(system).cholesky_succeeded
        capacitance.solve_capacitance(system)
        capacitance.solve_capacitance(system, method="cg")
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, attr
    attrs = {s.name: [] for s in tracer.spans}
    for s in tracer.spans:
        attrs[s.name].append(s.attrs)
    assert attrs["bem.assemble"] == [{"entries": 80 * 80}]
    assert attrs["bem.spd_check"] == [{}]
    direct, cg = attrs["capacitance.solve_capacitance"]
    assert direct == {"method": "direct", "iterations": 0}
    assert cg["method"] == "cg" and cg["iterations"] > 0


def test_workload_command_lines_parse(monkeypatch, tmp_path):
    workloads = load_bench("workloads")
    calls = []
    monkeypatch.setattr(workloads, "run_cli", lambda argv: calls.append(argv) or "{}")
    cube = workloads.WORKLOADS["cube-converge"]
    principle = workloads.WORKLOADS["principle"]
    for step in cube.steps(cube.prepare(0, True, tmp_path)):
        step()
    for step in principle.steps({"cases": [{"path": str(tmp_path / "form.json")}]}):
        step()
    assert [argv[0] for argv in calls] == ["converge", "verify-principle"]
    assert calls[0][-3:] == ["--workers", "2", "--json"]
    for argv in calls:
        args = cli.build_parser().parse_args(argv)
        assert args.func.__name__ == f"cmd_{argv[0].replace('-', '_')}"


def test_kernel_probe_runs():
    # The traced run reads bem.kernel_evals_per_s from this probe, which
    # times bem.triangle_potentials and checks its values.
    rate, problems = load_bench("kernel").measure()
    assert rate > 0
    assert problems == []


def test_smoke_round_passes_checks(tmp_path):
    # One smoke round of each workload answers every operation and passes the
    # benchmark's own checks (the principle report's witness and consistency
    # among them), so a change that breaks one fails here too.
    workloads = load_bench("workloads")
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.prepare(0, True, tmp_path)
        answers = workload.run_round(inputs)
        problems, _ = workload.check(inputs, answers)
        assert None not in answers, name
        assert problems == [], (name, problems)
