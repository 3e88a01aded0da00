#!/usr/bin/env python3
"""Benchmark of varcap: time to checked capacitances and principle reports.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --smoke      # tiny inputs, one round
    python3 bench/run.py --self-test                  # checks reject wrong answers

NAME is one of sphere-suite, ellipsoid-batch, cube-converge, principle. The
run repeats whole rounds of the workload's operations for S seconds and
prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (see bench/README.md); with ``--trace 1`` half the time
runs untraced and half traced, and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 3

# Speed correction of round times. The machine's speed drifts: on the 2-core
# x86 VM of README.md's figures a 320-panel assembly took 1.1 to 1.9 s within
# four minutes, with CPU/wall ~ 1. So the benchmark times a fixed reference,
# which runs no varcap code, between the steps of each round, and scales each
# stretch of program time by REF_NOMINAL_S / (mean of the reference times
# around it). The reference is an interpreter loop plus a broadcast distance
# kernel in numpy; over 35 alternations its time correlated 0.89 with the
# assembly's and 0.64 with a cube converge call's.
REF_NOMINAL_S = 0.1
REF_LOOP = 600_000
REF_PASSES = 5
REF_GAP_S = 1.0     # least program time between two reference samples
_REF_POINTS = []


def _cap_threads() -> None:
    """Give BLAS and OpenMP one thread, unless set to at most the CPUs we may use.

    With two OpenBLAS threads on a 2-core VM, idle workers spun after each
    call, doubled the process's CPU time and slowed the main thread's next
    work by up to 2x. With the spinning turned off, principle's rounds still
    followed the load on the host's other core: ten seeds spread 0.16.
    varcap's own threads (``--workers``) are not affected.
    """
    cpus = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cpus):
            os.environ[var] = "1"


def _warm_up() -> None:
    from varcap import bem, capacitance, geometry

    system = bem.assemble(geometry.build_panels(geometry.make_icosphere(1.0, 1)))
    capacitance.solve_capacitance(system)


def _setup_seconds(probes: int) -> float:
    """Median, over fresh processes, of start until varcap is warmed up.

    Each probe's time is scaled to the reference speed like a round's.
    """
    samples = []
    ref = _reference_seconds()
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.communicate()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        before, ref = ref, _reference_seconds()
        samples.append(elapsed * 2.0 * REF_NOMINAL_S / (before + ref))
    return statistics.median(samples)


def _reference_seconds() -> float:
    """Time of a fixed interpreter and numpy computation: the machine's current speed."""
    import numpy as np

    if not _REF_POINTS:
        rng = np.random.default_rng(0)
        _REF_POINTS.extend((rng.standard_normal((3000, 1, 3)), rng.standard_normal((1, 100, 3))))
    sources, targets = _REF_POINTS
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    for _ in range(REF_PASSES):
        d = sources - targets
        (1.0 / np.sqrt(np.einsum("ijk,ijk->ij", d, d))).sum()
    return time.perf_counter() - t0


class Rounds:
    """Outcome of repeating a workload's round for a stretch of time."""

    def __init__(self):
        self.walls: list[float] = []    # round times as measured
        self.scaled: list[float] = []   # round times at the reference speed
        self.refs: list[float] = []     # every reference time of the run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.c_rel_error = 0.0

    def _reference(self) -> float:
        self.refs.append(_reference_seconds())
        return self.refs[-1]

    def run(self, workload, inputs, seconds: float, tracer=None) -> "Rounds":
        start = time.perf_counter()
        ref = self._reference()
        while not self.walls or time.perf_counter() - start < seconds:
            gc.collect()
            if tracer is not None:
                tracer.round = len(self.walls)
            answers, wall, scaled, segment = [], 0.0, 0.0, 0.0
            steps = workload.steps(inputs)
            for k, step in enumerate(steps):
                t0 = time.perf_counter()
                answers += step()
                elapsed = time.perf_counter() - t0
                wall += elapsed
                segment += elapsed
                if segment >= REF_GAP_S or k == len(steps) - 1:
                    before, ref = ref, self._reference()
                    scaled += segment * 2.0 * REF_NOMINAL_S / (before + ref)
                    segment = 0.0
            self.walls.append(wall)
            self.scaled.append(scaled)
            self.attempted += len(answers)
            self.failed += sum(a is None for a in answers)
            problems, c_rel_error = workload.check(inputs, answers)
            self.problems += [p for p in problems if p not in self.problems]
            self.c_rel_error = max(self.c_rel_error, c_rel_error)
        return self

    @property
    def wall_s(self) -> float:
        """Median round time at the reference speed."""
        return statistics.median(self.scaled)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _measure(args, workload, inputs) -> dict:
    if not args.trace:
        rounds = Rounds().run(workload, inputs, args.seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"{len(rounds.walls)} rounds, {len(rounds.refs)} reference samples, median round "
              f"{statistics.median(rounds.walls):.4f} s as measured, {rounds.wall_s:.4f} s at "
              f"the reference speed", file=sys.stderr)
        metrics = {
            "setup_s": _metric(args.setup_s, "s"),
            "wall_s": _metric(rounds.wall_s, "s"),
            "peak_rss_mb": _metric(peak_kib / 1024.0, "MiB"),
            "c_rel_error": _metric(rounds.c_rel_error, "1"),
        }
        return _result([rounds], metrics)

    import kernel
    import spans

    plain = Rounds().run(workload, inputs, args.seconds / 2)
    with spans.Tracer() as tracer:
        traced = Rounds().run(workload, inputs, args.seconds / 2, tracer)
    layers = spans.layer_metrics(tracer, len(traced.walls))
    layers["bem.kernel_evals_per_s"], kernel_problems = kernel.measure()
    layers["trace.overhead_s"] = traced.wall_s - plain.wall_s
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": len(traced.walls),
                   "spans": tracer.dump()}, fh)
    print(f"spans written to {trace_path}", file=sys.stderr)
    plain.problems += kernel_problems
    units = {name: unit for name, unit, _ in spans.LAYER_METRICS}
    metrics = {name: _metric(layers[name], units[name]) for name, _, _ in spans.LAYER_METRICS}
    return _result([plain, traced], metrics)


def _result(all_rounds, metrics) -> dict:
    problems = [p for r in all_rounds for p in r.problems]
    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "metrics": metrics,
    }


def _self_test(workloads) -> int:
    """Each workload's check passes the program's answers and rejects wrong ones."""
    ok = True
    for wl in workloads.values():
        workdir = OUT / f"selftest-{wl.name}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            inputs = wl.prepare(0, True, workdir)
            answers = wl.run_round(inputs)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        problems, _ = wl.check(inputs, answers)
        if problems or any(a is None for a in answers):
            print(f"FAIL {wl.name}: the program's own answers are rejected: {problems}")
            ok = False
            continue
        print(f"ok   {wl.name}: the program's answers pass")
        for label, mutate in wl.mutations:
            problems, _ = wl.check(inputs, mutate(answers))
            verdict = "ok  " if problems else "FAIL"
            ok = ok and bool(problems)
            print(f"{verdict} {wl.name}: {label} rejected: {problems[0] if problems else 'no'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one round")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _cap_threads()
    if not (SRC / "varcap" / "__init__.py").is_file():
        print(f"varcap sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        _warm_up()
        print("ready", flush=True)
        return 0

    import varcap
    from workloads import WORKLOADS

    if Path(varcap.__file__).resolve().parent != SRC / "varcap":
        print(f"imported varcap from {varcap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.self_test:
        return _self_test(WORKLOADS)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.smoke:
        args.seconds = 0.0

    args.setup_s = _setup_seconds(1 if args.smoke else SETUP_PROBES)
    _warm_up()
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workload.prepare(args.seed, args.smoke, workdir)
        if workload.warm_up is not None:
            workload.warm_up(inputs)
        result = _measure(args, workload, inputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
