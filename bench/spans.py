"""In-memory spans around the public calls of each varcap layer.

``Tracer`` replaces the public functions listed in ``TRACED`` by wrappers
that record a span (name, start, end, parent) per call, and puts the
originals back on exit. The program's own code is not changed: calls
between layers go through module attributes, so the CLI's calls into
``geometry``, ``bem``, ``capacitance`` and ``varprinciple`` are traced too.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

from varcap import bem, capacitance, cli, geometry, varprinciple


def _assemble_attrs(args, kwargs, result):
    return {"entries": result.n * result.n}


def _solve_attrs(args, kwargs, result):
    method = kwargs.get("method", args[1] if len(args) > 1 else "direct")
    return {"method": method, "iterations": result.solve_iterations}


# (module, function, attributes taken from the call), in the order the CLI's
# solve path calls them.
TRACED = (
    (geometry, "make_icosphere", None),
    (geometry, "make_cube", None),
    (geometry, "make_ellipsoid", None),
    (geometry, "build_panels", None),
    (bem, "assemble", _assemble_attrs),
    (bem, "spd_check", None),
    (capacitance, "solve_capacitance", _solve_attrs),
    (capacitance, "bound_ledger", None),
    (varprinciple, "classify", None),
    (varprinciple, "find_witness", None),
    (varprinciple, "verify_principle", None),
    (cli, "main", None),
)

# Per-layer metrics: name, unit, better. Function metrics are self times
# (the span minus its traced children), so a layer's functions add up to
# its self time; cli.main_s alone is inclusive.
LAYER_METRICS = (
    ("geometry.mesh_s", "s", "lower"),
    ("geometry.build_panels_s", "s", "lower"),
    ("geometry.self_s", "s", "lower"),
    ("bem.assemble_s", "s", "lower"),
    ("bem.entries_per_s", "1/s", "higher"),
    ("bem.assemble_cpu_util", "1", "higher"),
    ("bem.kernel_evals_per_s", "1/s", "higher"),
    ("bem.spd_check_s", "s", "lower"),
    ("bem.self_s", "s", "lower"),
    ("capacitance.solve_s", "s", "lower"),
    ("capacitance.cg_solve_s", "s", "lower"),
    ("capacitance.cg_iterations", "count", "lower"),
    ("capacitance.bound_ledger_s", "s", "lower"),
    ("capacitance.self_s", "s", "lower"),
    ("varprinciple.form_s", "s", "lower"),
    ("varprinciple.classify_s", "s", "lower"),
    ("varprinciple.find_witness_s", "s", "lower"),
    ("varprinciple.verify_s", "s", "lower"),
    ("varprinciple.self_s", "s", "lower"),
    ("cli.main_s", "s", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass
class Span:
    name: str
    parent: int | None
    round: int
    start: float
    cpu_start: float
    end: float = 0.0
    cpu_end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records spans while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round = 0
        self._stack = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack.__dict__.setdefault("open", [])
            span = Span(name, stack[-1] if stack else None, self.round,
                        time.perf_counter(), time.process_time())
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.cpu_end = time.process_time()
                stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for module, attr, attrs in TRACED:
            layer = module.__name__.rsplit(".", 1)[-1]
            original = getattr(module, attr)
            self._undo.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{layer}.{attr}", original, attrs))
        owner = varprinciple.SymmetricForm
        original = owner.__dict__["from_matrix"]
        self._undo.append((owner, "from_matrix", original))
        owner.from_matrix = classmethod(
            self._wrap("varprinciple.SymmetricForm.from_matrix", original.__func__, None)
        )
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def dump(self) -> list[dict]:
        t0 = self.spans[0].start if self.spans else 0.0
        return [
            {"name": s.name, "start": s.start - t0, "end": s.end - t0, "parent": s.parent,
             "round": s.round, "cpu_s": s.cpu_end - s.cpu_start, **s.attrs}
            for s in self.spans
        ]


def _self_times(spans: list[Span]) -> list[float]:
    children = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            children[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, children)]


def _round_metrics(items: list[tuple[Span, float]]) -> dict[str, float]:
    """Layer metrics of one round from (span, self time) pairs."""
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for s, own in items:
        self_by_name[s.name] += own
        self_by_layer[s.name.split(".", 1)[0]] += own
    assemble = [s for s, _ in items if s.name == "bem.assemble"]
    asm_wall = sum(s.seconds for s in assemble)
    asm_cpu = sum(s.cpu_end - s.cpu_start for s in assemble)
    asm_entries = sum(s.attrs["entries"] for s in assemble)
    solves = [(s, own) for s, own in items if s.name == "capacitance.solve_capacitance"]
    return {
        "geometry.mesh_s": sum(self_by_name[f"geometry.make_{k}"]
                               for k in ("icosphere", "cube", "ellipsoid")),
        "geometry.build_panels_s": self_by_name["geometry.build_panels"],
        "geometry.self_s": self_by_layer["geometry"],
        "bem.assemble_s": asm_wall,
        "bem.entries_per_s": asm_entries / asm_wall if asm_wall else 0.0,
        "bem.assemble_cpu_util": asm_cpu / asm_wall if asm_wall else 0.0,
        "bem.spd_check_s": self_by_name["bem.spd_check"],
        "bem.self_s": self_by_layer["bem"],
        "capacitance.solve_s": sum(own for s, own in solves if s.attrs["method"] != "cg"),
        "capacitance.cg_solve_s": sum(own for s, own in solves if s.attrs["method"] == "cg"),
        "capacitance.cg_iterations": sum(s.attrs["iterations"] for s, _ in solves
                                         if s.attrs["method"] == "cg"),
        "capacitance.bound_ledger_s": self_by_name["capacitance.bound_ledger"],
        "capacitance.self_s": self_by_layer["capacitance"],
        "varprinciple.form_s": self_by_name["varprinciple.SymmetricForm.from_matrix"],
        "varprinciple.classify_s": self_by_name["varprinciple.classify"],
        "varprinciple.find_witness_s": self_by_name["varprinciple.find_witness"],
        "varprinciple.verify_s": self_by_name["varprinciple.verify_principle"],
        "varprinciple.self_s": self_by_layer["varprinciple"],
        "cli.main_s": sum(s.seconds for s, _ in items if s.name == "cli.main"),
        "cli.overhead_s": self_by_layer["cli"],
    }


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Median over the traced rounds of each round's layer metrics.

    A layer the workload never calls reads 0.
    """
    per_round: list[list[tuple[Span, float]]] = [[] for _ in range(rounds)]
    for s, own in zip(tracer.spans, _self_times(tracer.spans)):
        per_round[s.round].append((s, own))
    table = [_round_metrics(items) for items in per_round]
    return {name: statistics.median(r[name] for r in table) for name in table[0]}
