"""Outside-in span tracing of abring, and the arithmetic that turns spans into
per-layer metrics.

The wrappers are installed from outside the package: each traced function is
replaced in every abring module namespace that holds it (the defining module
and each module that bound it with ``from .x import y``), and the two hot
methods are replaced on their classes.  The package itself is not edited.

Run as a script, this file executes one operation with tracing on and writes
the spans when it ends::

    python perfbench/layertrace.py SPANS.json cli verify --seed 12345
    python perfbench/layertrace.py SPANS.json thermal INPUTS.json OUT.npy

``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# abring modules whose namespaces may hold a traced function.
NAMESPACES = (
    "abring",
    "abring.cli",
    "abring.config",
    "abring.oracle",
    "abring.ring",
    "abring.smatrix",
    "abring.svgplot",
    "abring.transport",
    "abring.verify",
)

# (defining module, function) pairs that get a span per call.
FUNCTIONS = (
    ("ring", "amplitude_t0"),
    ("ring", "amplitude_t1"),
    ("ring", "diagram_components"),
    ("transport", "transmission"),
    ("transport", "sweep_phase"),
    ("transport", "visibility"),
    ("transport", "sweep_lambda"),
    ("transport", "dot_arm_rms"),
    ("transport", "thermal_transmission"),
    ("oracle", "exact_amplitude"),
    ("oracle", "energy_resolved_transmission"),
    ("oracle", "second_order_amplitude"),
    ("oracle", "truncation_residual"),
    ("smatrix", "rigidity_report"),
    ("smatrix", "seeded_generator"),
    ("smatrix", "reciprocal_from_generator"),
    ("smatrix", "factorized_s"),
    ("smatrix", "reciprocal_ring_family"),
    ("smatrix", "random_symmetric_unitary"),
    ("verify", "run_all"),
    ("verify", "calibration_suite"),
    ("verify", "second_order_suite"),
    ("verify", "truncation_suite"),
    ("verify", "diagram_sum_suite"),
    ("verify", "rigidity_suite"),
    ("config", "load_config"),
    ("svgplot", "write_line_plot"),
    ("cli", "cmd_sweep_phase"),
    ("cli", "cmd_sweep_lambda"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_rigidity"),
)

# (defining module, class, method) triples traced on the class itself.
METHODS = (
    ("smatrix", "TwoParticleSMatrix", "at"),
    ("oracle", "ResolventModel", "amplitude"),
)

FAMILY_BUILDERS = (
    "seeded_generator",
    "reciprocal_from_generator",
    "factorized_s",
    "reciprocal_ring_family",
    "random_symmetric_unitary",
)


def _write_line_plot_points(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    series = args[2] if len(args) > 2 else kwargs["series"]
    return len(x) * len(series)


def _written_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


# Work counted at the same boundaries as the spans: span name -> ((counter
# name, f(args, kwargs, result) -> int), ...).
COUNTERS = {
    "transport.transmission": (
        ("transport.transmission.points", lambda a, k, r: int(np.size(r))),
    ),
    "oracle.ResolventModel.amplitude": (
        ("oracle.solves", lambda a, k, r: int(np.size(r))),
    ),
    "svgplot.write_line_plot": (
        ("svgplot.write_line_plot.points", _write_line_plot_points),
        ("svgplot.write_line_plot.bytes", _written_bytes),
    ),
    "verify.run_all": (
        ("verify.suites_passed", lambda a, k, r: sum(s.passed for s in r)),
        ("verify.suites_run", lambda a, k, r: len(r)),
    ),
}


class Recorder:
    """Spans (name index, start ns, end ns, parent index) kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        counters = COUNTERS.get(name, ())
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            for counter, measure in counters:
                counts[counter] += int(measure(args, kwargs, result))
            return result

        return traced

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


def install(recorder: Recorder) -> list[str]:
    """Wrap every traced function and method; return the rebound locations."""
    modules = {name: importlib.import_module(name) for name in NAMESPACES}
    rebound = []
    for mod_name, func_name in FUNCTIONS:
        original = getattr(modules[f"abring.{mod_name}"], func_name)
        wrapper = recorder.wrap(original, f"{mod_name}.{func_name}")
        for ns_name, ns in modules.items():
            if ns.__dict__.get(func_name) is original:
                setattr(ns, func_name, wrapper)
                rebound.append(f"{ns_name}.{func_name}")
    for mod_name, cls_name, meth_name in METHODS:
        cls = getattr(modules[f"abring.{mod_name}"], cls_name)
        wrapper = recorder.wrap(cls.__dict__[meth_name], f"{mod_name}.{cls_name}.{meth_name}")
        setattr(cls, meth_name, wrapper)
        rebound.append(f"abring.{mod_name}.{cls_name}.{meth_name}")
    return rebound


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    ``spans`` holds (name, start, end, parent) tuples, parent -1 for a root.
    Children may overlap each other or reach past their parent; only the
    union of their intervals inside the parent is subtracted.
    """
    children = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start = max(c_start, reach)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def summarize(dump: dict) -> dict[str, float]:
    """Per-name call counts and self seconds, plus the recorded counters."""
    names = dump["names"]
    spans = [tuple(s) for s in dump["spans"]]
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for (name_id, *_), own in zip(spans, self_times(spans)):
        calls[names[name_id]] += 1
        self_ns[names[name_id]] += own
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    out.update(dump["counts"])
    out["trace.spans"] = len(spans)
    return out


def _run_op(kind: str, args: list[str]) -> int:
    if kind == "cli":
        from abring.cli import main

        return main(args)
    if kind == "thermal":
        import thermal_op

        return thermal_op.main(args)
    raise SystemExit(f"unknown operation kind {kind!r}")


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        raise SystemExit("usage: layertrace.py SPANS.json {cli|thermal} ARGS...")
    spans_path, kind, op_args = argv[0], argv[1], argv[2:]
    recorder = Recorder()
    install(recorder)
    try:
        return _run_op(kind, op_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.dump(), fh, separators=(",", ":"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
