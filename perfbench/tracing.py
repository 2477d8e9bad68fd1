"""Span tracing of topowalk's layers, installed from outside the program.

While installed, every public function defined in a layer module is replaced,
in every topowalk module namespace that holds it (so names that one module
imports from another are traced too), by a wrapper that records a span:
name, start, end, parent span and run label. Spans stay in memory; per-layer
metrics are computed from them and they are written out at the end.

Each span keeps two intervals: [start, end] around the wrapped call, and
[enter, exit] around the whole wrapper. A span's self time is its call time
minus its children's wrapper time, so the wrappers' own cost is counted
separately as bookkeeping, and for every pass

    sum(self time) + bookkeeping + untraced remainder == traced wall time.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("experiments", "walk", "pair", "states", "topology")

# Span fields, by position.
NAME, ENTER, START, END, EXIT, PARENT, RUN = range(7)


def _first_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()), None)


def _nbytes(*arrays) -> int:
    return sum(int(getattr(a, "nbytes", 0)) for a in arrays)


def _amps_bytes(args, kwargs, result) -> int:
    return _nbytes(getattr(_first_arg(args, kwargs), "amps", None))


def _field_bytes(args, kwargs, result) -> int:
    return _nbytes(getattr(result, "theta1", None), getattr(result, "theta2", None))


def _file_bytes(args, kwargs, result) -> int:
    return sum(Path(p).stat().st_size for p in result or () if Path(p).name != "manifest.json")


# Computed counts per traced function: counter name -> f(args, kwargs, result).
COUNTERS = {
    "walk.randomize_field": ("field_bytes", _field_bytes),
    "pair.pair_split_step": ("state_bytes", _amps_bytes),
    "experiments.write_artifacts": ("bytes", _file_bytes),
}

# Per-layer metrics reported by a traced run: name -> unit.
# Array bytes are computed from array sizes, hence the "B-computed" unit;
# write_artifacts bytes are the sizes of the data files written.
PER_LAYER = {
    "walk.randomize_field.calls": "count",
    "walk.randomize_field.self_s": "s",
    "walk.randomize_field.field_bytes": "B-computed",
    "walk.evolve.self_s": "s",
    "pair.pair_split_step.calls": "count",
    "pair.pair_split_step.self_s": "s",
    "pair.pair_split_step.state_bytes": "B-computed",
    "pair.joint_distribution_direct.self_s": "s",
    "states.reduce_to_coin.calls": "count",
    "states.reduce_to_coin.self_s": "s",
    "states.von_neumann_entropy.calls": "count",
    "states.von_neumann_entropy.self_s": "s",
    "topology.winding_number.calls": "count",
    "topology.winding_number.self_s": "s",
    "topology.phase_diagram.self_s": "s",
    "experiments.run.self_s": "s",
    "experiments.write_artifacts.self_s": "s",
    "experiments.write_artifacts.bytes": "B",
    "experiments.config_from_dict.self_s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.bookkeeping_s": "s",
    "trace.overhead_s": "s",
}
EXACT_UNITS = ("count", "B-computed", "B")


def public_functions() -> dict:
    """{function: 'layer.name'} for every public function a layer module defines.
    A layer module that no longer exists contributes nothing."""
    found = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"topowalk.{layer}")
        except ModuleNotFoundError:
            continue
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                found[obj] = f"{layer}.{attr}"
    return found


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = defaultdict(int)  # (function, counter) -> computed count
        self.run_label = ""
        self._stack: list[int] = []
        functions = public_functions()
        self.traced = set(functions.values())
        self._wrappers = {fn: self._wrap(fn, label) for fn, label in functions.items()}

    def _wrap(self, fn, label: str):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter, measure = COUNTERS.get(label, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = perf_counter()
            span = [label, enter, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.run_label]
            stack.append(len(spans))
            spans.append(span)
            try:
                span[START] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    span[END] = perf_counter()
                if measure is not None:
                    counts[(label, counter)] += measure(args, kwargs, result)
                return result
            finally:
                stack.pop()
                span[EXIT] = perf_counter()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into every loaded topowalk module; restore on exit."""
        patched = []
        modules = [m for n, m in list(sys.modules.items()) if n == "topowalk" or n.startswith("topowalk.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in self._wrappers:
                    setattr(module, attr, self._wrappers[value])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def pass_metrics(self, first_span: int, wall_s: float) -> dict:
        """Per-layer metrics of one traced pass: the spans from first_span on."""
        spans = self.spans[first_span:]
        children_s = defaultdict(float)
        for span in spans:
            if span[PARENT] >= 0:
                children_s[span[PARENT]] += span[EXIT] - span[ENTER]
        self_s = defaultdict(float)
        calls = defaultdict(int)
        bookkeeping = top = 0.0
        for index, span in enumerate(spans, start=first_span):
            self_s[span[NAME]] += span[END] - span[START] - children_s[index]
            calls[span[NAME]] += 1
            bookkeeping += (span[EXIT] - span[ENTER]) - (span[END] - span[START])
            if span[PARENT] < 0:
                top += span[EXIT] - span[ENTER]
        values = {}
        for name in PER_LAYER:
            function, _, stat = name.rpartition(".")
            if name.startswith(("layer.", "trace.")):
                continue
            if stat == "calls":
                values[name] = calls[function]
            elif stat == "self_s":
                values[name] = self_s[function]
            else:
                values[name] = self.counts.get((function, stat), 0)
        self.counts.clear()
        for layer in LAYERS:
            values[f"layer.{layer}.self_s"] = sum(
                t for f, t in self_s.items() if f.startswith(layer + ".")
            )
        values["trace.wall_s"] = wall_s
        values["trace.untraced_s"] = wall_s - top
        values["trace.bookkeeping_s"] = bookkeeping
        return values

    def absent(self) -> list[str]:
        """Functions named by PER_LAYER that the program no longer defines."""
        named = {n.rpartition(".")[0] for n in PER_LAYER if not n.startswith(("layer.", "trace."))}
        return sorted(named - self.traced)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start", "end", "parent", "run"))
            for span in self.spans:
                out.writerow((span[NAME], f"{span[START]:.9f}", f"{span[END]:.9f}", span[PARENT], span[RUN]))
