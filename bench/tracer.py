"""Spans around the calls into each syncstab module, recorded from outside the package.

The modules import names from each other directly (the CLI calls
`simulate_reduced`, not `simulate.simulate_reduced`), so a function is wrapped
at every module attribute that binds it.  Modules are reached through
`sys.modules`, because `syncstab.design` as an attribute is the re-exported
function, not the module.  Spans stay in memory with their parent ids until
the run ends; a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

PACKAGE = "syncstab"
MODULES = ("cli", "simulate", "region", "equilibrium", "equal_area", "machine", "design")


def _count_ensemble(bound, result, counts: Counter) -> None:
    n_steps = round(bound["t_max"] / bound["dt"])
    cells = np.size(bound["delta0"])
    counts["ensemble_cell_steps"] += cells * n_steps
    los = np.asarray(result[0], dtype=float)
    lost = los[np.isfinite(los)]
    counts["ensemble_post_los_cell_steps"] += int(np.sum(n_steps - np.rint(lost / bound["dt"])))


def _count_reduced(bound, result, counts: Counter) -> None:
    counts["reduced_steps"] += len(result.times) - 1


def _count_grid(bound, result, counts: Counter) -> None:
    counts["region_cells"] += int(result.stable.size)
    counts["region_stable_cells"] += int(result.stable.sum())


def _count_boundary(bound, result, counts: Counter) -> None:
    counts["boundary_points"] += sum(len(branch) for branch in result.branches)


# Work counts taken from the arguments and results of these calls.
COUNTERS = {
    "simulate.simulate_ensemble": _count_ensemble,
    "simulate.simulate_reduced": _count_reduced,
    "region.classify_grid": _count_grid,
    "region.trace_boundary": _count_boundary,
}


class Tracer:
    """Wraps every public function of the syncstab modules while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.counter_errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = {
            name: module for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for short in MODULES:
            name = f"{PACKAGE}.{short}"
            for attr, obj in vars(modules[name]).items():
                if inspect.isfunction(obj) and obj.__module__ == name and not attr.startswith("_"):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def _wrap(self, func, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, parent, name, start, end)
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(bound.arguments, result, self.counts)
                except Exception as exc:  # a changed signature must not stop the run
                    self.counter_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Summed self time and call count per span name."""
        child_time = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s, calls = defaultdict(float), Counter()
        for span_id, _, name, start, end in self.spans:
            self_s[name] += end - start - child_time[span_id]
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for span_id, parent, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                    "start": start, "end": end}) + "\n")


def layer_metrics(tracer: Tracer, bytes_written: int, files_written: int) -> dict[str, tuple]:
    """Per-layer metrics of a traced run: name -> (value, unit)."""
    self_s, calls = tracer.self_times()
    c = tracer.counts
    m = {}
    for module in MODULES:
        m[f"{module}.self_s"] = (
            sum(t for name, t in self_s.items() if name.split(".")[0] == module), "s")

    def fn(name: str) -> None:
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}.self_s"] = (self_s[name], "s")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    fn("cli.main")
    fn("cli.parse_scenario")
    m["cli.bytes_written"] = (bytes_written, "B")
    m["cli.files_written"] = (files_written, "count")
    m["cli.emit_mb_per_s"] = (ratio(bytes_written / 1e6, m["cli.self_s"][0]), "MB/s")
    fn("simulate.simulate_ensemble")
    ensemble_steps = c["ensemble_cell_steps"]
    m["simulate.ensemble_cell_steps"] = (ensemble_steps, "count")
    m["simulate.ensemble_ns_per_cell_step"] = (
        ratio(self_s["simulate.simulate_ensemble"] * 1e9, ensemble_steps), "ns")
    m["simulate.ensemble_post_los_ratio"] = (
        ratio(c["ensemble_post_los_cell_steps"], ensemble_steps), "ratio")
    fn("simulate.simulate_reduced")
    m["simulate.reduced_steps"] = (c["reduced_steps"], "count")
    m["simulate.reduced_ns_per_step"] = (
        ratio(self_s["simulate.simulate_reduced"] * 1e9, c["reduced_steps"]), "ns")
    fn("region.classify_grid")
    m["region.cells"] = (c["region_cells"], "count")
    m["region.stable_fraction"] = (ratio(c["region_stable_cells"], c["region_cells"]), "ratio")
    fn("region.trace_boundary")
    m["region.boundary_points"] = (c["boundary_points"], "count")
    for name in ("equilibrium.find_equilibria", "equilibrium.stability_index",
                 "equal_area.classify_first_swing", "machine.reduce_two_machine",
                 "design.design"):
        fn(name)
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.counter_errors"] = (len(tracer.counter_errors), "count")
    return m
