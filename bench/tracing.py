"""Span tracing of overlaylab's public functions, installed from outside.

The tracer wraps each function at every place the package binds it (for
example ``overlaylab.lp.solve_lp`` and the ``solve_lp`` that
``overlaylab.planner`` imported), so spans cover the calls the package makes
to itself as well as the calls the benchmark makes.  Spans are kept in memory
as compact arrays and written out at the end; per-name counters (calls, self
time, and a few layer-specific counts) are accumulated as spans close.
"""
from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP_TASK = -1


def _lp_result(stats, args, sol):
    stats["pivots"] += sol.iterations
    stats["non_optimal"] += sol.status != "optimal"


def _inner_lp_result(stats, args, result):
    sol = result[0]
    stats["useful"] += sol is None or sol.status == "optimal"


def _plan_result(stats, args, plan):
    stats["best_found"] += plan.optimality != "proved-optimal"


def _step_call(stats, args, _):
    stats["flow_steps"] += len(args[0].x)


def _csv_result(stats, args, text):
    stats["bytes"] += len(text.encode())


# (span name, module, attribute path, error class name or None, result hook).
# A target the package no longer has is skipped, and its counters stay zero.
TARGETS = (
    ("lp.solve_lp", "overlaylab.lp", "solve_lp", "LpSolverError", _lp_result),
    ("planner.solve_plan", "overlaylab.planner", "solve_plan", None, _plan_result),
    ("planner.inner_lp", "overlaylab.planner", "inner_lp", None, _inner_lp_result),
    ("planner.mccormick_bound", "overlaylab.planner", "mccormick_bound", None, None),
    ("planner.check_kkt", "overlaylab.planner", "check_kkt", None, None),
    ("weights.compute_weights", "overlaylab.weights", "compute_weights", "WeightError", None),
    ("sim.Simulator", "overlaylab.sim", "Simulator.__init__", None, None),
    ("sim.step", "overlaylab.sim", "Simulator.step", None, _step_call),
    ("sim.run", "overlaylab.sim", "Simulator.run", None, None),
    ("sim.SimTrace.to_csv", "overlaylab.sim", "SimTrace.to_csv", None, _csv_result),
    ("scenarios.run_experiment", "overlaylab.scenarios", "run_experiment", None, None),
    ("scenarios.robustness_sweep", "overlaylab.scenarios", "robustness_sweep", None, None),
    ("scenarios.demand_sweep", "overlaylab.scenarios", "demand_sweep", None, None),
    ("scenarios.build_paper_scenario", "overlaylab.scenarios", "build_paper_scenario", None, None),
    ("model.enumerate_paths", "overlaylab.model", "enumerate_paths", None, None),
)


class Tracer:
    """Records nested spans (name, start, end, parent, task) while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.task_id = SETUP_TASK
        self._stack: list[list] = []  # [span index, time covered by children]

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.task.append(self.task_id)
        self.end.append(0.0)
        self._stack.append([idx, 0.0])
        self.start.append(time.perf_counter())

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        idx, child_time = self._stack.pop()
        self.end[idx] = end
        duration = end - self.start[idx]
        if self._stack:
            self._stack[-1][1] += duration
        stats = self.stats[name]
        stats["calls"] += 1
        stats["self_s"] += duration - child_time

    def wrap(self, name, fn, error_cls=None, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if error_cls is not None and isinstance(exc, error_cls):
                    tracer.stats[name]["errors"] += 1
                raise
            finally:
                tracer._close(name)
            if hook is not None:
                hook(tracer.stats[name], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target at every binding in the loaded overlaylab modules."""
        undo: list[tuple[object, str, object]] = []
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "overlaylab" or k.startswith("overlaylab."))
        ]
        try:
            for name, modname, path, error_name, hook in TARGETS:
                module = sys.modules.get(modname)
                if module is None:
                    continue
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    continue
                error_cls = getattr(module, error_name, None) if error_name else None
                wrapped = self.wrap(name, original, error_cls, hook)
                if owner_name:  # a method: the class attribute is its only binding
                    undo.append((owner, attr, original))
                    setattr(owner, attr, wrapped)
                    continue
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            undo.append((m, key, original))
                            setattr(m, key, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def counter(self, name: str, key: str) -> float:
        return self.stats[name][key] if name in self.stats else 0.0

    def save(self, path) -> None:
        """Write every span to an .npz file: parallel arrays plus the name table."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.array(self.name, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
            task=np.array(self.task, dtype=np.int32),
        )


# Per-layer metrics: (metric, unit, better, span, counter).  Ratios derived
# from two counters are computed in ``layer_metrics``.
COUNTERS = (
    ("lp.solve_lp.calls", "count", "lower", "lp.solve_lp", "calls"),
    ("lp.solve_lp.self_s", "s", "lower", "lp.solve_lp", "self_s"),
    ("lp.solve_lp.pivots", "count", "lower", "lp.solve_lp", "pivots"),
    ("lp.solve_lp.non_optimal", "count", "lower", "lp.solve_lp", "non_optimal"),
    ("lp.solve_lp.errors", "count", "lower", "lp.solve_lp", "errors"),
    ("planner.solve_plan.calls", "count", "lower", "planner.solve_plan", "calls"),
    ("planner.solve_plan.self_s", "s", "lower", "planner.solve_plan", "self_s"),
    ("planner.inner_lp.calls", "count", "lower", "planner.inner_lp", "calls"),
    ("planner.inner_lp.self_s", "s", "lower", "planner.inner_lp", "self_s"),
    ("planner.mccormick_bound.calls", "count", "lower", "planner.mccormick_bound", "calls"),
    ("planner.mccormick_bound.self_s", "s", "lower", "planner.mccormick_bound", "self_s"),
    ("planner.check_kkt.calls", "count", "lower", "planner.check_kkt", "calls"),
    ("planner.check_kkt.self_s", "s", "lower", "planner.check_kkt", "self_s"),
    ("planner.best_found", "count", "lower", "planner.solve_plan", "best_found"),
    ("weights.compute_weights.calls", "count", "lower", "weights.compute_weights", "calls"),
    ("weights.compute_weights.self_s", "s", "lower", "weights.compute_weights", "self_s"),
    ("weights.compute_weights.errors", "count", "lower", "weights.compute_weights", "errors"),
    ("sim.Simulator.calls", "count", "lower", "sim.Simulator", "calls"),
    ("sim.Simulator.self_s", "s", "lower", "sim.Simulator", "self_s"),
    ("sim.step.calls", "count", "lower", "sim.step", "calls"),
    ("sim.step.self_s", "s", "lower", "sim.step", "self_s"),
    ("sim.step.flow_steps", "count", "lower", "sim.step", "flow_steps"),
    ("sim.run.self_s", "s", "lower", "sim.run", "self_s"),
    ("sim.SimTrace.to_csv.self_s", "s", "lower", "sim.SimTrace.to_csv", "self_s"),
    ("sim.SimTrace.to_csv.bytes", "B", "lower", "sim.SimTrace.to_csv", "bytes"),
    ("scenarios.run_experiment.calls", "count", "lower", "scenarios.run_experiment", "calls"),
    ("scenarios.run_experiment.self_s", "s", "lower", "scenarios.run_experiment", "self_s"),
    ("scenarios.robustness_sweep.self_s", "s", "lower", "scenarios.robustness_sweep", "self_s"),
    ("scenarios.demand_sweep.self_s", "s", "lower", "scenarios.demand_sweep", "self_s"),
    ("scenarios.build_paper_scenario.self_s", "s", "lower", "scenarios.build_paper_scenario", "self_s"),
    ("model.enumerate_paths.calls", "count", "lower", "model.enumerate_paths", "calls"),
    ("model.enumerate_paths.self_s", "s", "lower", "model.enumerate_paths", "self_s"),
)
RATIOS = (
    ("lp.solve_lp.us_per_pivot", "us", "lower"),
    ("planner.inner_lp.optimal_frac", "ratio", "higher"),
    ("sim.step.us_per_call", "us", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, dict]:
    """Every per-layer metric with its unit; a ratio with a zero base reads 0."""
    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counter
    values = {metric: c(span, key) for metric, _, _, span, key in COUNTERS}
    values["lp.solve_lp.us_per_pivot"] = 1e6 * ratio(c("lp.solve_lp", "self_s"), c("lp.solve_lp", "pivots"))
    values["planner.inner_lp.optimal_frac"] = ratio(c("planner.inner_lp", "useful"), c("planner.inner_lp", "calls"))
    values["sim.step.us_per_call"] = 1e6 * ratio(c("sim.step", "self_s"), c("sim.step", "calls"))
    values["trace.overhead_frac"] = overhead_frac
    units = {m: u for m, u, *_ in COUNTERS + RATIOS}
    return {m: {"value": float(v), "unit": units[m]} for m, v in values.items()}
