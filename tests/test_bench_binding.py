"""The benchmark under bench/ still binds to the package.

``bench/tracing.py`` wraps package functions by module and attribute name and
skips a name the package no longer has, so a renamed function would leave
its counters reading 0 without an error.  ``bench/workloads.py`` calls the
public API.  Both are checked against this checkout without running the
benchmark: every tracing target resolves, and for each workload in
BENCHMARK.json the seed-1 task list builds and the first task of each
family runs and passes the workload's own check.  Every LP the planner
solves, cold or warm-started, must pass through the traced ``solve_lp``, so
that ``lp.solve_lp.pivots`` counts all of their pivots.
"""
import importlib
import json
import sys
from pathlib import Path

import pytest

import overlaylab

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        yield importlib.import_module("tracing"), importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))


def test_every_tracing_target_resolves(bench):
    tracing, _ = bench
    for span, modname, path, error_name, _ in tracing.TARGETS:
        module = importlib.import_module(modname)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        assert callable(getattr(owner, attr, None)), f"{span}: {modname}.{path} is gone"
        if error_name:
            error_cls = getattr(module, error_name, None)
            assert isinstance(error_cls, type) and issubclass(error_cls, Exception), span


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_task_of_each_family_runs_and_checks(bench, workload):
    _, workloads = bench
    tasks = workloads.WORKLOADS[workload].setup(overlaylab, 1)
    firsts = {}
    for task in tasks:
        firsts.setdefault(task.family, task)
    assert firsts
    for task in firsts.values():
        outcome = task.check(task.run())
        assert outcome.problems == [], (task.label, outcome.problems)
        assert outcome.digests, task.label


def test_tracer_sees_every_lp_the_planner_solves(bench, monkeypatch):
    tracing, workloads = bench
    from overlaylab import planner

    active = []
    inner_lp = planner.inner_lp

    def counted(*args):
        result = inner_lp(*args)
        active.append(result[0] is not None)  # None: no flow had sessions, no LP
        return result

    monkeypatch.setattr(planner, "inner_lp", counted)
    tasks = workloads.WORKLOADS["plan-threshold"].setup(overlaylab, 1)
    task = next(t for t in tasks if t.family == "b")
    tracer = tracing.Tracer()
    with tracer.installed():
        outcome = task.check(task.run())
    assert outcome.problems == [], (task.label, outcome.problems)
    bounds = tracer.counter("planner.mccormick_bound", "calls")
    assert bounds > 1  # the root's bound LP and at least one warm-started child's
    assert tracer.counter("lp.solve_lp", "calls") == bounds + sum(active)
    assert tracer.counter("lp.solve_lp", "pivots") > 0
