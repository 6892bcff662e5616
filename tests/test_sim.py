"""Fluid-simulator tests against closed-form equilibria.

A single controller with weight w on a link of capacity C settles at
x* = (C + sqrt(C^2 + 4 C w)) / 2: the fixed point of (1-p) w = p x with
p = (x - C) / x.  Its goodput is exactly C whenever the link is saturated.
"""
import math

import numpy as np
import pytest

from overlaylab.model import (
    Flow,
    Link,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    link_id,
)
from overlaylab.planner import PlanningProblem
from overlaylab.sim import RATE_FLOOR, SimEvent, Simulator
from overlaylab.weights import TransportConfig


def L(src, dst, cap):
    return Link(link_id(src, dst), src, dst, cap)


def one_flow_problem(cap=10.0):
    topo = Topology("one", {"A": "site", "B": "site"}, [L("A", "B", cap)])
    cls = TrafficClass("k", "A", "B", 1, PiecewiseLinearUtility.linear(0.2))
    return PlanningProblem(topo, [cls], {"k": [Flow("k:0", "k", ("A->B",))]})


def two_flow_problem(cap=8.0):
    topo = Topology("two", {"A": "site", "B": "site"}, [L("A", "B", cap)])
    classes = [
        TrafficClass("p", "A", "B", 1, PiecewiseLinearUtility.linear(0.1)),
        TrafficClass("q", "A", "B", 1, PiecewiseLinearUtility.linear(0.1)),
    ]
    flows = {
        "p": [Flow("p:0", "p", ("A->B",))],
        "q": [Flow("q:0", "q", ("A->B",))],
    }
    return PlanningProblem(topo, classes, flows)


def config(weights, sessions, gain=0.001):
    return TransportConfig(weights, sessions, gain)


def test_single_flow_fixed_point():
    cap, w = 10.0, 2.0
    expected = (cap + math.sqrt(cap * cap + 4 * cap * w)) / 2
    assert expected == pytest.approx(11.70820393, abs=1e-7)
    sim = Simulator(
        one_flow_problem(cap),
        config({"k:0": w}, {"k": 1}),
        initial_rates={"k:0": 5.0},
    )
    sim.run(duration=2000.0, sample_every=2000.0)
    assert sim.x[0] == pytest.approx(expected, rel=1e-4)
    assert sim.goodputs()[0] == pytest.approx(cap, rel=1e-6)


def test_goodput_equals_capacity_when_saturated():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}),
        initial_rates={"k:0": 15.0},
    )
    # Even before convergence, loss trims the send rate to exactly capacity.
    assert sim.goodputs()[0] == pytest.approx(10.0, rel=1e-9)


def test_shared_bottleneck_splits_by_weight():
    sim = Simulator(
        two_flow_problem(8.0),
        config({"p:0": 1.0, "q:0": 3.0}, {"p": 1, "q": 1}),
        initial_rates={"p:0": 2.0, "q:0": 6.0},
        dt=0.05,
    )
    sim.run(duration=30000.0, sample_every=30000.0)
    g = sim.goodputs()
    assert g[1] / g[0] == pytest.approx(3.0, rel=0.01)
    assert g[0] + g[1] == pytest.approx(8.0, rel=1e-6)
    # Shared loss probability at equilibrium is 2 - sqrt(3).
    assert sim.link_loss()[0] == pytest.approx(2.0 - math.sqrt(3.0), rel=0.01)


def test_weight_scaling_invariance_of_equilibrium():
    # Only weight ratios matter at equilibrium: the split is w_q/w_p and the
    # aggregate goodput is pinned at capacity.
    runs = []
    for scale in (1.0, 5.0):
        sim = Simulator(
            two_flow_problem(8.0),
            config({"p:0": 1.0 * scale, "q:0": 3.0 * scale}, {"p": 1, "q": 1}),
            initial_rates={"p:0": 2.0, "q:0": 6.0},
            dt=0.05,
        )
        sim.run(duration=30000.0, sample_every=30000.0)
        runs.append(sim.goodputs().copy())
    assert runs[0] == pytest.approx(runs[1], rel=0.01)


def test_zero_weight_flow_stays_at_floor():
    sim = Simulator(two_flow_problem(8.0), config({"p:0": 0.0, "q:0": 2.0}, {"p": 1, "q": 1}))
    sim.run(duration=200.0, sample_every=200.0)
    assert sim.x[0] == pytest.approx(RATE_FLOOR)


def test_fixed_mode_holds_send_rates():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}),
        mode="fixed",
        initial_rates={"k:0": 4.0},
    )
    sim.run(duration=100.0, sample_every=100.0)
    assert sim.x[0] == pytest.approx(4.0)


def test_unit_mode_ignores_weights():
    a = Simulator(two_flow_problem(8.0), config({"p:0": 1.0, "q:0": 9.0}, {"p": 1, "q": 1}), mode="unit")
    a.run(duration=3000.0, sample_every=3000.0)
    g = a.goodputs()
    assert g[0] == pytest.approx(g[1], rel=1e-6)


def test_sessions_multiply_link_load():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 2}),
        initial_rates={"k:0": 5.0},
    )
    sim.run(duration=2000.0, sample_every=2000.0)
    # Two sessions share the link, so each converges to the C/2 fixed point.
    assert 2 * sim.goodputs()[0] == pytest.approx(10.0, rel=1e-6)


def test_convergence_detection():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}),
        initial_rates={"k:0": 5.0},
    )
    trace = sim.run(stop_on_convergence=True, max_time=8000.0)
    assert trace.converged_at is not None
    # The rule tolerates < 0.1%/s residual drift, so allow that much slack.
    x_at_stop = sim.x[0]
    sim.run(duration=100.0, sample_every=100.0)
    assert sim.x[0] == pytest.approx(x_at_stop, rel=0.12)
    assert sim.goodputs()[0] == pytest.approx(10.0, rel=1e-6)


def test_set_capacity_event_moves_equilibrium():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}),
        initial_rates={"k:0": 11.7},
    )
    trace = sim.run(
        duration=3000.0,
        events=[SimEvent(1000.0, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0})],
        sample_every=3000.0,
    )
    assert sim.goodputs()[0] == pytest.approx(4.0, rel=1e-6)
    assert trace is not None


def test_trace_csv_shape_and_summary_rows():
    sim = Simulator(two_flow_problem(8.0), config({"p:0": 1.0, "q:0": 3.0}, {"p": 1, "q": 1}))
    trace = sim.run(duration=2.0, sample_every=1.0)
    text = trace.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "t,flow_id,send_rate_mbps,goodput_mbps,class_id,class_goodput_mbps,utility"
    # Each sample: one row per flow plus one aggregate row with empty flow id.
    body = [ln.split(",") for ln in lines[1:]]
    per_t = {}
    for row in body:
        per_t.setdefault(row[0], []).append(row[1])
    for t, fids in per_t.items():
        assert fids.count("") == 1
        assert set(fids) - {""} == {"p:0", "q:0"}


def test_run_determinism_byte_identical():
    outs = []
    for _ in range(2):
        sim = Simulator(two_flow_problem(8.0), config({"p:0": 1.0, "q:0": 3.0}, {"p": 1, "q": 1}))
        outs.append(sim.run(duration=50.0, sample_every=1.0).to_csv())
    assert outs[0] == outs[1]


def test_utility_uses_goodput_not_send_rate():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}),
        initial_rates={"k:0": 20.0},
    )
    # Send rate 20, goodput 10, slope 0.2 -> utility 2.0.
    assert sim.utility() == pytest.approx(2.0, rel=1e-9)
