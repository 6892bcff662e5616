"""Fluid-simulator tests against closed-form equilibria.

A single controller with weight w on a link of capacity C settles at
x* = (C + sqrt(C^2 + 4 C w)) / 2: the fixed point of (1-p) w = p x with
p = (x - C) / x.  Its goodput is exactly C whenever the link is saturated.
"""
import dataclasses
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
from overlaylab.planner import PlanningProblem, solve_plan
from overlaylab.scenarios import build_paper_scenario, triangle_topology
from overlaylab.sim import RATE_FLOOR, Event, Simulator, _steps
from overlaylab.weights import TransportConfig, compute_weights


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


# This test, test_unit_mode_ignores_weights, test_sessions_multiply_link_load
# and test_set_capacity_event_moves_equilibrium take gain 0.01 over a tenth of
# the gain-0.001 duration and event time: the same trajectory in rescaled time
# in a tenth of the steps.  Their final rates agree with the gain-0.001 runs to
# within 4e-5 relative, and every asserted goodput to within 1.2e-16.


def test_single_flow_fixed_point():
    cap, w = 10.0, 2.0
    expected = (cap + math.sqrt(cap * cap + 4 * cap * w)) / 2
    assert expected == pytest.approx(11.70820393, abs=1e-7)
    sim = Simulator(
        one_flow_problem(cap),
        config({"k:0": w}, {"k": 1}, gain=0.01),
        initial_rates={"k:0": 5.0},
    )
    sim.run(duration=200.0, sample_every=200.0)
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


# The two tests below take gain 0.01 over 3000 s: for these dynamics that is
# the gain-0.001, 30 000 s trajectory in rescaled time (goodputs agree to
# within 3e-7 relative), in a tenth of the steps.


def test_shared_bottleneck_splits_by_weight():
    sim = Simulator(
        two_flow_problem(8.0),
        config({"p:0": 1.0, "q:0": 3.0}, {"p": 1, "q": 1}, gain=0.01),
        initial_rates={"p:0": 2.0, "q:0": 6.0},
        dt=0.05,
    )
    sim.run(duration=3000.0, sample_every=3000.0)
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
            config({"p:0": 1.0 * scale, "q:0": 3.0 * scale}, {"p": 1, "q": 1}, gain=0.01),
            initial_rates={"p:0": 2.0, "q:0": 6.0},
            dt=0.05,
        )
        sim.run(duration=3000.0, sample_every=3000.0)
        runs.append(sim.goodputs().copy())
    assert runs[0] == pytest.approx(runs[1], rel=0.01)


def test_zero_weight_flow_stays_at_floor():
    sim = Simulator(two_flow_problem(8.0), config({"p:0": 0.0, "q:0": 2.0}, {"p": 1, "q": 1}))
    sim.run(duration=200.0, sample_every=200.0)
    assert sim.x[0] == pytest.approx(RATE_FLOOR)


def test_fixed_mode_holds_send_rates():
    # The fixed-rate sender is gain 0.
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}, gain=0.0),
        initial_rates={"k:0": 4.0},
    )
    sim.run(duration=100.0, sample_every=100.0)
    assert sim.x[0] == pytest.approx(4.0)


def test_unit_mode_ignores_weights():
    # The unit-weight controller is the config with every weight 1.
    cfg = config({"p:0": 1.0, "q:0": 9.0}, {"p": 1, "q": 1}, gain=0.01)
    a = Simulator(two_flow_problem(8.0), dataclasses.replace(cfg, weights=dict.fromkeys(cfg.weights, 1.0)))
    a.run(duration=300.0, sample_every=300.0)
    g = a.goodputs()
    assert g[0] == pytest.approx(g[1], rel=1e-6)


def test_sessions_multiply_link_load():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 2}, gain=0.01),
        initial_rates={"k:0": 5.0},
    )
    sim.run(duration=200.0, sample_every=200.0)
    # Two sessions share the link, so each converges to the C/2 fixed point.
    assert 2 * sim.goodputs()[0] == pytest.approx(10.0, rel=1e-6)


def test_set_capacity_event_moves_equilibrium():
    sim = Simulator(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}, gain=0.01),
        initial_rates={"k:0": 11.7},
    )
    trace = sim.run(
        duration=300.0,
        events=[Event(100.0, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0})],
        sample_every=300.0,
    )
    assert sim.goodputs()[0] == pytest.approx(4.0, rel=1e-6)
    assert trace is not None


def test_set_sessions_rejects_unknown_class():
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    with pytest.raises(ValueError, match="'typo'"):
        sim.set_sessions("typo", 3)
    with pytest.raises(ValueError, match="'typo'"):
        sim.run(duration=1.0, events=[Event(0.5, "set-sessions", {"class": "typo", "n": 3})])
    sim.set_sessions("k", 3)
    assert sim.n[0] == 3.0


@pytest.mark.parametrize("n", [float("nan"), 2.0, True, -1])
def test_set_sessions_requires_an_integer_count(n):
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    with pytest.raises(ValueError, match="integer"):
        sim.set_sessions("k", n)
    assert sim.n[0] == 1.0


@pytest.mark.parametrize("dt", [-0.1, 0.0, float("nan"), float("inf")])
def test_dt_must_be_finite_and_positive(dt):
    # run() would loop forever at dt < 0 and fail at 0 or NaN.
    with pytest.raises(ValueError, match="dt must be"):
        Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}), dt=dt)


# 0.255 s is 25.5 steps at dt 0.01, and 0.005 s half a step: a run raises rather than round them.
@pytest.mark.parametrize("every", [-1.0, 0.0, float("nan"), float("inf"), 0.255, 0.005])
def test_sample_every_must_be_finite_and_positive(every):
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    with pytest.raises(ValueError, match="sample_every must be"):
        sim.run(duration=1.0, sample_every=every)
    assert sim.t == 0.0


@pytest.mark.parametrize(
    "kwargs, match",
    [
        # NaN and negative durations used to return one sample at t = 0.
        ({"duration": float("nan")}, "duration must be"),
        ({"duration": -5.0}, "duration must be"),
        # Without a convergence stop this would never end.
        ({"duration": float("inf")}, "duration must be"),
    ],
)
def test_run_length_must_be_finite(kwargs, match):
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    with pytest.raises(ValueError, match=match):
        sim.run(**kwargs)
    assert sim.t == 0.0


def fast_one_flow(cls=Simulator, **kwargs):
    # Gain 0.1 reaches an exact fixed point at t = 52 s.
    return cls(
        one_flow_problem(10.0),
        config({"k:0": 2.0}, {"k": 1}, gain=0.1),
        initial_rates={"k:0": 5.0},
        **kwargs,
    )


def test_fixed_at_marks_the_last_freeze():
    trace = fast_one_flow().run(duration=100.0, sample_every=10.0)
    assert 50.0 < trace.fixed_at < 100.0
    frozen = [x for t, x in zip(trace.times, trace.send) if t >= trace.fixed_at]
    assert len(frozen) >= 4 and all(np.array_equal(x, frozen[0]) for x in frozen)
    # Not part of the CSV.
    assert dataclasses.replace(trace, fixed_at=None).to_csv() == trace.to_csv()
    # An event on the frozen run clears it; the run refreezes later, if at all.
    cut = [Event(90.0, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0})]
    assert fast_one_flow().run(duration=100.0, events=cut, sample_every=10.0).fixed_at is None
    assert fast_one_flow().run(duration=300.0, events=cut, sample_every=10.0).fixed_at > 100.0


def test_fixed_at_is_none_on_a_robustness_weighted_run():
    # At gain 0.001 the robustness sweep's weighted run is still converging.
    scenario = build_paper_scenario("robustness-sweep")
    problem = scenario.problem()
    plan = solve_plan(problem)
    cfg = compute_weights(problem, plan, gain=scenario.gamma)
    truth = scenario.problem(scenario.topology.with_capacities({"A->B": 7.0}))
    sim = Simulator(truth, cfg, dt=scenario.dt, initial_rates=plan.rates)
    trace = sim.run(duration=scenario.duration, sample_every=scenario.duration)
    assert trace.fixed_at is None


@pytest.mark.parametrize("dt, span, steps", [
    (0.01, 200.0, 20_000), (0.05, 240.0, 4800), (0.1, 4000.0, 40_000), (0.03, 10.0, 334), (0.01, 0.0, 0),
])
def test_a_span_takes_the_least_whole_steps_that_cover_it(dt, span, steps):
    # 200 / 0.01 reads 20000.000000000004 and 4000 / 0.1 reads 40000.00000000001 in floats: each
    # counts as the integer it rounds to, and 10 / 0.03 = 333.33... takes 334 steps.
    assert _steps(span, dt) == steps


@pytest.mark.parametrize("every", [1.05, 5.0])
def test_a_cadence_at_or_past_the_duration_samples_only_the_start_and_the_horizon(every):
    # 1.05 s takes 11 steps at dt 0.1; a cadence of 1.05 s is 10.5 steps, which is no error here.
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}), dt=0.1)
    assert sim.run(1.05, sample_every=every).times == [0.0, 1.1]


def test_a_200_s_run_at_dt_0_01_takes_20_000_steps():
    # The clock reads t0 + i * dt: no sum of 20 000 dt falls short of the horizon by a step.
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    trace = sim.run(200.0, sample_every=50.0)
    assert sim.t == 20_000 * 0.01 == 200.0
    assert trace.times == [0.0, 50.0, 100.0, 150.0, 200.0]


def test_an_off_grid_event_applies_at_the_next_step_and_the_samples_stay_on_the_grid():
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}, gain=0.0))
    applied = []
    set_capacity = sim.set_capacity
    sim.set_capacity = lambda lid, cap: applied.append(sim.t) or set_capacity(lid, cap)
    trace = sim.run(3.0, events=[Event(0.505, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0})])
    assert applied == [0.51]
    assert trace.times == [0.0, 1.0, 2.0, 3.0]
    assert trace.since == [0.0, 0.505, 0.505, 0.505]


def test_rerun_planner_event_is_rejected():
    # Re-planning belongs to run_experiment; the simulator must not treat the
    # event as some other kind.
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    with pytest.raises(ValueError, match="rerun-planner"):
        sim.run(duration=1.0, events=[Event(0.5, "rerun-planner", {"knowledge": "stale"})])
    assert sim.t == pytest.approx(0.5)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -1.0])
def test_event_time_must_be_finite_and_non_negative(t):
    # A NaN time never fires, and an unfired event also blocks the convergence stop.
    with pytest.raises(ValueError, match="event time"):
        Event(t, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0})


def test_set_capacity_rejects_unknown_link():
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    with pytest.raises(ValueError, match="'X->Y'"):
        sim.set_capacity("X->Y", 1.0)
    assert sim.capacity[0] == 10.0


@pytest.mark.parametrize("capacity", [0.0, float("nan"), float("inf")])
def test_set_capacity_requires_finite_positive(capacity):
    sim = Simulator(one_flow_problem(), config({"k:0": 2.0}, {"k": 1}))
    with pytest.raises(ValueError, match="finite capacity_mbps > 0"):
        sim.set_capacity("A->B", capacity)
    assert sim.capacity[0] == 10.0


def test_set_capacity_keeps_a_fraction_on_an_integer_capacity_link():
    # The capacities are floats even when every link was given an int.
    sim = Simulator(one_flow_problem(cap=10), config({"k:0": 2.0}, {"k": 1}))
    sim.set_capacity("A->B", 2.5)
    assert sim.capacity[0] == 2.5


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


def test_a_class_without_flows_keeps_its_sessions():
    # bc has no route, so each of its sessions is worth U(0) = 0.5, as the
    # planner counts it: 1 * 0.2 * 10 + 3 * 0.5 = 3.5.
    classes = [
        TrafficClass("ac", "A", "C", 2, PiecewiseLinearUtility.linear(0.2)),
        TrafficClass("bc", "B", "C", 3, PiecewiseLinearUtility.from_points([(0.0, 0.1, 0.5)])),
    ]
    problem = PlanningProblem(triangle_topology(), classes, {"ac": [Flow("ac:0", "ac", ("A->C",))], "bc": []})
    plan = solve_plan(problem)
    assert plan.n == {"ac": 1, "bc": 3} and plan.utility == pytest.approx(3.5)
    # Sent at 20 Mbps, ac:0 delivers the 10 Mbps of A->C from the start.
    sim = Simulator(problem, compute_weights(problem, plan), initial_rates={"ac:0": 20.0})
    trace = sim.run(2.0, events=[Event(1.5, "set-sessions", {"class": "bc", "n": 1})])
    assert trace.utility[:2] == pytest.approx([3.5, 3.5])
    assert trace.utility[-1] == sim.utility() == pytest.approx(2.5)


def test_install_config_rejects_reset_rates():
    # The removed flag raises instead of being ignored; a restart is floor rates.
    payload = {"config": config({"k:0": 2.0}, {"k": 1}), "reset_rates": True}
    with pytest.raises(ValueError, match="unread key\\(s\\) 'reset_rates'"):
        Event(1.0, "install-config", payload)
    # A payload that is not a mapping is named by its event, not by a failed dict copy.
    with pytest.raises(ValueError, match="set-capacity event at t=1.0 needs a mapping payload, got str"):
        Event(1.0, "set-capacity", "ab")


@pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
def test_given_rates_must_be_finite(rate):
    cfg = config({"k:0": 2.0}, {"k": 1})
    # NaN used to become the floor, and inf failed only at the first sample.
    with pytest.raises(ValueError, match="rate of flow 'k:0' must be finite"):
        Simulator(one_flow_problem(), cfg, initial_rates={"k:0": rate})
    with pytest.raises(ValueError, match="rate of flow 'k:0' must be finite"):
        Event(1.0, "install-config", {"config": cfg, "rates": {"k:0": rate}})


# Rates, weights and session counts for a flow or class the simulator does not have, each with
# the error that names it.
UNKNOWN_IDS = [
    ({"k:0": 9.0, "zz": 7.0, "k:9": 5.0}, {"k:0": 5.0}, {"k": 2}, "rates for unknown flow id\\(s\\) 'k:9', 'zz'"),
    ({"k:0": 9.0}, {"zz": 1.0, "k:0": 5.0}, {"k": 2}, "weights for unknown flow id\\(s\\) 'zz'"),
    ({"k:0": 9.0}, {"k:0": 5.0}, {"nope": 3, "k": 2}, "sessions for unknown class id\\(s\\) 'nope'"),
]


def test_initial_rates_for_unknown_flows_are_rejected_at_construction():
    # They used to be ignored without a word.
    for rates, weights, sessions, match in UNKNOWN_IDS:
        with pytest.raises(ValueError, match=match):
            Simulator(one_flow_problem(), config(weights, sessions), initial_rates=rates)


def test_install_rates_for_unknown_flows_are_rejected_when_applied():
    cfg = config({"k:0": 2.0}, {"k": 1})
    for rates, weights, sessions, match in UNKNOWN_IDS:
        sim = Simulator(one_flow_problem(), cfg)
        install = Event(1.0, "install-config", {"config": config(weights, sessions), "rates": rates})
        with pytest.raises(ValueError, match=match):
            sim.run(duration=2.0, events=[install])
        # The run got as far as the install, which changed nothing.
        assert sim.t == 1.0 and sim.config is cfg and sim.w[0] == 2.0 and sim.n[0] == 1.0
        assert sim.x[0] != 9.0


def test_rates_at_or_below_the_floor_restart_a_flow():
    fixed = config({"k:0": 2.0}, {"k": 1}, gain=0.0)
    sim = Simulator(one_flow_problem(), fixed, initial_rates={"k:0": -5.0})
    assert sim.x[0] == RATE_FLOOR
    sim = Simulator(one_flow_problem(), fixed, initial_rates={"k:0": 4.0})
    restart = Event(1.0, "install-config", {"config": fixed, "rates": {"k:0": 0.0}})
    trace = sim.run(duration=2.0, events=[restart])
    # The sample at t = 1 is taken before the event at t = 1 applies.
    assert [x[0] for x in trace.send] == [4.0, 4.0, RATE_FLOOR]
