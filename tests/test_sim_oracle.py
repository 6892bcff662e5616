"""The simulator against the reference copy of its previous code.

``sim_ref`` keeps the simulator as it was before its per-step and per-sample
rewrite.  Both must take the same floating-point steps, so final rates,
goodputs and utility must agree with ``np.array_equal`` / ``==`` and the
trace CSV byte for byte, never within a tolerance.

The reference still has controller modes and a rate-reset flag; the
simulator gets the equivalent config (``in_mode``) and, for a reset, floor
rates for every flow (``translated``).
"""
import dataclasses
from collections import namedtuple

import numpy as np
import pytest

import sim_ref
from overlaylab import scenarios
from overlaylab.scenarios import triangle_topology
from overlaylab.model import Flow, PiecewiseLinearUtility, Topology, TrafficClass
from overlaylab.planner import PlanningProblem, solve_plan
from overlaylab.sim import RATE_FLOOR, Event, Simulator
from overlaylab.weights import compute_weights
from test_acceptance import _random_mapping_instance
from test_sim import L, fast_one_flow, one_flow_problem
from test_sim import config as make_config

MODES = ("weighted", "fixed", "unit")

# An event for the reference only: it may carry ``reset_rates``.
RefEvent = namedtuple("RefEvent", "t kind payload")


def in_mode(config, mode):
    """The config under which ``Simulator`` runs the reference's ``mode``."""
    if mode == "unit":
        return dataclasses.replace(config, weights=dict.fromkeys(config.weights, 1.0))
    if mode == "fixed":
        return dataclasses.replace(config, gain=0.0)
    return config


def translated(ev, mode, flow_ids):
    """The reference's event ``ev`` as a ``Simulator`` event under ``mode``."""
    payload = dict(ev.payload)
    if ev.kind == "install-config":
        payload["config"] = in_mode(payload["config"], mode)
        if payload.pop("reset_rates", False):
            # The reference resets every flow to the floor before it applies rates.
            payload["rates"] = dict.fromkeys(flow_ids, RATE_FLOOR) | payload.get("rates", {})
    return Event(ev.t, ev.kind, payload)


def make_in(mode, problem, config, **kwargs):
    """``make(cls)`` for ``run_both``: the reference in ``mode``, or the
    simulator on the equivalent config."""
    def make(cls):
        if cls is sim_ref.RefSimulator:
            return cls(problem, config, mode=mode, **kwargs)
        return cls(problem, in_mode(config, mode), **kwargs)
    return make


def recording(monkeypatch, cls):
    """Make ``scenarios`` build its simulators from ``cls`` and keep them."""
    made = []

    def build(*args, **kwargs):
        made.append(cls(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(scenarios, "Simulator", build)
    return made


def assert_same_state(sim, ref):
    assert sim.t == ref.t
    assert np.array_equal(sim.x, ref.x)
    assert np.array_equal(sim.goodputs(), ref.goodputs())
    assert sim.utility() == ref.utility()


@pytest.mark.parametrize(
    "name, seed",
    [("triangle-basic", 7), ("failure-triangle", 7), ("failure-large", 7), ("failure-large", 15), ("hop-study", 7)],
)
def test_experiment_matches_reference(monkeypatch, name, seed):
    scenario = scenarios.build_paper_scenario(name, seed=seed)
    if name == "triangle-basic":
        scenario = dataclasses.replace(scenario, duration=60.0)
    results = {}
    for cls in (Simulator, sim_ref.RefSimulator):
        made = recording(monkeypatch, cls)
        results[cls] = (scenarios.run_experiment(scenario), made)
    (got, (sim,)), (want, (ref,)) = results[Simulator], results[sim_ref.RefSimulator]
    assert_same_state(sim, ref)
    assert len(want.trace.times) > 50
    assert got.trace.rows == want.trace.rows
    assert got.trace.to_csv() == sim_ref.to_csv(want.trace)
    assert got.summary_csv() == want.summary_csv()
    cut_times = [e.t for e in scenario.events]
    assert got.phase_utilities == sim_ref.phase_utilities(want.trace, cut_times, scenario.duration)
    if name == "failure-large":
        # 50 flows, and the 0.001 Mbps links still drop most of their load.
        assert len(sim.flows) == 50
        assert sim.capacity.min() == 0.001 and (sim.goodputs() < 0.1 * sim.x).any()


def test_demand_sweep_beyond_plan_matches_reference(monkeypatch):
    sims = recording(monkeypatch, Simulator)
    rows = scenarios.demand_sweep((20,))
    # The sweep's point as it was written: the reference with 20 sessions that
    # start at the planned aggregate, each class's goodput summed per flow.
    scenario = scenarios.build_paper_scenario("demand-sweep")
    plan = scenario.pinned_plan
    config = compute_weights(scenario.problem(), plan, gain=scenario.gamma)
    ref = sim_ref.RefSimulator(
        scenario.problem(scenario.topology), dataclasses.replace(config, sessions=config.sessions | {"hi": 20}),
        dt=scenario.dt, initial_rates=plan.rates | {"hi:0": plan.rates["hi:0"] * plan.n["hi"] / 20})
    ref.run(duration=scenario.duration, sample_every=scenario.duration)
    cg = {}
    for f, n, good in zip(ref.flows, ref.n, ref.goodputs()):
        cg[f.class_id] = cg.get(f.class_id, 0.0) + float(n * good)
    assert rows == [(20, cg["hi"], cg["lo"])]
    (sim,) = sims
    assert_same_state(sim, ref)
    assert sim.n[0] == 20.0


@pytest.mark.parametrize("cap", [2.0, 7.0])
def test_robustness_sweep_matches_reference_in_every_mode(monkeypatch, cap):
    sims = recording(monkeypatch, Simulator)
    rows = scenarios.robustness_sweep((cap,))
    # The sweep as it was written with modes: the reference in each mode on
    # the plan's config.
    scenario = scenarios.build_paper_scenario("robustness-sweep")
    plan = solve_plan(scenario.problem())
    config = compute_weights(scenario.problem(), plan, gain=scenario.gamma)
    truth = scenario.problem(scenario.topology.with_capacities({"A->B": cap}))
    refs = []
    for mode in MODES:
        refs.append(sim_ref.RefSimulator(truth, config, mode=mode, dt=scenario.dt, initial_rates=plan.rates))
        refs[-1].run(duration=scenario.duration, sample_every=scenario.duration)
    assert rows == [(cap, *(ref.utility() for ref in refs))]
    assert [s.config for s in sims] == [in_mode(config, mode) for mode in MODES]
    for sim, ref in zip(sims, refs):
        assert_same_state(sim, ref)


@pytest.mark.parametrize("mode", MODES)
def test_events_and_sampling_match_reference(mode):
    # Capacity, session and config events, with and without a rate reset,
    # under every controller mode, sampled several times per second.
    scenario = scenarios.build_paper_scenario("robustness-sweep")
    problem = scenario.problem(scenario.topology)
    plan = solve_plan(scenario.problem())
    config = compute_weights(scenario.problem(), plan, gain=scenario.gamma)
    other = dataclasses.replace(config, weights={k: 2.0 * v + 0.5 for k, v in config.weights.items()})
    events = [
        RefEvent(30.0, "set-capacity", {"link": "A->B", "capacity_mbps": 1.5}),
        RefEvent(60.0, "set-sessions", {"class": "bc", "n": 3}),
        RefEvent(90.0, "install-config", {"config": other, "rates": {"ab:0": 6.0}}),
        RefEvent(120.0, "install-config", {"config": config, "reset_rates": True}),
        RefEvent(150.0, "install-config", {"config": other}),
    ]
    flow_ids = [f.id for f in problem.all_flows()]
    sim = Simulator(problem, in_mode(config, mode), dt=0.05, initial_rates=plan.rates)
    trace = sim.run(duration=200.0, events=[translated(e, mode, flow_ids) for e in events], sample_every=0.25)
    ref = sim_ref.RefSimulator(problem, config, mode=mode, dt=0.05, initial_rates=plan.rates)
    want = ref.run(duration=200.0, events=events, sample_every=0.25)
    assert_same_state(sim, ref)
    assert trace.rows == want.rows
    assert trace.to_csv() == sim_ref.to_csv(want)


# -- the exact freeze ---------------------------------------------------------
# ``Simulator.run`` stops stepping once a step leaves the rates bit for bit
# unchanged; ``RefSimulator`` steps to the end.  The two must still agree.


def run_both(make, **run_kwargs):
    """``make(cls)`` builds each simulator; returns (sim, trace, ref, ref_trace)."""
    sim, ref = make(Simulator), make(sim_ref.RefSimulator)
    return sim, sim.run(**run_kwargs), ref, ref.run(**run_kwargs)


def assert_same_run(sim, trace, ref, want):
    assert_same_state(sim, ref)
    assert trace.times == want.times
    assert trace.rows == want.rows
    assert trace.to_csv() == sim_ref.to_csv(want)


def test_freeze_long_past_the_fixed_point_matches_reference():
    sim, trace, ref, want = run_both(fast_one_flow, duration=600.0, sample_every=0.3)
    assert trace.fixed_at is not None and trace.fixed_at < 100.0
    assert_same_run(sim, trace, ref, want)
    assert len(trace.times) > 2000


def test_events_after_the_freeze_thaw_it_as_the_reference_moves():
    events = [
        Event(100.0, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0}),
        Event(250.0, "set-sessions", {"class": "k", "n": 3}),
    ]
    # Each event lands on a frozen run, which must move again.
    for t_end, fired in ((100.0, 0), (250.0, 1)):
        trace = fast_one_flow().run(duration=t_end, events=events[:fired])
        assert trace.fixed_at < events[fired].t
    sim, trace, ref, want = run_both(fast_one_flow, duration=500.0, events=events, sample_every=0.5)
    assert trace.fixed_at > 250.0
    assert_same_run(sim, trace, ref, want)
    times = np.array(trace.times)
    at = [trace.send[np.abs(times - t).argmin()][0] for t in (100.0, 150.0, 250.0, 300.0)]
    assert at[0] != at[1] != at[2] != at[3]


def test_long_fixed_mode_run_matches_reference():
    scenario = scenarios.build_paper_scenario("robustness-sweep")
    problem = scenario.problem()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan, gain=scenario.gamma)
    sim, trace, ref, want = run_both(
        make_in("fixed", problem, config, dt=scenario.dt, initial_rates=plan.rates),
        duration=5000.0, sample_every=2.5,
    )
    assert trace.fixed_at == pytest.approx(1.0)
    assert_same_run(sim, trace, ref, want)


@pytest.mark.parametrize("mode", ["weighted", "fixed"])
def test_convergence_stop_after_a_freeze_matches_reference(mode):
    # The event fires on a frozen run, which must thaw and settle again.
    events = [Event(100.0, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0})]
    # fast_one_flow's network, with the reference in ``mode``.
    make = make_in(
        mode, one_flow_problem(10.0), make_config({"k:0": 2.0}, {"k": 1}, gain=0.1),
        initial_rates={"k:0": 5.0},
    )
    sim, trace, ref, want = run_both(make, duration=3000.0, events=events, sample_every=0.5)
    assert_same_run(sim, trace, ref, want)


def test_acceptance_2_instance_freezes_and_matches_reference():
    # Seed 9 is one of acceptance 2's instances: 5 flows on 5 links, each
    # positive-rate flow priced at one link.  It freezes near t = 917 s.
    problem = _random_mapping_instance(9)
    plan = solve_plan(problem)
    assert plan.utility > 1e-9
    config = compute_weights(problem, plan)
    sim, trace, ref, want = run_both(
        lambda cls: cls(problem, config, dt=0.05, initial_rates=plan.rates),
        duration=8000.0, sample_every=8000.0,
    )
    assert len(sim.flows) == 5
    assert trace.fixed_at is not None and trace.fixed_at < 2000.0
    assert_same_run(sim, trace, ref, want)


def test_free_stretches_stop_off_the_sample_and_window_grids():
    # dt 0.05 puts a sample every 7 steps and a window test every 20, and the
    # events fall off both grids: 45.01 and 45.06 in consecutive steps, and
    # 250.02 on a run frozen since about 113 s.  ``Simulator.run`` steps in
    # free stretches between these points, and each stretch must stop where
    # the reference's step-by-step loop acts.
    events = [
        Event(12.37, "set-capacity", {"link": "A->B", "capacity_mbps": 7.0}),
        Event(45.01, "set-sessions", {"class": "k", "n": 2}),
        Event(45.06, "set-capacity", {"link": "A->B", "capacity_mbps": 12.0}),
        Event(250.02, "set-capacity", {"link": "A->B", "capacity_mbps": 10.0}),
    ]
    assert fast_one_flow(dt=0.05).run(duration=250.0, events=events[:3]).fixed_at < 250.0
    sim, trace, ref, want = run_both(
        lambda cls: fast_one_flow(cls, dt=0.05), duration=400.0, events=events, sample_every=0.35,
    )
    assert trace.fixed_at > 250.02
    assert_same_run(sim, trace, ref, want)


def test_a_class_without_flows_matches_reference():
    # bc has no route, so each of its sessions counts U(0) = 0.5, in the
    # reference as in the planner: 1 * 0.2 * 10 + 3 * 0.5 = 3.5 until an
    # event leaves bc one session.
    classes = [
        TrafficClass("ac", "A", "C", 2, PiecewiseLinearUtility.linear(0.2)),
        TrafficClass("bc", "B", "C", 3, PiecewiseLinearUtility.from_points([(0.0, 0.1, 0.5)])),
    ]
    problem = PlanningProblem(triangle_topology(), classes, {"ac": [Flow("ac:0", "ac", ("A->C",))], "bc": []})
    plan = solve_plan(problem)
    assert plan.n == {"ac": 1, "bc": 3}
    config = compute_weights(problem, plan)
    events = [Event(1.5, "set-sessions", {"class": "bc", "n": 1})]
    sim, trace, ref, want = run_both(
        lambda cls: cls(problem, config, initial_rates={"ac:0": 20.0}), duration=2.0, events=events,
    )
    assert want.utility[:2] == pytest.approx([3.5, 3.5])
    assert want.utility[-1] == pytest.approx(2.5)
    assert_same_run(sim, trace, ref, want)


def assert_same_trace(sim, trace, ref, want):
    assert_same_run(sim, trace, ref, want)
    assert trace.utility == want.utility
    assert trace.final_goodputs() == want.final_goodputs()


def test_a_network_without_flows_matches_reference():
    # No class has a route: every sample is one summary row of zeros, and
    # the utility is ac's 2 sessions at U(0) = 0.5.
    classes = [TrafficClass("ac", "A", "C", 2, PiecewiseLinearUtility.from_points([(0.0, 0.1, 0.5)]))]
    problem = PlanningProblem(triangle_topology(), classes, {"ac": []})
    config = compute_weights(problem, solve_plan(problem))
    sim, trace, ref, want = run_both(lambda cls: cls(problem, config), duration=3.0, sample_every=0.5)
    assert len(sim.flows) == 0 and len(trace.times) == 7
    assert trace.final_goodputs() == {}
    assert trace.utility == [1.0] * 7
    assert_same_trace(sim, trace, ref, want)


def test_a_zero_duration_run_matches_reference():
    # One sample, at the start, and not a step.
    sim, trace, ref, want = run_both(fast_one_flow, duration=0.0)
    assert trace.times == [0.0] and sim.t == 0.0
    assert_same_trace(sim, trace, ref, want)


def test_csv_keeps_ids_with_format_characters():
    # Ids are free strings, and the trace writer builds a row template from them.
    topo = Topology("pct", {"A": "site", "B": "site"}, [L("A", "B", 6.0)])
    classes = [TrafficClass(c, "A", "B", 2, PiecewiseLinearUtility.linear(0.1)) for c in ("50%", "%s{}")]
    flows = {"50%": [Flow("%s:0", "50%", ("A->B",)), Flow("{}%d", "50%", ("A->B",))],
             "%s{}": [Flow("a%%b{0}", "%s{}", ("A->B",))]}
    problem = PlanningProblem(topo, classes, flows)
    weights = {"%s:0": 1.0, "{}%d": 2.0, "a%%b{0}": 0.5}
    trace = Simulator(problem, make_config(weights, {"50%": 2, "%s{}": 1}, gain=0.1)).run(
        duration=3.0, sample_every=0.5)
    text = trace.to_csv()
    assert text == sim_ref.to_csv(trace)
    ids = {tuple(line.split(",")[1::3][:2]) for line in text.splitlines()[1:]}
    assert ids == {("%s:0", "50%"), ("{}%d", "50%"), ("a%%b{0}", "%s{}"), ("", "")}
