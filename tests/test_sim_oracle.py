"""The simulator against the reference copy of its previous code.

``sim_ref`` keeps the simulator as it was before its per-step and per-sample
rewrite.  Both must take the same floating-point steps, so final rates,
goodputs and utility must agree with ``np.array_equal`` / ``==`` and the
trace CSV byte for byte, never within a tolerance.
"""
import dataclasses

import numpy as np
import pytest

import sim_ref
from overlaylab import scenarios
from overlaylab.planner import solve_plan
from overlaylab.sim import SimEvent, Simulator
from overlaylab.weights import compute_weights


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
    assert np.array_equal(sim.link_loss(), ref.link_loss())
    assert np.array_equal(sim.path_success(), ref.path_success())
    assert np.array_equal(sim.goodputs(), ref.goodputs())
    assert sim.utility() == ref.utility()


@pytest.mark.parametrize(
    "name, seed",
    [("triangle-basic", 7), ("failure-triangle", 7), ("failure-large", 7), ("failure-large", 15)],
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
        assert sim.capacity.min() == 0.001 and sim.link_loss().max() > 0.9


def test_demand_sweep_beyond_plan_matches_reference(monkeypatch):
    rows = {}
    sims = {}
    for cls in (Simulator, sim_ref.RefSimulator):
        sims[cls] = recording(monkeypatch, cls)
        rows[cls] = scenarios.demand_sweep((20,))
    assert rows[Simulator] == rows[sim_ref.RefSimulator]
    (sim,), (ref,) = sims[Simulator], sims[sim_ref.RefSimulator]
    assert_same_state(sim, ref)
    assert sim.n[0] == 20.0


@pytest.mark.parametrize("cap", [2.0, 7.0])
def test_robustness_sweep_matches_reference_in_every_mode(monkeypatch, cap):
    rows = {}
    sims = {}
    for cls in (Simulator, sim_ref.RefSimulator):
        sims[cls] = recording(monkeypatch, cls)
        rows[cls] = scenarios.robustness_sweep((cap,))
    assert rows[Simulator] == rows[sim_ref.RefSimulator]
    assert [s.mode for s in sims[Simulator]] == ["weighted", "fixed", "unit"]
    for sim, ref in zip(sims[Simulator], sims[sim_ref.RefSimulator]):
        assert_same_state(sim, ref)


@pytest.mark.parametrize("mode", ["weighted", "fixed", "unit"])
def test_events_and_sampling_match_reference(mode):
    # Capacity, session and config events, with and without a rate reset,
    # under every controller mode, sampled several times per second.
    scenario = scenarios.build_paper_scenario("robustness-sweep")
    problem = scenario.problem(scenario.topology)
    plan = solve_plan(scenario.problem())
    config = compute_weights(scenario.problem(), plan, gain=scenario.gamma)
    other = dataclasses.replace(config, weights={k: 2.0 * v + 0.5 for k, v in config.weights.items()})
    events = [
        SimEvent(30.0, "set-capacity", {"link": "A->B", "capacity_mbps": 1.5}),
        SimEvent(60.0, "set-sessions", {"class": "bc", "n": 3}),
        SimEvent(90.0, "install-config", {"config": other, "rates": {"ab:0": 6.0}}),
        SimEvent(120.0, "install-config", {"config": config, "reset_rates": True}),
        SimEvent(150.0, "install-config", {"config": other}),
    ]
    traces = []
    sims = []
    for cls in (Simulator, sim_ref.RefSimulator):
        sims.append(cls(problem, config, truth=scenario.topology, mode=mode, dt=0.05,
                        initial_rates=plan.rates))
        traces.append(sims[-1].run(duration=200.0, events=events, sample_every=0.25))
    assert_same_state(*sims)
    assert traces[0].rows == traces[1].rows
    assert traces[0].to_csv() == sim_ref.to_csv(traces[1])


def test_convergence_stop_matches_reference():
    scenario = scenarios.build_paper_scenario("triangle-basic")
    problem = scenario.problem()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan, gain=scenario.gamma)
    runs = []
    for cls in (Simulator, sim_ref.RefSimulator):
        sim = cls(problem, config, dt=scenario.dt)
        runs.append((sim, sim.run(stop_on_convergence=True, max_time=300.0)))
    (sim, trace), (ref, want) = runs
    assert trace.converged_at == want.converged_at
    assert_same_state(sim, ref)
    assert trace.to_csv() == sim_ref.to_csv(want)
