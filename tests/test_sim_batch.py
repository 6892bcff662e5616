"""The batch runner against lone runs.

``run_batch`` steps event-free runs that share a flow layout, a dt and a
clock as one stacked step per dt.  Each run must end where a lone
``Simulator.run(duration, sample_every=duration)`` leaves it, so every
comparison here is ``==`` or ``np.array_equal``, never a tolerance.
"""
import dataclasses

import numpy as np
import pytest

from overlaylab import scenarios
from overlaylab.planner import solve_plan
from overlaylab.sim import Simulator, _stepper, run_batch
from overlaylab.weights import compute_weights


def assert_same_run(sim, lone):
    assert sim.t == lone.t
    assert np.array_equal(sim.x, lone.x)
    assert sim.config == lone.config
    assert np.array_equal(sim.goodputs(), lone.goodputs())
    assert sim.utility() == lone.utility()


def sweep_both_ways(monkeypatch, sweep):
    """``sweep()``'s rows and simulators, batched and then one run at a time."""
    made = {}
    for how in ("batched", "lone"):
        sims = made[how] = []

        def build(*args, **kwargs):
            sims.append(Simulator(*args, **kwargs))
            return sims[-1]

        monkeypatch.setattr(scenarios, "Simulator", build)
        if how == "lone":
            monkeypatch.setattr(scenarios, "run_batch", lambda runs, duration: [
                sim.run(duration, sample_every=duration) for sim in runs])
        made[how] = (sweep(), sims)
    return made["batched"], made["lone"]


def test_robustness_sweep_is_one_batch_equal_to_lone_runs(monkeypatch):
    (rows, sims), (lone_rows, lone_sims) = sweep_both_ways(monkeypatch, scenarios.robustness_sweep)
    assert rows == lone_rows
    assert len(sims) == 30
    # Each capacity is its own run's capacity row.
    assert [s.capacity[0] for s in sims] == [float(c) for c in range(1, 11) for _ in range(3)]
    for sim, lone in zip(sims, lone_sims):
        assert_same_run(sim, lone)


def test_demand_sweep_is_one_batch_equal_to_lone_runs(monkeypatch):
    (rows, sims), (lone_rows, lone_sims) = sweep_both_ways(monkeypatch, scenarios.demand_sweep)
    assert rows == lone_rows
    assert [s.n[0] for s in sims] == [float(m) for m in range(1, 21)]
    for sim, lone in zip(sims, lone_sims):
        assert_same_run(sim, lone)


def robustness_runs(caps=(2.0, 2.0, 2.0)):
    """Simulators on the robustness network: weighted, gain 0 and unit weights
    in turn, one per capacity of A->B."""
    scenario = scenarios.build_paper_scenario("robustness-sweep")
    plan = solve_plan(scenario.problem())
    config = compute_weights(scenario.problem(), plan, gain=scenario.gamma)
    configs = (config, dataclasses.replace(config, gain=0.0),
               dataclasses.replace(config, weights=dict.fromkeys(config.weights, 1.0)))
    return [
        Simulator(scenario.problem(scenario.topology.with_capacities({"A->B": cap})),
                  configs[i % 3], dt=scenario.dt, initial_rates=plan.rates)
        for i, cap in enumerate(caps)
    ]


@pytest.mark.parametrize("size", [1, 2, 3])
def test_small_batches_match_lone_runs(size):
    # The gain-0 run (the second) is at a fixed point from its first step,
    # and a lone run of it freezes, while the others keep moving beside it.
    sims, lone = robustness_runs()[:size], robustness_runs()[:size]
    run_batch(sims, 60.0)
    for sim in lone:
        sim.run(60.0, sample_every=60.0)
    for sim, ref in zip(sims, lone):
        assert_same_run(sim, ref)
    assert not np.array_equal(sims[0].x, robustness_runs()[0].x)


def test_batch_with_capacity_rows_matches_lone_runs():
    caps = (1.0, 9.0, 3.5, 6.0, 2.0)
    sims, lone = robustness_runs(caps), robustness_runs(caps)
    run_batch(sims, 300.0)
    for sim in lone:
        sim.run(300.0, sample_every=300.0)
    for sim, ref in zip(sims, lone):
        assert_same_run(sim, ref)


def test_a_batch_takes_40_000_steps_and_equals_its_lone_runs(monkeypatch):
    # Gain-0 runs: a lone run freezes and only moves its clock, while the
    # batch steps all 40 000 times.
    sims, lone = (robustness_runs((4.0, 4.0, 4.0, 4.0, 4.0))[1::3] for _ in range(2))
    calls = []

    def counting(*args):
        step, *rest = _stepper(*args)
        return (lambda k=1: calls.append(k) or step(k)), *rest

    monkeypatch.setattr("overlaylab.sim._stepper", counting)
    run_batch(sims, 4000.0)
    assert calls == [40_000]
    for sim, ref in zip(sims, lone):
        ref.run(4000.0, sample_every=4000.0)
        assert sim.t == 4000.0
        assert_same_run(sim, ref)


def test_batch_rejects_runs_that_do_not_share_layout_dt_and_clock():
    a, b, c = robustness_runs()
    b.dt = 0.05
    with pytest.raises(ValueError, match="share"):
        run_batch([a, b], 1.0)
    c.t = 1.0
    with pytest.raises(ValueError, match="share"):
        run_batch([a, c], 1.0)
    tri = scenarios.build_paper_scenario("triangle-basic")
    other = Simulator(tri.problem(), compute_weights(tri.problem(), solve_plan(tri.problem())), dt=a.dt)
    with pytest.raises(ValueError, match="share"):
        run_batch([a, other], 1.0)
    with pytest.raises(ValueError, match="duration"):
        run_batch([a, robustness_runs()[0]], float("nan"))


def failure_large_runs(seed):
    """Failure-large runs, each with its own share of the failed links, so
    their capacities, rates and losses differ."""
    scenario = scenarios.build_paper_scenario("failure-large", seed=seed)
    problem = scenario.problem()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan, gain=scenario.gamma)
    failed = [e.payload for e in scenario.events if e.kind == "set-capacity"]
    sims = []
    for k in range(6):
        sim = Simulator(scenario.problem(scenario.topology), config, dt=scenario.dt, initial_rates=plan.rates)
        for payload in failed[: 2 * k]:
            sim.set_capacity(payload["link"], payload["capacity_mbps"])
        sims.append(sim)
    return sims


@pytest.mark.parametrize("seed", [7, 33])
def test_stacked_sums_equal_per_run_dot_on_failure_large(seed):
    sims = failure_large_runs(seed)
    inc = sims[0].incidence
    assert inc.shape == (50, 50) and inc.sum(axis=1).max() >= 20
    rng = np.random.default_rng(seed)
    for size in (1, 2, 16, 64, 256):
        runs = [sims[b % len(sims)] for b in range(size)]
        # Rates off the plan's, so that many links are loaded and each sum
        # has terms of many magnitudes.
        x = np.stack([s.x for s in runs]) * rng.uniform(0.5, 2.0, (size, 50))
        w, n, cap = (np.stack([getattr(s, a) for s in runs]) for a in ("w", "n", "capacity"))
        wx = np.stack([w, x])
        _, success, neg_loss = _stepper(inc, *(a[..., None] for a in (wx, n, cap)), np.array(1.0), 0.05)
        succ = success()[..., 0]
        for b in range(size):
            # The per-run sums of the simulator before the batch axis.
            y = np.dot(inc, n[b] * x[b])
            p = np.maximum(y - cap[b], 0.0) / np.maximum(y, cap[b])
            assert np.array_equal(-neg_loss[b, :, 0], p)
            assert np.array_equal(succ[b], np.exp(np.dot(inc.T, np.log1p(-np.minimum(p, 1.0 - 1e-12)))))
    assert (-neg_loss > 0.9).any()  # links at 0.001 Mbps drop most of their load
    lone = failure_large_runs(seed)
    run_batch(sims, 20.0)
    for sim in lone:
        sim.run(20.0, sample_every=20.0)
    for sim, ref in zip(sims, lone):
        assert_same_run(sim, ref)
