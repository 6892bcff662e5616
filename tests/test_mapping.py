"""Dual-to-weight mapping tests."""
import dataclasses
import math

import pytest

from overlaylab.model import (
    Flow,
    Link,
    ModelError,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    link_id,
)
from overlaylab.planner import FEAS_TOL, Plan, PlanningProblem, solve_plan
from overlaylab.scenarios import build_paper_scenario
from overlaylab.sim import Simulator
from overlaylab.weights import TransportConfig, WeightError, compute_weights


def L(src, dst, cap):
    return Link(link_id(src, dst), src, dst, cap)


def single_link(cap=10.0, slope=0.2, max_sessions=1):
    topo = Topology("one", {"A": "site", "B": "site"}, [L("A", "B", cap)])
    cls = TrafficClass("k", "A", "B", max_sessions, PiecewiseLinearUtility.linear(slope))
    return PlanningProblem(topo, [cls], {"k": [Flow("k:0", "k", ("A->B",))]})


def test_weight_is_sessions_times_price_times_rate():
    problem = single_link()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan)
    # n = 1, dual 0.2, rate 10 -> weight 2.
    assert config.weights["k:0"] == pytest.approx(2.0)
    assert config.sessions == {"k": 1}
    assert Simulator(problem, config).gain_norm == pytest.approx(0.001 / 2.0)


def test_zero_rate_flow_gets_zero_weight():
    nodes = {"A": "site", "B": "site", "C": "site"}
    links = [L("A", "B", 10), L("A", "C", 10), L("B", "C", 5), L("C", "B", 5)]
    topo = Topology("t", nodes, links)
    classes = [
        TrafficClass("ac", "A", "C", 1, PiecewiseLinearUtility.linear(0.2)),
        TrafficClass("bc", "B", "C", 1, PiecewiseLinearUtility.linear(0.01)),
    ]
    flows = {
        "ac": [Flow("ac:0", "ac", ("A->C",)), Flow("ac:1", "ac", ("A->B", "B->C"))],
        "bc": [Flow("bc:0", "bc", ("B->C",))],
    }
    problem = PlanningProblem(topo, classes, flows)
    plan = solve_plan(problem)
    assert plan.rates["bc:0"] == pytest.approx(0.0)
    config = compute_weights(problem, plan)
    assert config.weights["bc:0"] == 0.0
    assert config.weights["ac:0"] > 0 and config.weights["ac:1"] > 0


def test_missing_dual_is_an_error():
    problem = single_link()
    plan = solve_plan(problem)
    broken = Plan(plan.n, plan.rates, {}, plan.utility, plan.optimality)
    with pytest.raises(WeightError):
        compute_weights(problem, broken)


def test_zero_price_with_positive_rate_is_an_error():
    problem = single_link()
    plan = solve_plan(problem)
    broken = Plan(plan.n, plan.rates, {"A->B": 0.0}, plan.utility, plan.optimality)
    with pytest.raises(WeightError):
        compute_weights(problem, broken)


def test_nan_price_with_positive_rate_is_an_error():
    problem = single_link()
    plan = solve_plan(problem)
    broken = Plan(plan.n, plan.rates, {"A->B": math.nan}, plan.utility, plan.optimality)
    with pytest.raises(WeightError):
        compute_weights(problem, broken)


def test_gain_defaults_when_all_weights_zero():
    problem = single_link(slope=0.0001)
    zero_plan = Plan({"k": 0}, {"k:0": 0.0}, {"A->B": 0.0}, 0.0, "proved-optimal")
    config = compute_weights(problem, zero_plan, gain=0.001)
    assert Simulator(problem, config).gain_norm == pytest.approx(0.001)


def gradient_residual(problem, plan, config):
    """Worst violation of w_f in n_k * [slopes of U_k at the plan] * x_f, positive rates only."""
    agg = plan.aggregate_rates(problem)
    worst = 0.0
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        lo, hi = c.utility.slope_range(agg[c.id])
        for f in problem.flows[c.id]:
            x, w = plan.rates.get(f.id, 0.0), config.weights[f.id]
            if nk and x > FEAS_TOL:
                worst = max(worst, nk * lo * x - w, w - nk * hi * x)
    return worst


def test_gradient_match_on_solved_plan():
    problem = single_link()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan)
    assert gradient_residual(problem, plan, config) <= 1e-6


def test_gradient_match_flags_tampered_weight():
    problem = single_link()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan)
    config = dataclasses.replace(config, weights=config.weights | {"k:0": config.weights["k:0"] * 3.0})
    assert not gradient_residual(problem, plan, config) <= 1e-6


def test_a_config_is_read_only_and_keeps_copies_of_its_maps():
    weights, sessions = {"k:0": 2.0}, {"k": 1}
    config = TransportConfig(weights, sessions)
    # Edits to the caller's dicts do not reach the config.
    weights["k:0"], weights["k:1"], sessions["k"] = 6.0, 1.0, -5
    assert config.weights == {"k:0": 2.0} and config.sessions == {"k": 1}
    for mapping, key, value in ((config.weights, "k:0", 6.0), (config.sessions, "k", -5)):
        with pytest.raises(TypeError):
            mapping[key] = value
    for f in dataclasses.fields(config):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))
    assert config.weights == {"k:0": 2.0} and config.sessions == {"k": 1}


def test_a_config_variant_is_checked_again():
    # Writing -5 sessions into triangle-basic's config used to simulate n = -5 without an error.
    problem = build_paper_scenario("triangle-basic").problem()
    config = compute_weights(problem, solve_plan(problem))
    with pytest.raises(TypeError):
        config.sessions["ac"] = -5
    with pytest.raises(ModelError, match="config class 'ac' requires an integer n >= 0, got -5"):
        dataclasses.replace(config, sessions={"ac": -5})


def test_a_weight_that_overflows_is_a_model_error_naming_the_flow():
    # n * dual * rate = 1 * 1e308 * 10 is inf; the config's weight rule rejects it.
    problem = single_link()
    plan = solve_plan(problem)
    huge = Plan(plan.n, plan.rates, {"A->B": 1e308}, plan.utility, plan.optimality)
    with pytest.raises(ModelError, match="config weight of flow 'k:0' must be finite and >= 0, got inf"):
        compute_weights(problem, huge)


@pytest.mark.parametrize("n", [2.5, True, -1])
def test_config_sessions_follow_the_session_rule(n):
    with pytest.raises(ModelError, match="integer n >= 0"):
        TransportConfig({"k:0": 1.0}, {"k": n})


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0])
def test_config_weights_must_be_finite_and_non_negative(weight):
    # NaN and inf used to fail one step later as a non-finite rate that named
    # no flow, and -1.0 quietly drove the rate down.
    config = TransportConfig({"k:0": 1.0, "k:1": 0.0}, {"k": 1})
    with pytest.raises(ModelError, match="weight of flow 'k:1' must be finite and >= 0"):
        TransportConfig({"k:0": 1.0, "k:1": weight}, {"k": 1})
    with pytest.raises(ModelError, match="weight of flow 'k:1' must be finite and >= 0"):
        dataclasses.replace(config, weights={"k:0": 1.0, "k:1": weight})


@pytest.mark.parametrize("gain", [float("nan"), float("inf"), -0.001])
def test_config_gain_must_be_finite_and_non_negative(gain):
    # A NaN gain used to make every rate NaN on the first step.
    config = TransportConfig({"k:0": 1.0}, {"k": 1})
    with pytest.raises(ModelError, match="gain must be finite and >= 0"):
        TransportConfig({"k:0": 1.0}, {"k": 1}, gain)
    with pytest.raises(ModelError, match="gain must be finite and >= 0"):
        dataclasses.replace(config, gain=gain)
    # Gain 0 is the fixed-rate sender.
    assert dataclasses.replace(config, gain=0.0).gain == 0.0
