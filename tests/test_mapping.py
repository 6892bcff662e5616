"""Dual-to-weight mapping tests."""
import math

import pytest

from overlaylab.model import (
    Flow,
    Link,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    link_id,
)
from overlaylab.planner import Plan, PlanningProblem, solve_plan
from overlaylab.scenarios import build_paper_scenario
from overlaylab.sim import Simulator
from overlaylab.weights import (
    TransportConfig,
    WeightError,
    check_gradient_match,
    compute_weights,
)


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


def test_gradient_match_on_solved_plan():
    problem = single_link()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan)
    assert check_gradient_match(problem, plan, config).ok()


def test_gradient_match_fails_on_nan_weights():
    scenario = build_paper_scenario("triangle-basic")
    problem = scenario.problem()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan)
    assert check_gradient_match(problem, plan, config).ok()
    config.weights = {k: math.nan for k in config.weights}
    report = check_gradient_match(problem, plan, config)
    assert math.isnan(report.max_residual)
    assert not report.ok()


def test_gradient_match_fails_on_nan_rate():
    problem = single_link()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan)
    broken = Plan(plan.n, {"k:0": math.nan}, plan.duals, plan.utility, plan.optimality)
    report = check_gradient_match(problem, broken, config)
    assert math.isnan(report.max_residual)
    assert not report.ok()


def test_gradient_match_flags_tampered_weight():
    problem = single_link()
    plan = solve_plan(problem)
    config = compute_weights(problem, plan)
    config.weights["k:0"] *= 3.0
    assert not check_gradient_match(problem, plan, config).ok()


def test_config_json_round_trip():
    problem = single_link()
    config = compute_weights(problem, solve_plan(problem))
    again = TransportConfig.from_json_dict(config.to_json_dict())
    assert again == config
