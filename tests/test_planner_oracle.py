"""Branch-and-bound against exhaustive enumeration.

``enum_ref`` keeps the planner's previous exhaustive (session vector, utility
piece) search.  ``solve_plan`` prunes boxes by their perspective bound, ties
included, but it must still return the very plan enumeration returns: the
tests compare with ``==`` on ``Plan`` and on ``to_json()`` bytes, never within
a tolerance.  ``mccormick_ref`` keeps the McCormick bound the perspective
bound replaced.
"""
import itertools
import random

import pytest

from enum_ref import enum_ref, leaf_utilities
from mccormick_ref import mccormick_ref
from overlaylab.model import Flow, PiecewiseLinearUtility, Topology, TrafficClass, enumerate_paths
from overlaylab.planner import (
    FEAS_TOL,
    PlannerConfig,
    PlanningProblem,
    _perspective_lp,
    check_kkt,
    default_rate_boxes,
    mccormick_bound,
    solve_plan,
)
from overlaylab.scenarios import add_sites, build_paper_scenario, load_bundled_topology
from test_lp_oracle import threshold_problem as pairs_problem
from test_planner import U_A, U_B, L, _random_instance, single_link, triangle_problem

THRESHOLD = PiecewiseLinearUtility.from_points(
    [(0.0, 0.0, 0.0), (0.8, 0.1, 0.0), (1.2, 0.005, 0.114)]
)
TRIANGLE = build_paper_scenario("triangle-basic").topology
ABILENE = add_sites(load_bundled_topology("abilene"), uplink_mbps=30.0, core_mbps=10.0)


def assert_matches_oracle(problem):
    plan = solve_plan(problem)
    want = enum_ref(problem)
    assert plan == want
    assert plan.to_json() == want.to_json()
    return plan


def threshold_problem(topology, k, n_max, seed):
    """k threshold classes between distinct random site pairs, 2-hop routes."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < k:
        pair = tuple(rng.sample(topology.sites(), 2))
        if pair not in pairs:
            pairs.append(pair)
    classes = [
        TrafficClass(f"k{i}", a, b, n_max, THRESHOLD) for i, (a, b) in enumerate(pairs)
    ]
    flows = {
        c.id: [
            Flow(f"{c.id}:{j}", c.id, route)
            for j, route in enumerate(enumerate_paths(topology, c.src, c.dst, 2))
        ]
        for c in classes
    }
    return PlanningProblem(topology, classes, flows)


THRESHOLD_CASES = [
    (name, k, n_max)
    for name in ("triangle", "abilene")
    for k, n_max in ((2, 1), (2, 2), (3, 1), (3, 2), (3, 3))
]


@pytest.mark.parametrize("name, k, n_max", THRESHOLD_CASES)
def test_threshold_instances_match_enumeration(name, k, n_max):
    topology = {"triangle": TRIANGLE, "abilene": ABILENE}[name]
    for seed in range(2):
        plan = assert_matches_oracle(threshold_problem(topology, k, n_max, seed))
        assert plan.optimality == "proved-optimal"


@pytest.mark.parametrize("cap", [1.0, 2.0])
@pytest.mark.parametrize("name", ["triangle", "abilene"])
def test_tight_threshold_instances_match_enumeration(name, cap):
    # Links capped at 1-2 Mbps fit few sessions above the 0.8 Mbps threshold,
    # so session counts trade off and equal-utility plans tie.
    topology = {"triangle": TRIANGLE, "abilene": ABILENE}[name]
    topology = topology.with_capacities(
        {ln.id: min(cap, ln.capacity_mbps) for ln in topology.links}
    )
    for seed in range(2):
        assert_matches_oracle(threshold_problem(topology, 3, 3, seed))


@pytest.mark.parametrize("seed", range(40))
def test_random_instances_match_enumeration(seed):
    assert_matches_oracle(_random_instance(seed))


def test_branch_and_bound_matches_enumeration():
    problem = single_link(utility=U_A, max_sessions=20)
    plan = assert_matches_oracle(problem)
    assert plan.n == {"k": 9}


def test_branch_and_bound_matches_on_two_classes():
    topo = Topology(
        "two",
        {"A": "site", "B": "site"},
        [L("A", "B", 6.0)],
    )
    classes = [
        TrafficClass("p", "A", "B", 3, U_A),
        TrafficClass("q", "A", "B", 2, U_B),
    ]
    flows = {
        "p": [Flow("p:0", "p", ("A->B",))],
        "q": [Flow("q:0", "q", ("A->B",))],
    }
    assert_matches_oracle(PlanningProblem(topo, classes, flows))


# -- the zero plan's tie ------------------------------------------------------


def test_flat_zero_utility_matches_enumeration():
    zero = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0)])
    plan = assert_matches_oracle(single_link(utility=zero, max_sessions=3))
    assert plan.n == {"k": 0}


def test_scalable_only_problem_matches_enumeration():
    assert_matches_oracle(single_link(max_sessions=4))
    assert_matches_oracle(triangle_problem())


def test_negative_utility_matches_enumeration():
    # Worth 0.1x - 1, below zero on every rate the 5 Mbps link can carry, and
    # a flat-zero second class: the empty plan must win its tie.
    costly = PiecewiseLinearUtility.from_points([(0.0, 0.1, -1.0)])
    zero = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    topo = Topology("neg", {"A": "site", "B": "site"}, [L("A", "B", 5.0)])
    classes = [TrafficClass("p", "A", "B", 2, costly), TrafficClass("q", "A", "B", 2, zero)]
    flows = {"p": [Flow("p:0", "p", ("A->B",))], "q": [Flow("q:0", "q", ("A->B",))]}
    plan = assert_matches_oracle(PlanningProblem(topo, classes, flows))
    assert plan.n == {"p": 0, "q": 0} and plan.utility == 0.0


def test_tie_behind_a_looser_bound_is_still_searched():
    # Classes "a" and "c" share the 1.2 Mbps link X->Y and either one alone
    # is worth 0.6.  Class a's envelope (its jump at 1.5 Mbps is out of reach)
    # bounds it at 0.8, so n = (1, 0) is found first; (0, 1) has the same
    # utility and session total, sorts first, and must not be pruned.
    jump = PiecewiseLinearUtility.from_points([(0.0, 0.5, 0.0), (1.5, 0.5, 0.25)])
    threshold = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0), (1.0, 0.5, 0.0)])
    topo = Topology(
        "shared",
        {"X": "site", "Y": "router", "Z": "router", "B": "site"},
        [L("X", "Y", 1.2), L("Y", "B", 1.2), L("Y", "Z", 1.2), L("Z", "B", 1.2)],
    )
    classes = [TrafficClass("a", "X", "B", 1, jump), TrafficClass("c", "X", "B", 1, threshold)]
    flows = {
        "a": [Flow("a:0", "a", ("X->Y", "Y->B")), Flow("a:1", "a", ("X->Y", "Y->Z", "Z->B"))],
        "c": [Flow("c:0", "c", ("X->Y", "Y->B"))],
    }
    plan = assert_matches_oracle(PlanningProblem(topo, classes, flows))
    assert plan.n == {"a": 0, "c": 1}


# -- the perspective bound ----------------------------------------------------


@pytest.mark.parametrize("name, k, n_max", [c for c in THRESHOLD_CASES if c[2] <= 2])
def test_perspective_bound_is_valid_and_within_mccormick(name, k, n_max):
    # Every sub-box of session counts: the bound holds every leaf in the box
    # and is never looser than the McCormick bound it replaced.
    topology = {"triangle": TRIANGLE, "abilene": ABILENE}[name]
    intervals = [(lo, hi) for lo in range(n_max + 1) for hi in range(lo, n_max + 1)]
    for seed in range(2):
        problem = threshold_problem(topology, k, n_max, seed)
        x_box = default_rate_boxes(problem)
        leaves = leaf_utilities(problem)
        for box in itertools.product(intervals, repeat=k):
            n_box = {c.id: b for c, b in zip(problem.classes, box)}
            program, _ = _perspective_lp(problem)
            full = [(*n_box[c.id], 0, len(c.utility.pieces) - 1) for c in problem.classes]
            bound = mccormick_bound(program(full))[0]
            inside = [
                u for n, u in leaves.items() if all(lo <= nk <= hi for nk, (lo, hi) in zip(n, box))
            ]
            assert bound >= max(inside), box
            assert bound <= mccormick_ref(problem, n_box, x_box) + 1e-9, box


def triangle_threshold(n_max):
    return pairs_problem(TRIANGLE, [("A", "C"), ("B", "C"), ("A", "B")], n_max)


@pytest.mark.parametrize("n_max", [20, 26, 34])
def test_triangle_node_limit_range_is_proved(n_max):
    # Ties on utility 2.5 span a wide band of session vectors; only tie-aware
    # pruning gets through it within the default node limit.
    plan = solve_plan(triangle_threshold(n_max))
    assert plan.optimality == "proved-optimal"
    assert plan.n == {"k0": 0, "k1": 9, "k2": 12}
    assert plan.utility == pytest.approx(2.5, abs=1e-12)
    assert plan.gap == 0.0


def test_node_limit_returns_feasible_best_found_with_gap():
    problem = triangle_threshold(12)
    proved = solve_plan(problem)
    plan = solve_plan(problem, PlannerConfig(bb_node_limit=10))
    assert plan.optimality == "best-found"
    assert check_kkt(problem, plan).feasibility <= FEAS_TOL
    assert plan.gap > 0
    assert plan.utility + plan.gap >= proved.utility - 1e-9
    # The gap is not part of the plan's bytes or equality.
    assert "gap" not in plan.to_json()
