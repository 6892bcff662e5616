"""The leaf's piece-span search against the product-order leaf.

At a fixed session vector, ``overlaylab.planner._leaf_plan`` searches boxes
of utility-piece spans best-first and solves only the piece combinations
whose box bound can still reach the best level.  ``leaf_ref`` (in
``enum_ref.py``) is the leaf it replaced: every combination's inner LP, the
first of the smallest ``_plan_sort_key`` in product order.  Both must return
the same plan, compared with ``==`` and on ``to_json()`` bytes.  The span
bound must hold every candidate in its box, and the search must solve few
inner LPs where the product needs pieces^k of them.
"""
import itertools
import math

import pytest

from enum_ref import leaf_ref
from overlaylab import planner
from overlaylab.model import Flow, PiecewiseLinearUtility, Topology, TrafficClass
from overlaylab.planner import (
    BOUND_SLACK,
    UTILITY_TIE_TOL,
    PlanningProblem,
    _candidate_plan,
    _class_rate_caps,
    _leaf_plan,
    _span_bound,
    _span_rows,
    solve_plan,
)
from overlaylab.scenarios import add_sites, load_bundled_topology
from test_planner import U_A, L, single_link, triangle_problem
from test_planner_oracle import ABILENE, TRIANGLE, threshold_problem

BTN = add_sites(load_bundled_topology("btn"), uplink_mbps=30.0, core_mbps=10.0)
TOPOLOGIES = {"triangle": TRIANGLE, "abilene": ABILENE, "btn": BTN}


def split(problem):
    """(general, scalable) classes, as ``solve_plan`` splits them."""
    scalable = [
        c
        for c in problem.classes
        if c.utility.is_linear_through_origin() and c.max_sessions >= 1
    ]
    return [c for c in problem.classes if c not in scalable], scalable


def level(plan) -> int:
    return round(plan.utility / UTILITY_TIE_TOL)


def assert_leaf_matches(problem, n, runs=((-math.inf, None),)):
    """The span search at ``n`` returns the product-order leaf's plan.

    Each run is (incumbent level, plan): the plan the search returned under
    that incumbent, or None to run it here.  Under an incumbent a leaf may
    prune everything below its level, so the plans must agree only when the
    reference reaches it.
    """
    _, scalable = split(problem)
    want = leaf_ref(problem, n, scalable)
    rows = _span_rows(problem, _class_rate_caps(problem))
    for inc_level, got in runs:
        if got is None:
            got = _leaf_plan(problem, n, scalable, rows, inc_level)
        if want is None or level(want) < inc_level:
            assert got is None or level(got) < inc_level, n
            continue
        assert got == want, n
        assert got.to_json() == want.to_json(), n


def all_leaves(problem):
    general, _ = split(problem)
    ranges = [range(c.max_sessions + 1) for c in general]
    for nvec in itertools.product(*ranges):
        yield {c.id: nk for c, nk in zip(general, nvec)}


def visited_leaves(problem, monkeypatch):
    """Every (n, incumbent level, plan) of the leaves ``solve_plan`` searches."""
    seen = []

    def record(problem, n, scalable, rows, inc_level):
        plan = leaf(problem, n, scalable, rows, inc_level)
        seen.append((dict(n), inc_level, plan))
        return plan

    leaf = planner._leaf_plan
    monkeypatch.setattr(planner, "_leaf_plan", record)
    solve_plan(problem)
    monkeypatch.setattr(planner, "_leaf_plan", leaf)
    return seen


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("k, n_max", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_every_leaf_of_small_instances_matches_product_leaf(name, k, n_max):
    problem = threshold_problem(TOPOLOGIES[name], k, n_max, seed=k + n_max)
    for n in all_leaves(problem):
        assert_leaf_matches(problem, n)


@pytest.mark.parametrize(
    # Six classes only on the triangle: a 6-class reference leaf is 729 inner LPs.
    "name, k", [(name, k) for k in (4, 5) for name in sorted(TOPOLOGIES)] + [("triangle", 6)]
)
def test_searched_leaves_match_product_leaf(name, k, monkeypatch):
    # Both the leaf as solve_plan ran it, under its incumbent, and the same
    # leaf with no incumbent at all.
    problem = threshold_problem(TOPOLOGIES[name], k, 1, seed=k)
    seen = visited_leaves(problem, monkeypatch)
    assert seen
    for n, inc_level, plan in seen:
        assert_leaf_matches(problem, n, [(inc_level, plan), (-math.inf, None)])


def mixed_problem():
    """A threshold class riding with a linear (scalable) class on the triangle."""
    problem = triangle_problem()
    classes = [
        TrafficClass("t", "A", "C", 2, U_A),
        *problem.classes,
    ]
    flows = dict(problem.flows)
    flows["t"] = [Flow("t:0", "t", ("A->C",)), Flow("t:1", "t", ("A->B", "B->C"))]
    return PlanningProblem(problem.topology, classes, flows)


def negative_problem():
    costly = PiecewiseLinearUtility.from_points([(0.0, 0.1, -1.0)])
    zero = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    topo = Topology("neg", {"A": "site", "B": "site"}, [L("A", "B", 5.0)])
    classes = [TrafficClass("p", "A", "B", 2, costly), TrafficClass("q", "A", "B", 2, zero)]
    flows = {"p": [Flow("p:0", "p", ("A->B",))], "q": [Flow("q:0", "q", ("A->B",))]}
    return PlanningProblem(topo, classes, flows)


FLAT_ZERO = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0)])


@pytest.mark.parametrize(
    "make",
    [
        lambda: single_link(utility=FLAT_ZERO, max_sessions=3),
        negative_problem,
        lambda: single_link(max_sessions=4),
        triangle_problem,
        mixed_problem,
    ],
    ids=["flat-zero", "negative-utility", "scalable-only", "scalable-triangle", "ride-along"],
)
def test_special_utilities_match_product_leaf(make):
    problem = make()
    for n in all_leaves(problem):
        assert_leaf_matches(problem, n)


# -- the span bound -------------------------------------------------------------


def assert_span_bounds_hold(problem, n):
    """Every span box's bound, after BOUND_SLACK, holds each candidate inside it."""
    general, scalable = split(problem)
    active = [c for c in general if n[c.id] >= 1]
    rows = _span_rows(problem, _class_rate_caps(problem))
    bound = _span_bound(problem, n, scalable, rows)
    utilities = {}
    for pieces in itertools.product(*(range(len(c.utility.pieces)) for c in active)):
        plan = _candidate_plan(problem, n, dict(zip((c.id for c in active), pieces)), scalable)
        if plan is not None:  # its utility is cumulative_utility at its rates
            utilities[pieces] = plan.utility
    spans = [
        list(itertools.combinations_with_replacement(range(len(c.utility.pieces)), 2))
        for c in active
    ]
    checked = 0
    for box in itertools.product(*spans) if active else []:
        b = bound(box)[0]
        inside = [
            u for pieces, u in utilities.items()
            if all(i0 <= p <= i1 for p, (i0, i1) in zip(pieces, box))
        ]
        for u in inside:
            assert b + BOUND_SLACK * (1.0 + abs(b)) >= u, (n, box)
        checked += bool(inside)
    return checked


@pytest.mark.parametrize("seed", range(2))
def test_span_bounds_hold_on_abilene_leaves(seed):
    problem = threshold_problem(ABILENE, 3, 1, seed)
    assert sum(assert_span_bounds_hold(problem, n) for n in all_leaves(problem)) > 0
    full = {"k0": 2, "k1": 2, "k2": 2}
    assert assert_span_bounds_hold(threshold_problem(ABILENE, 3, 2, seed), full)


def test_span_bound_holds_past_an_upward_jump():
    # Both routes cross the 0.9 Mbps link X->Y, so the class reaches 0.9 Mbps
    # while its route capacities sum to 1.8.  Piece 1 starts on the jump at
    # 0.8 (from 0 to 0.08) and its candidate is worth 0.09: the span boxes
    # starting there hold it only because the envelope takes the jump's
    # right-hand value at its left end.
    topo = Topology(
        "jump",
        {"X": "site", "Y": "router", "Z": "router", "B": "site"},
        [L("X", "Y", 0.9), L("Y", "B", 10.0), L("Y", "Z", 10.0), L("Z", "B", 10.0)],
    )
    cls = TrafficClass("k", "X", "B", 1, U_A)
    flows = {"k": [Flow("k:0", "k", ("X->Y", "Y->B")), Flow("k:1", "k", ("X->Y", "Y->Z", "Z->B"))]}
    problem = PlanningProblem(topo, [cls], flows)
    assert assert_span_bounds_hold(problem, {"k": 1}) == 5
    assert solve_plan(problem).utility == pytest.approx(0.09)


# -- scaling in classes -------------------------------------------------------


def test_eight_classes_solve_few_inner_lps(monkeypatch):
    # Abilene with sites, eight threshold classes at N = 2: the product leaf
    # solved 3^8 = 6561 inner LPs; the span search solves a few dozen.
    calls = []
    inner_lp = planner.inner_lp

    def counted(*args):
        calls.append(1)
        return inner_lp(*args)

    monkeypatch.setattr(planner, "inner_lp", counted)
    plan = solve_plan(threshold_problem(ABILENE, 8, 2, 8))
    assert plan.optimality == "proved-optimal"
    assert len(calls) <= 50
