"""The planner's piece spans against exhaustive enumeration.

Once a box's session counts are fixed, ``overlaylab.planner.solve_plan``
branches on utility-piece spans and solves an inner LP only for the piece
combinations whose box bound can still reach the best level.  At a session
vector (a leaf) the candidates are the product of the classes' pieces, and
``enum_ref`` (through ``assert_matches_oracle``) solves every one of them at
every leaf: the search must return its plan, compared with ``==`` and on
``to_json()`` bytes.  Every span box's bound must hold each candidate inside
it, and the search must solve few inner LPs where the product holds pieces^k
of them per leaf.
"""
import itertools

import pytest

from overlaylab import planner
from overlaylab.model import Flow, PiecewiseLinearUtility, Topology, TrafficClass
from overlaylab.planner import (
    BOUND_SLACK,
    PlanningProblem,
    _candidate_plan,
    _perspective_lp,
    mccormick_bound,
    solve_plan,
)
from overlaylab.scenarios import add_sites, load_bundled_topology
from test_planner import U_A, L, single_link, triangle_problem
from test_planner_oracle import ABILENE, TRIANGLE, assert_matches_oracle, threshold_problem

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


def all_leaves(problem):
    general, _ = split(problem)
    ranges = [range(c.max_sessions + 1) for c in general]
    for nvec in itertools.product(*ranges):
        yield {c.id: nk for c, nk in zip(general, nvec)}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("k, n_max", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_every_leaf_of_small_instances_matches_product_leaf(name, k, n_max):
    assert_matches_oracle(threshold_problem(TOPOLOGIES[name], k, n_max, seed=k + n_max))


@pytest.mark.parametrize(
    # Six classes only on the triangle: enumeration solves 4^6 = 4096 inner LPs.
    "name, k", [(name, k) for k in (4, 5) for name in sorted(TOPOLOGIES)] + [("triangle", 6)]
)
def test_searched_leaves_match_product_leaf(name, k):
    assert_matches_oracle(threshold_problem(TOPOLOGIES[name], k, 1, seed=k))


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
    assert_matches_oracle(make())


# -- the span bound -------------------------------------------------------------


def assert_span_bounds_hold(problem, n):
    """Every span box's bound at ``n``, after BOUND_SLACK, holds each candidate inside it.

    The box fixes the general classes' sessions at ``n`` and leaves the
    scalable ones at [0, N], as ``solve_plan`` does.
    """
    general, scalable = split(problem)
    active = [c for c in general if n[c.id] >= 1]
    program, _ = _perspective_lp(problem)
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
        span = dict(zip((c.id for c in active), box))
        b = mccormick_bound(program([
            (0, c.max_sessions, 0, len(c.utility.pieces) - 1) if c in scalable
            else (n[c.id], n[c.id], *span.get(c.id, (0, len(c.utility.pieces) - 1)))
            for c in problem.classes
        ]))[0]
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


def test_a_candidate_is_bounded_before_its_inner_lp(monkeypatch):
    # A leaf child gets its own bound LP, like any other child, so a
    # candidate whose bound cannot reach the incumbent is never solved: on
    # the same instance the search solves 12 inner LPs, where pushing each
    # leaf with its parent's bound solved 23.
    calls = []
    inner_lp = planner.inner_lp

    def counted(*args):
        calls.append(1)
        return inner_lp(*args)

    monkeypatch.setattr(planner, "inner_lp", counted)
    solve_plan(threshold_problem(ABILENE, 8, 2, 8))
    assert len(calls) <= 12
