"""Topology, utility, and path-enumeration unit tests."""
import math

import pytest
from hypothesis import given, strategies as st

from overlaylab.model import (
    INF,
    ModelError,
    Flow,
    Link,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    cumulative_utility,
    enumerate_paths,
    eval_utility,
    link_id,
    sample_random_paths,
    shortest_leg,
)


def L(src, dst, cap=10.0):
    return Link(link_id(src, dst), src, dst, cap)


def sites(*names):
    return {n: "site" for n in names}


@pytest.fixture
def triangle():
    nodes = sites("A", "B", "C")
    links = [L(a, b) for a in nodes for b in nodes if a != b]
    return Topology("tri", nodes, links)


# -- topology ---------------------------------------------------------------


def test_topology_rejects_duplicate_links():
    with pytest.raises(ModelError):
        Topology("t", sites("A", "B"), [L("A", "B"), L("A", "B")])


def test_topology_rejects_unknown_endpoint():
    with pytest.raises(ModelError):
        Topology("t", sites("A"), [L("A", "B")])


def test_topology_rejects_nonpositive_capacity():
    with pytest.raises(ModelError):
        Topology("t", sites("A", "B"), [L("A", "B", 0.0)])


def test_with_capacities_overrides_without_mutating(triangle):
    t2 = triangle.with_capacities({"A->B": 3.0})
    assert t2.link("A->B").capacity_mbps == 3.0
    assert triangle.link("A->B").capacity_mbps == 10.0


def test_topology_json_round_trip(triangle):
    obj = triangle.to_json_dict()
    for e in obj["links"]:
        e["directed"] = True
    t2 = Topology.from_json_dict(obj)
    assert sorted(ln.id for ln in t2.links) == sorted(ln.id for ln in triangle.links)
    assert t2.nodes == triangle.nodes


def test_undirected_json_edges_expand_both_ways():
    obj = {
        "name": "t",
        "nodes": [{"id": "A", "kind": "site"}, {"id": "B", "kind": "site"}],
        "links": [{"src": "A", "dst": "B", "capacity_mbps": 5}],
    }
    t = Topology.from_json_dict(obj)
    assert t.has_link("A->B") and t.has_link("B->A")


# -- piecewise-linear utilities ---------------------------------------------


def test_linear_utility():
    u = PiecewiseLinearUtility.linear(0.2)
    assert eval_utility(u, 5.0) == pytest.approx(1.0)
    assert u.is_linear_through_origin()


def test_from_points_builds_continuation_pieces():
    u = PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)])
    assert eval_utility(u, 3.0) == pytest.approx(0.6)
    assert eval_utility(u, 5.0) == pytest.approx(0.64)


def test_upward_jump_belongs_to_lower_piece():
    # Pieces are right-closed: at a breakpoint the lower piece supplies the value.
    u = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0), (2.0, 0.0, 1.0)])
    assert eval_utility(u, 2.0) == pytest.approx(0.0)
    assert eval_utility(u, 2.0 + 1e-9) == pytest.approx(1.0)


def test_slope_range_spans_kink():
    u = PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)])
    lo, hi = u.slope_range(3.0)
    assert lo == pytest.approx(0.02)
    assert hi == pytest.approx(0.2)


@pytest.mark.parametrize("x", [math.nan, INF, -INF])
def test_utility_rejects_non_finite_rate(x):
    u = PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)])
    with pytest.raises(ModelError, match="finite"):
        u.value(x)
    with pytest.raises(ModelError, match="finite"):
        u.slope_range(x)
    with pytest.raises(ModelError, match="finite"):
        PiecewiseLinearUtility.linear(0.2).value(x)


def test_utility_rejects_gap_or_overlap():
    with pytest.raises(ModelError):
        PiecewiseLinearUtility(
            [
                type(PiecewiseLinearUtility.linear(1.0).pieces[0])(0.0, 1.0, 1.0, 0.0),
                type(PiecewiseLinearUtility.linear(1.0).pieces[0])(2.0, INF, 1.0, 0.0),
            ]
        )


@given(
    slope=st.floats(0.001, 10.0),
    x=st.floats(0.0, 100.0),
)
def test_linear_utility_matches_closed_form(slope, x):
    u = PiecewiseLinearUtility.linear(slope)
    assert eval_utility(u, x) == pytest.approx(slope * x, rel=1e-12)


def test_cumulative_utility_weights_by_sessions():
    u = PiecewiseLinearUtility.linear(0.5)
    classes = [TrafficClass("k", "A", "B", 4, u)]
    assert cumulative_utility(classes, {"k": 3}, {"k": 2.0}) == pytest.approx(3.0)


# -- routes -----------------------------------------------------------------


def _cls(src, dst):
    return TrafficClass("k", src, dst, 1, PiecewiseLinearUtility.linear(1.0))


def test_shortest_leg_prefers_fewest_links(triangle):
    assert shortest_leg(triangle, "A", "C") == ["A->C"]


def test_enumerate_paths_direct_first(triangle):
    routes = enumerate_paths(triangle, "A", "C", 2)
    assert routes[0] == ("A->C",)
    assert ("A->B", "B->C") in routes


def test_enumerate_paths_respects_hop_limit(triangle):
    routes = enumerate_paths(triangle, "A", "C", 1)
    assert routes == [("A->C",)]


def test_relay_through_router_is_allowed():
    # Site-router-site with a relay: the relay route revisits router r1.
    nodes = {"sA": "site", "sB": "site", "sC": "site", "r1": "router", "r2": "router", "r3": "router"}
    links = [
        L("sA", "r1", 30), L("r1", "sA", 30),
        L("sB", "r2", 30), L("r2", "sB", 30),
        L("sC", "r3", 30), L("r3", "sC", 30),
        L("r1", "r2"), L("r2", "r1"),
        L("r2", "r3"), L("r3", "r2"),
        L("r1", "r3"), L("r3", "r1"),
    ]
    topo = Topology("overlay", nodes, links)
    routes = enumerate_paths(topo, "sA", "sC", 2)
    # Direct leg plus the relay via sB, which goes back through r2.
    assert ("sA->r1", "r1->r3", "r3->sC") in routes
    relay = ("sA->r1", "r1->r2", "r2->sB", "sB->r2", "r2->r3", "r3->sC")
    assert relay in routes


def test_route_must_not_repeat_links(triangle):
    with pytest.raises(ModelError):
        Flow("f", "k", ("A->B", "B->A", "A->B", "B->C")).validate(triangle, _cls("A", "C"))


def test_route_must_not_revisit_sites(triangle):
    with pytest.raises(ModelError):
        Flow("f", "k", ("A->B", "B->A", "A->C")).validate(triangle, _cls("A", "C"))


def test_sample_random_paths_deterministic(triangle):
    routes = enumerate_paths(triangle, "A", "C", 2)[1:]
    a = sample_random_paths(routes, 1, seed=42)
    b = sample_random_paths(routes, 1, seed=42)
    assert a == b


def test_sample_random_paths_k_exceeding_pool_returns_all(triangle):
    routes = enumerate_paths(triangle, "A", "C", 2)[1:]
    assert sorted(sample_random_paths(routes, 99, seed=1)) == sorted(routes)
