"""Topology, utility, and path-enumeration unit tests."""
import dataclasses
import hashlib
import json
import math
import random

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
    link_id,
    sample_random_paths,
    shortest_leg,
)
from overlaylab import scenarios
from overlaylab.scenarios import add_sites, load_bundled_topology


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


@pytest.mark.parametrize("cap", ["7", None, [1.0], 1j])
def test_capacity_rule_rejects_non_numbers(cap):
    # A ModelError (exit 2 in the CLI), not a TypeError from inside math.isfinite.
    with pytest.raises(ModelError, match="finite capacity_mbps > 0"):
        L("A", "B", cap)


def test_with_capacities_overrides_without_mutating(triangle):
    t2 = triangle.with_capacities({"A->B": 3.0})
    assert t2.link("A->B").capacity_mbps == 3.0
    assert triangle.link("A->B").capacity_mbps == 10.0


def test_with_capacities_keeps_unchanged_links(triangle):
    t2 = triangle.with_capacities({"A->B": 3.0, "C->B": 7})
    for old, new in zip(triangle.links, t2.links):
        if old.id in ("A->B", "C->B"):
            assert new is not old and (new.id, new.src, new.dst) == (old.id, old.src, old.dst)
        else:
            assert new is old
    assert [ln.capacity_mbps for ln in t2.links if ln.id in ("A->B", "C->B")] == [3.0, 7]


@pytest.mark.parametrize("cap", [0.0, -1.0, math.nan, math.inf, True, "7", None])
def test_with_capacities_still_checks_each_override(triangle, cap):
    with pytest.raises(ModelError, match="finite capacity_mbps > 0"):
        triangle.with_capacities({"A->B": cap})


def test_with_capacities_rejects_an_unknown_link(triangle):
    with pytest.raises(ModelError, match="unknown link id"):
        triangle.with_capacities({"A->D": 1.0})


def test_topology_json_round_trip(triangle):
    obj = triangle.to_json_dict()
    for e in obj["links"]:
        e["directed"] = True
    t2 = Topology.from_json_dict(obj)
    assert sorted(ln.id for ln in t2.links) == sorted(ln.id for ln in triangle.links)
    assert t2.nodes == triangle.nodes


def test_topology_json_round_trip_unpatched(triangle):
    # to_json_dict marks its links directed, so from_json_dict reads them back
    # one way each instead of expanding them into duplicates.
    obj = triangle.to_json_dict()
    assert obj["directed"] is True
    t2 = Topology.from_json_dict(obj)
    assert t2.links == triangle.links
    assert t2.nodes == triangle.nodes and t2.name == triangle.name
    assert t2.to_json_dict() == obj


def test_link_directed_flag_overrides_topology_default():
    obj = {
        "directed": True,
        "nodes": [{"id": "A", "kind": "site"}, {"id": "B", "kind": "site"}],
        "links": [{"src": "A", "dst": "B", "capacity_mbps": 5, "directed": False}],
    }
    t = Topology.from_json_dict(obj)
    assert t.link("A->B") and t.link("B->A")


def test_undirected_json_edges_expand_both_ways():
    obj = {
        "name": "t",
        "nodes": [{"id": "A", "kind": "site"}, {"id": "B", "kind": "site"}],
        "links": [{"src": "A", "dst": "B", "capacity_mbps": 5}],
    }
    t = Topology.from_json_dict(obj)
    assert t.link("A->B") and t.link("B->A")


def test_a_capacity_is_stored_as_a_float_so_cached_topologies_write_one_json():
    # (name, 30, 10) and (name, 30.0, 10.0) are one cache key, so whichever call
    # comes first builds the topology that both get.
    link = Link("x", "A", "B", 5)
    assert type(link.capacity_mbps) is float and link.capacity_mbps == 5.0
    with pytest.raises(ModelError, match="finite capacity_mbps > 0"):
        Link("x", "A", "B", True)
    texts = []
    for speeds in (((30, 10), (30.0, 10.0)), ((30.0, 10.0), (30, 10))):
        scenarios.bundled_with_sites.cache_clear()
        texts += [json.dumps(scenarios.bundled_with_sites("btn", *s).to_json_dict()) for s in speeds]
    scenarios.bundled_with_sites.cache_clear()
    assert len(set(texts)) == 1 and '"capacity_mbps": 10.0' in texts[0]


# -- piecewise-linear utilities ---------------------------------------------


def test_linear_utility():
    u = PiecewiseLinearUtility.linear(0.2)
    assert u.value(5.0) == pytest.approx(1.0)
    assert u.is_linear_through_origin()


def test_from_points_builds_continuation_pieces():
    u = PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)])
    assert u.value(3.0) == pytest.approx(0.6)
    assert u.value(5.0) == pytest.approx(0.64)


def test_upward_jump_belongs_to_lower_piece():
    # Pieces are right-closed: at a breakpoint the lower piece supplies the value.
    u = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0), (2.0, 0.0, 1.0)])
    assert u.value(2.0) == pytest.approx(0.0)
    assert u.value(2.0 + 1e-9) == pytest.approx(1.0)


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
    assert u.value(x) == pytest.approx(slope * x, rel=1e-12)


def test_traffic_class_json_round_trip_and_default_sessions():
    u = PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)])
    c = TrafficClass("k", "A", "B", 3, u)
    assert TrafficClass.from_json_dict(c.to_json_dict()) == c
    obj = {"id": "k", "src": "A", "dst": "B", "utility": {"linear": 0.2}}
    assert TrafficClass.from_json_dict(obj).max_sessions == 1
    for bad in (2.5, True, -1):
        with pytest.raises(ModelError, match="integer max_sessions >= 0"):
            TrafficClass.from_json_dict(obj | {"max_sessions": bad})


@pytest.mark.parametrize("a, b", [(INF, 0.0), (0.1, math.nan), (math.nan, 0.0)])
def test_utility_rejects_non_finite_slope_or_intercept(a, b):
    with pytest.raises(ModelError, match="slope and intercept must be finite"):
        PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (1.0, a, b)])


def test_utilities_and_classes_are_read_only():
    c = TrafficClass("k", "A", "B", 3, PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)]))
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.max_sessions = 99
    with pytest.raises(AttributeError):
        c.utility.pieces.append(c.utility.pieces[-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        c.utility.pieces = ()
    assert c.max_sessions == 3 and len(c.utility.pieces) == 2
    assert c.utility == PiecewiseLinearUtility(list(c.utility.pieces))


def test_cumulative_utility_weights_by_sessions():
    u = PiecewiseLinearUtility.linear(0.5)
    classes = [TrafficClass("k", "A", "B", 4, u)]
    assert cumulative_utility(classes, {"k": 3}, {"k": 2.0}) == pytest.approx(3.0)


# -- routes -----------------------------------------------------------------


def _cls(src, dst):
    return TrafficClass("k", src, dst, 1, PiecewiseLinearUtility.linear(1.0))


def test_shortest_leg_prefers_fewest_links(triangle):
    assert shortest_leg(triangle, "A", "C") == ["A->C"]


def test_out_links_are_sorted_by_far_end():
    topo = Topology("t", sites("A", "B", "C", "D"), [L("A", "D"), L("A", "B"), L("C", "A"), L("A", "C")])
    assert [ln.id for ln in topo.out_links["A"]] == ["A->B", "A->C", "A->D"]
    assert topo.out_links["B"] == () and [ln.id for ln in topo.out_links["C"]] == ["C->A"]


def _oracle_legs(topology):
    """For every ordered pair, the smallest node sequence among all shortest
    paths, as link ids (None if there is no path).

    Hop distances come from Floyd-Warshall; every shortest path is then
    enumerated by a depth-first search that only steps closer to ``dst``.
    """
    nodes = sorted(topology.nodes)
    dist = {(a, b): 0 if a == b else INF for a in nodes for b in nodes}
    for ln in topology.links:
        dist[ln.src, ln.dst] = 1
    for k in nodes:
        for a in nodes:
            for b in nodes:
                dist[a, b] = min(dist[a, b], dist[a, k] + dist[k, b])
    by_pair = {(ln.src, ln.dst): ln.id for ln in topology.links}

    def shortest_paths(seq, dst):
        if seq[-1] == dst:
            yield seq
        for v in nodes:
            if (seq[-1], v) in by_pair and dist[v, dst] == dist[seq[-1], dst] - 1:
                yield from shortest_paths(seq + [v], dst)

    legs = {}
    for src in nodes:
        for dst in nodes:
            if src != dst and dist[src, dst] < INF:
                paths = list(shortest_paths([src], dst))
                assert all(len(p) - 1 == dist[src, dst] == len(set(p)) - 1 for p in paths)
                best = min(paths)
                legs[src, dst] = [by_pair[a, b] for a, b in zip(best, best[1:])]
            elif src != dst:
                legs[src, dst] = None
    return legs


def _random_digraph(seed):
    rng = random.Random(seed)
    # Ids past 9 make string order differ from numeric order ("v10" < "v2").
    names = [f"v{i}" for i in rng.sample(range(14), rng.randint(2, 9))]
    density = rng.uniform(0.1, 0.6)
    links = [L(a, b) for a in names for b in names if a != b and rng.random() < density]
    return Topology(f"r{seed}", sites(*names), links)


def _bundled(name, with_sites):
    topo = load_bundled_topology(name)
    topo = add_sites(topo, uplink_mbps=30.0, core_mbps=10.0) if with_sites else topo
    return Topology(topo.name, topo.nodes, topo.links)  # its own memos, searched afresh


@pytest.mark.parametrize(
    "topology",
    [pytest.param(_random_digraph(seed), id=f"random-{seed}") for seed in range(60)]
    + [pytest.param(_bundled(name, with_sites), id=f"{name}-sites-{with_sites}")
       for name in ("abilene", "btn") for with_sites in (False, True)],
)
def test_shortest_leg_matches_brute_force_oracle(topology):
    for (src, dst), leg in _oracle_legs(topology).items():
        assert shortest_leg(topology, src, dst) == leg, (src, dst)


@pytest.mark.parametrize("name", ["abilene", "btn"])
@pytest.mark.parametrize("with_sites", [False, True])
def test_memoised_legs_match_the_oracle_in_any_query_order(name, with_sites):
    oracle = _oracle_legs(_bundled(name, with_sites))
    pairs = sorted(oracle)
    random.Random(5).shuffle(pairs)
    shuffled = _bundled(name, with_sites)
    assert {pair: shortest_leg(shuffled, *pair) for pair in pairs} == oracle
    # Every source's tree is searched, in reverse order, before any leg is read.
    late = _bundled(name, with_sites)
    for src in sorted(late.nodes, reverse=True):
        late.tree(src)
    assert {pair: shortest_leg(late, *pair) for pair in sorted(oracle)} == oracle
    # The memo is not a field: equality and JSON do not see it.
    assert [f.name for f in dataclasses.fields(late)] == ["name", "nodes", "links"]
    assert late == _bundled(name, with_sites) and late.to_json_dict() == _bundled(name, with_sites).to_json_dict()


@pytest.mark.parametrize("with_sites", [False, True])
def test_a_capacity_variant_has_the_same_legs_and_routes(with_sites):
    topo = _bundled("abilene", with_sites)
    variant = topo.with_capacities({ln.id: 0.5 for ln in topo.links[::3]})
    nodes = sorted(topo.nodes)
    # The variant shares the memos, so it is checked against a build of its own links.
    assert variant._trees is topo._trees and variant._simple is topo._simple
    fresh = Topology(variant.name, variant.nodes, variant.links)
    for a in nodes:
        for b in nodes:
            assert shortest_leg(variant, a, b) == shortest_leg(fresh, a, b), (a, b)
    ends = topo.sites() if with_sites else nodes
    for a, b in zip(ends, ends[3:] + ends[:3]):
        assert enumerate_paths(variant, a, b, 2) == enumerate_paths(fresh, a, b, 2), (a, b)


def test_shortest_leg_unreachable_and_same_node():
    topo = Topology("t", sites("A", "B", "C"), [L("A", "B"), L("C", "B")])
    assert shortest_leg(topo, "A", "C") is None
    assert shortest_leg(topo, "B", "A") is None
    assert shortest_leg(topo, "A", "A") == []
    assert shortest_leg(topo, "A", "B") == ["A->B"]


def test_enumerate_paths_direct_first(triangle):
    routes = enumerate_paths(triangle, "A", "C", 2)
    assert routes[0] == ("A->C",)
    assert ("A->B", "B->C") in routes


def test_enumerate_paths_respects_hop_limit(triangle):
    routes = enumerate_paths(triangle, "A", "C", 1)
    assert routes == [("A->C",)]


def test_a_route_keeps_its_place_as_the_hop_limit_grows():
    # A->B->C->D is built at two hops, by the relay C (A->C is A->B->C), and
    # again at three, by B and C.  It is listed at its first sequence, the
    # two-hop one, so it is second in both lists.
    topo = Topology.from_json_dict({
        "name": "five",
        "nodes": [{"id": s, "kind": "site"} for s in "ABCDE"],
        "links": [{"src": a, "dst": b, "capacity_mbps": 10} for a, b in ("AB", "BC", "CD", "AD", "AE", "ED")],
    })
    expected = [("A->D",), ("A->B", "B->C", "C->D"), ("A->E", "E->D")]
    assert enumerate_paths(topo, "A", "D", 2) == expected
    assert enumerate_paths(topo, "A", "D", 3) == expected


@pytest.mark.parametrize("seed", range(60))
def test_route_lists_are_prefix_closed_in_the_hop_limit(seed):
    # 3-6 sites, each directed link present with probability 1/2.
    rng = random.Random(seed)
    names = "ABCDEF"[: 3 + seed % 4]
    links = [L(a, b) for a in names for b in names if a != b and rng.random() < 0.5]
    topo = Topology(f"r{seed}", sites(*names), links)
    for a in names:
        for b in names.replace(a, ""):
            lists = [enumerate_paths(topo, a, b, h) for h in range(1, 5)]
            for short, long in zip(lists, lists[1:]):
                assert long[: len(short)] == short, (a, b)


# Per hop limit 1-4: the length and a sha256 prefix of the JSON of
# enumerate_paths' list, recorded from the depth-first enumeration that
# preceded the breadth-first one.
ABILENE_ROUTE_LISTS = {
    ("s-Atlanta", "s-Chicago"): [(1, "0e4913194630d978"), (10, "cb529c0dac6ba0a1"),
                                 (79, "40c4de35773a4c35"), (452, "05e1d6e6f3a64587")],
    ("s-Seattle", "s-NewYork"): [(1, "09605bd4ad19b71c"), (10, "ec4da3f6ae5d42a0"),
                                 (62, "f6264f9cbb384ad7"), (317, "2f41dc63e1a81e9c")],
    ("s-Denver", "s-Houston"): [(1, "a0285707eb62fa8d"), (10, "11f36990c8321d7e"),
                                (73, "dc80e77c8969b4b3"), (408, "60d4f4b9e0e5afc9")],
}


@pytest.mark.parametrize("pair", sorted(ABILENE_ROUTE_LISTS))
def test_abilene_route_lists_are_unchanged(pair):
    topo = add_sites(load_bundled_topology("abilene"), uplink_mbps=30.0, core_mbps=10.0)
    got = []
    for h in range(1, 5):
        routes = [list(r) for r in enumerate_paths(topo, *pair, h)]
        got.append((len(routes), hashlib.sha256(json.dumps(routes).encode()).hexdigest()[:16]))
    assert got == ABILENE_ROUTE_LISTS[pair]


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


def test_a_route_given_as_a_list_is_checked_and_remembered(triangle):
    with pytest.raises(ModelError, match="flow 'f': route repeats a link"):
        Flow("f", "k", ["A->B", "B->A", "A->B", "B->C"]).validate(triangle, _cls("A", "C"))
    with pytest.raises(ModelError, match="flow 'f': route revisits a site"):
        Flow("f", "k", ["A->B", "B->A", "A->C"]).validate(triangle, _cls("A", "C"))
    with pytest.raises(ModelError, match="flow 'f': empty route"):
        Flow("f", "k", []).validate(triangle, _cls("A", "C"))
    assert not triangle._simple  # a route that fails is not remembered
    Flow("f", "k", ["A->B", "B->C"]).validate(triangle, _cls("A", "C"))
    assert triangle._simple == {("A->B", "B->C")}
    # A known route is still checked against its class's endpoints.
    with pytest.raises(ModelError, match="flow 'f': route does not join class endpoints"):
        Flow("f", "k", ("A->B", "B->C")).validate(triangle, _cls("B", "C"))


def test_the_route_memo_is_shared_only_by_copies_of_one_layout():
    nodes = {"A": "site", "B": "router", "C": "site"}
    links = [L("A", "B"), L("B", "C"), L("C", "B")]
    route = ("A->B", "B->C", "C->B")  # crosses router B twice
    topo = Topology("t", nodes, links)
    Flow("f", "k", route).validate(topo, _cls("A", "B"))
    variant = topo.with_capacities({"A->B": 1.0})
    assert variant._simple is topo._simple and route in variant._simple
    assert variant.links is not topo.links and variant.nodes is not topo.nodes
    # The same links with B a site: the route revisits a site, whatever the first memo holds.
    other = Topology("t", {**nodes, "B": "site"}, links)
    with pytest.raises(ModelError, match="route revisits a site"):
        Flow("f", "k", route).validate(other, _cls("A", "B"))
    assert route not in other._simple


def test_sample_random_paths_deterministic(triangle):
    routes = enumerate_paths(triangle, "A", "C", 2)[1:]
    a = sample_random_paths(routes, 1, seed=42)
    b = sample_random_paths(routes, 1, seed=42)
    assert a == b


def test_sample_random_paths_k_exceeding_pool_returns_all(triangle):
    routes = enumerate_paths(triangle, "A", "C", 2)[1:]
    assert sorted(sample_random_paths(routes, 99, seed=1)) == sorted(routes)
