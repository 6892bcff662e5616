"""Scenario engine, GraphML ingestion, and study tests."""
import hashlib
import json
import random
from collections import Counter
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from overlaylab import model, scenarios
from overlaylab.model import ModelError, Topology
from overlaylab.planner import PlanningProblem
from overlaylab.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    ScenarioError,
    add_sites,
    build_paper_scenario,
    bundled_with_sites,
    demand_sweep,
    hop_study,
    load_bundled_topology,
    parse_graphml,
    random_path_study,
    robustness_sweep,
    run_experiment,
)
from overlaylab.sim import DEFAULT_DT, Event
from overlaylab.weights import DEFAULT_GAIN, TransportConfig

GRAPHML = """<?xml version="1.0" encoding="UTF-8"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <graph id="G" edgedefault="undirected">
    <node id="n0"/><node id="n1"/><node id="n2"/>
    <edge source="n0" target="n1"/>
    <edge source="n1" target="n2"/>
  </graph>
</graphml>
"""


def test_parse_graphml_counts():
    topo = parse_graphml(GRAPHML)
    assert len(topo.nodes) == 3
    assert len(topo.links) == 4  # undirected edges expand both ways
    assert all(k == "router" for k in topo.nodes.values())


def test_parse_graphml_rejects_duplicate_edge():
    bad = GRAPHML.replace(
        '<edge source="n1" target="n2"/>',
        '<edge source="n1" target="n2"/><edge source="n0" target="n1"/>',
    )
    with pytest.raises(ScenarioError):
        parse_graphml(bad)


def test_parse_graphml_rejects_self_loop():
    bad = GRAPHML.replace(
        '<edge source="n1" target="n2"/>', '<edge source="n1" target="n1"/>'
    )
    with pytest.raises(ScenarioError):
        parse_graphml(bad)


def test_bundled_topologies_load():
    ab = load_bundled_topology("abilene")
    assert len(ab.nodes) == 11
    assert len(ab.links) == 28
    btn = load_bundled_topology("btn")
    assert len(btn.nodes) == 16
    assert len(btn.links) == 48


def test_unknown_bundled_topology():
    with pytest.raises(ScenarioError):
        load_bundled_topology("nope")


# sha256 of each scenario's to_json(), recorded before bundled topologies were
# cached and scenarios kept their problem: neither may change a byte.
SCENARIO_JSON = {
    ("triangle-basic", 7): "fd0b20c1848b3a961fafc09ad1029de23b73762b7520c203a9433e82354b00ce",
    ("failure-triangle", 7): "bb1c0f43bcaea3e64157a055bffb1ed0dd48367b54b0ab992659f8e8fa1779a1",
    ("failure-large", 7): "31ee596b01e95b560bd4306832a81bde9c04fe38bfd8b72c6bee704ea52a8a58",
    ("failure-large", 33): "d7ab9e1b39b15d7fe35089ecb32fd4f144a16ed5f2c20596db59cb1167c7a672",
    ("failure-large", 58): "4247828f2918446ed8a40c852513e33d849f8285973f85a378579b13d010fcb1",
    ("hop-study", 7): "0b029a2158133d9fce06584f122aaa58b9c1e88892ba42361e79b80f4929be49",
    ("hop-study", 11): "8277137e2265a7fc79346412c11c239b1b52b13b35849d946c0d5855bc8ba0ed",
}


@pytest.mark.parametrize(("name", "seed"), sorted(SCENARIO_JSON))
def test_paper_scenario_json_is_pinned(name, seed):
    text = build_paper_scenario(name, seed=seed).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == SCENARIO_JSON[name, seed]


def test_cached_topologies_hand_out_fresh_containers():
    # Loads share one topology, so its containers are read-only: no caller can change another's.
    base = load_bundled_topology("abilene").to_json_dict()
    built = {name: build_paper_scenario(name, seed=5) for name in ("failure-large", "hop-study")}
    texts = {name: sc.to_json() for name, sc in built.items()}
    for topo in (load_bundled_topology("abilene"), *(sc.topology for sc in built.values())):
        with pytest.raises(TypeError):
            topo.nodes[sorted(topo.nodes)[0]] = "site"
        with pytest.raises(TypeError):
            topo.nodes["extra"] = "router"
        with pytest.raises(AttributeError):
            topo.links.pop()
        with pytest.raises(AttributeError):
            topo.links.append(topo.links[0])
    assert load_bundled_topology("abilene").to_json_dict() == base
    for name, text in texts.items():
        assert build_paper_scenario(name, seed=5).to_json() == text
    for _ in range(2):  # a failed load is not remembered as a topology
        with pytest.raises(ScenarioError, match="no bundled topology named 'nope'"):
            load_bundled_topology("nope")


def test_a_loaded_topology_has_memos_of_its_own():
    topo = load_bundled_topology("abilene")
    a, b = topo.links[0].src, topo.links[0].dst
    back = next(ln for ln in topo.links if ln.src == b and ln.dst == a)
    route = (topo.links[0].id, back.id)  # a -> b -> a: simple only while a is a router
    assert model._route_fault(topo, route) is None
    assert route in topo._simple
    with pytest.raises(TypeError):  # the memo holds because a node's kind cannot change
        topo.nodes[a] = "site"
    assert model._route_fault(load_bundled_topology("abilene"), route) is None
    fresh = Topology(topo.name, {**topo.nodes, a: "site"}, topo.links)
    assert fresh._simple is not topo._simple and route not in fresh._simple
    assert model._route_fault(fresh, route) == "route revisits a site"


def test_topologies_and_problems_are_read_only_and_loads_are_shared():
    topo = load_bundled_topology("abilene")
    assert load_bundled_topology("abilene") is topo
    scenario = build_paper_scenario("failure-large", seed=5)
    shared = bundled_with_sites("abilene", 10.0, 10.0)
    assert scenario.topology is shared is build_paper_scenario("failure-large").topology
    classes, flows = list(scenario.classes), {k: list(v) for k, v in scenario.flows.items()}
    del flows[classes[-1].id]  # a class without flows
    before = (list(classes), {k: list(v) for k, v in flows.items()})
    problem = PlanningProblem(scenario.topology, classes, flows)
    assert (classes, flows) == before and problem.flows[classes[-1].id] == ()
    assert problem.classes is not classes and problem.flows is not flows
    assert not any(problem.flows[k] is fl for k, fl in flows.items())
    flows[classes[0].id].append(flows[classes[0].id][0])  # leaves the problem's layout as it is
    assert len(problem.all_flows()) == problem.incidence.shape[1]
    for table in (topo.nodes, problem.flows):
        with pytest.raises(TypeError):
            table["extra"] = ()
    for seq in (topo.links, problem.classes, problem.flows[classes[0].id]):
        with pytest.raises(AttributeError):
            seq.append(seq[0])
    for value, name in ((topo, "nodes"), (topo, "links"), (problem, "classes"), (problem, "flows")):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    truth = scenario.topology
    variant = truth.with_capacities({truth.links[0].id: 1.0})
    assert variant._trees is truth._trees and variant._simple is truth._simple


@pytest.fixture
def full_route_checks(monkeypatch):
    """Counts the routes ``_route_fault`` checks in full, not found in a topology's memo."""
    counts = Counter()
    fault = model._route_fault

    def counting_fault(topology, route):
        counts["full"] += not (route and tuple(route) in topology._simple)
        return fault(topology, route)

    monkeypatch.setattr(model, "_route_fault", counting_fault)
    return counts


def test_a_paper_pipeline_set_up_parses_once_and_checks_each_route_once(monkeypatch, full_route_checks):
    # The scenarios of the benchmark's paper-pipeline set-up at seed 3, from cold caches.
    scenarios.load_bundled_topology.cache_clear()
    scenarios.bundled_with_sites.cache_clear()
    counts = Counter()
    parse, post_init = scenarios.parse_graphml, PlanningProblem.__post_init__
    monkeypatch.setattr(scenarios, "parse_graphml", lambda text: counts.update(["parses"]) or parse(text))
    monkeypatch.setattr(PlanningProblem, "__post_init__", lambda self: counts.update(["builds"]) or post_init(self))
    built = [build_paper_scenario(name) for name in ("triangle-basic", "failure-triangle")]
    rng = random.Random(3)
    for name, count in (("failure-large", 16), ("hop-study", 6)):
        built += [build_paper_scenario(name, seed=m) for m in rng.sample(range(10**6), count)]
    assert counts["parses"] == 1  # 22 when every scenario parsed the file
    assert full_route_checks["full"] <= 700  # 2216 when each route was checked twice per scenario
    assert counts["builds"] == len(built) == 24  # one validated problem per scenario


def test_a_capacity_variant_problem_equals_a_build_with_its_own_memos():
    scenario = build_paper_scenario("failure-large", seed=33)
    dead = {e.payload["link"]: e.payload["capacity_mbps"] for e in scenario.events if e.kind == "set-capacity"}
    flows = {k: list(v) for k, v in scenario.flows.items()}
    for topo in (scenario.topology, scenario.topology.with_capacities(dead)):  # the truth, the re-plan's
        shared = scenario.problem(topo)
        fresh = PlanningProblem(Topology(topo.name, dict(topo.nodes), list(topo.links)), scenario.classes, flows)
        assert topo._simple is scenario.topology._simple and fresh.topology._simple is not topo._simple
        assert shared == fresh
        assert shared.link_ids == fresh.link_ids and shared.all_flows() == fresh.all_flows()
        for table in ("capacity", "flow_class", "incidence"):
            a, b = getattr(shared, table), getattr(fresh, table)
            assert a.dtype == b.dtype and np.array_equal(a, b) and not a.flags.writeable, table


def test_a_topology_with_other_links_is_checked_in_full(full_route_checks):
    scenario = build_paper_scenario("failure-large", seed=33)
    topo = scenario.topology
    routes = {f.route for fl in scenario.flows.values() for f in fl}
    # The same links in a new topology: no memo is shared, so every route is checked once.
    rebuilt = Topology(topo.name, dict(topo.nodes), list(topo.links))
    full_route_checks.clear()
    scenario.problem(rebuilt)
    scenario.problem(rebuilt)
    assert full_route_checks["full"] == len(routes)
    used = scenario.flows[scenario.classes[0].id][0].route[-1]
    missing = Topology(topo.name, dict(topo.nodes), [ln for ln in topo.links if ln.id != used])
    with pytest.raises(ModelError, match=f"unknown link id '{used}'"):
        scenario.problem(missing)


def test_a_scenario_checks_its_routes_in_full_only_at_construction(full_route_checks):
    scenario = build_paper_scenario("failure-large", seed=33)
    full_route_checks.clear()
    run_experiment(scenario)
    assert full_route_checks["full"] == 0  # 150 when the estimate, the truth and the re-plan each checked 50
    robustness_sweep((1.0, 5.0))
    assert full_route_checks["full"] == 2  # its scenario's two routes, as it is built; 8 when every truth checked


def test_scenarios_and_events_are_read_only_after_their_check():
    events = [Event(10.0, "set-capacity", {"link": "A->B", "capacity_mbps": 4.0})]
    triangle = build_paper_scenario("triangle-basic")
    classes, flows = list(triangle.classes), {k: list(v) for k, v in triangle.flows.items()}
    overrides = {"A->B": 3.0}
    scenario = Scenario("toy", scenarios.triangle_topology(), classes, flows, overrides, events)
    text = scenario.to_json()
    # Edits to the caller's containers do not reach the checked scenario.
    events.append(Event(500.0, "set-capacity", {"link": "A->B", "capacity_mbps": 3.0}))
    classes.pop()
    flows["ac"].pop()
    overrides["A->B"] = 0.5
    assert scenario.to_json() == text
    # A pinned plan and an install's rates are read-only copies too.
    pinned = build_paper_scenario("demand-sweep").pinned_plan
    plan_text = pinned.to_json()
    rates = {"ac:0": 1.0}
    install = Event(5.0, "install-config", {"config": TransportConfig({"ac:0": 1.0}, {"ac": 1}), "rates": rates})
    rates["ac:0"] = 9.0
    rates["zz"] = 7.0
    assert install.payload["rates"] == {"ac:0": 1.0}
    for value in (scenario, scenario.events[0], pinned, install):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
    for seq in (scenario.events, scenario.classes, scenario.flows["ac"]):
        with pytest.raises(AttributeError):
            seq.append(seq[0])
    with pytest.raises(TypeError):
        scenario.flows["ac"] = ()
    with pytest.raises(TypeError):
        scenario.estimate_overrides["A->B"] = 0.5
    for mapping, key, value in ((scenario.events[0].payload, "capacity_mbps", 0.0), (pinned.n, "nope", 3),
                                (pinned.rates, "zz:0", 1.0), (pinned.duals, "A->B", 1.0),
                                (install.payload, "rates", {}), (install.payload["rates"], "ac:0", 9.0)):
        with pytest.raises(TypeError):
            mapping[key] = value
    assert scenario.to_json() == text and pinned.to_json() == plan_text
    assert install.payload["rates"] == {"ac:0": 1.0}


@pytest.mark.parametrize("name", ["robustness-sweep", "failure-large"])
def test_a_scenario_keeps_the_estimate_problem_it_checked(name):
    scenario = build_paper_scenario(name)
    kept = scenario.problem()
    assert scenario.problem() is kept
    assert kept.classes is scenario.classes and kept.flows is scenario.flows
    estimate = scenario.topology.with_capacities(dict(scenario.estimate_overrides))
    fresh = PlanningProblem(estimate, list(scenario.classes), {k: list(v) for k, v in scenario.flows.items()})
    assert kept == fresh and kept.link_ids == fresh.link_ids
    for table in ("capacity", "flow_class", "incidence"):
        assert np.array_equal(getattr(kept, table), getattr(fresh, table)), table
    assert scenario.problem(scenario.topology) is not kept  # a topology still builds a variant


@pytest.fixture
def problem_builds(monkeypatch):
    """Counts the ``PlanningProblem``s built."""
    counts = Counter()
    post_init = PlanningProblem.__post_init__
    monkeypatch.setattr(PlanningProblem, "__post_init__", lambda self: counts.update(["builds"]) or post_init(self))
    return counts


@pytest.mark.parametrize(("name", "builds"), [("triangle-basic", 1), ("failure-large", 2)])
def test_a_run_builds_the_truth_and_each_replan_only(problem_builds, name, builds):
    scenario = build_paper_scenario(name)
    problem_builds.clear()
    run_experiment(scenario)
    assert problem_builds["builds"] == builds  # 2 and 3 when each run built its estimate again


@pytest.mark.parametrize(("sweep", "builds"), [(demand_sweep, 2), (robustness_sweep, 11)])
def test_a_sweep_builds_its_scenario_and_each_distinct_truth_once(monkeypatch, problem_builds, sweep, builds):
    # Stepping builds no problem, so the batch is not run.
    monkeypatch.setattr(scenarios, "run_batch", lambda sims, duration: None)
    sweep()
    assert problem_builds["builds"] == builds  # 22 and 12 with the estimate rebuilt and one truth per point


def test_an_empty_sweep_has_no_rows():
    assert demand_sweep(()) == [] and robustness_sweep(()) == []


def test_add_sites_attaches_one_site_per_router():
    base = parse_graphml(GRAPHML)
    topo = add_sites(base, uplink_mbps=30.0, core_mbps=10.0)
    sites = [n for n, k in topo.nodes.items() if k == "site"]
    assert sorted(sites) == ["s-n0", "s-n1", "s-n2"]
    assert topo.link("s-n0->n0").capacity_mbps == 30.0
    assert topo.link("n0->n1").capacity_mbps == 10.0


@pytest.mark.parametrize("name", PAPER_SCENARIOS)
def test_paper_scenarios_build_and_round_trip(name):
    s = build_paper_scenario(name)
    again = Scenario.from_json_dict(s.to_json_dict())
    assert again.to_json() == s.to_json()


def test_scenario_numbers_default_when_absent():
    obj = build_paper_scenario("triangle-basic").to_json_dict()
    for key in ("duration", "dt", "gamma"):
        del obj[key]
    s = Scenario.from_json_dict(obj)
    assert (s.duration, s.dt, s.gamma) == (200.0, DEFAULT_DT, DEFAULT_GAIN)


def test_scenario_from_json_leaves_its_input_alone():
    obj = build_paper_scenario("triangle-basic").to_json_dict()
    before = json.dumps(obj, sort_keys=True)
    Scenario.from_json_dict(obj)
    assert json.dumps(obj, sort_keys=True) == before


@pytest.mark.parametrize(
    "kind, payload, match",
    [
        ("no-such-kind", {}, "unknown event kind"),
        ("set-capacity", {"link": "A->B", "capacity_mbps": 0}, "capacity_mbps > 0"),
        ("set-capacity", {"link": "A->B", "capacity_mbps": float("nan")}, "capacity_mbps > 0"),
        ("set-sessions", {"class": "bc", "n": -1}, "integer n >= 0"),
        ("set-sessions", {"class": "bc", "n": 2.5}, "integer n >= 0"),
        ("set-sessions", {"class": "bc", "n": True}, "integer n >= 0"),
        ("set-sessions", {"n": 1}, "lacks class"),
        ("set-sessions", {"class": "typo", "n": 1}, "unknown class 'typo'"),
        ("rerun-planner", {"knowledge": "oracle"}, "knowledge"),
        ("install-config", {"config": {"weights": {}, "sessions": {}, "gain": 0.001}}, "TransportConfig"),
        # A key the kind does not read raises instead of being ignored.
        ("set-capacity", {"link": "A->B", "capacity_mbps": 4.0, "rates": {}}, "unread key"),
        ("set-sessions", {"class": "bc", "n": 1, "reset_rates": True}, "unread key"),
        ("rerun-planner", {"knowledge": "stale", "gain": 0.1}, "unread key"),
    ],
)
def test_scenario_rejects_bad_event(kind, payload, match):
    obj = build_paper_scenario("triangle-basic").to_json_dict()
    obj["events"] = [{"t": 10.0, "kind": kind, "payload": payload}]
    with pytest.raises(ValueError, match=match):
        Scenario.from_json_dict(obj)


def test_install_config_event_cannot_be_written_as_json():
    # run_experiment makes install-config events from re-plans; a scenario,
    # and so its JSON, cannot hold one.
    config = TransportConfig(weights={"A|C:0": 1.0}, sessions={"A|C": 1})
    with pytest.raises(ScenarioError, match=r"event #0 \(install-config at t=10.0\)"):
        replace(build_paper_scenario("triangle-basic"), events=[Event(10.0, "install-config", {"config": config})])


def test_unknown_scenario_name():
    with pytest.raises(ScenarioError):
        build_paper_scenario("missing-scenario")


def test_triangle_experiment_hits_planned_targets():
    result = run_experiment(build_paper_scenario("triangle-basic"))
    lines = result.summary_csv().strip().split("\n")
    assert lines[0] == "path,target_mbps,actual_mbps"
    rows = {r.split(",")[0]: r.split(",")[1:] for r in lines[1:]}
    assert rows["A|C"] == ["10", "10"]
    assert rows["A|B|C"] == ["5", "5"]


@pytest.mark.parametrize("name, seed", [("failure-triangle", 7)] + [("failure-large", s) for s in (33, 36, 42, 58)])
def test_failure_scenario_has_three_phases(name, seed):
    result = run_experiment(build_paper_scenario(name, seed=seed))
    lines = result.phase_csv().strip().split("\n")
    assert lines[0] == "phase_start,phase_end,mean_utility"
    assert len(lines) == 4
    # Re-planning wins back utility, but not all of it: pre-failure > re-planned > failed.
    pre, failed, replanned = (float(line.split(",")[2]) for line in lines[1:])
    assert pre > replanned > failed
    if name == "failure-triangle":
        # The drop at t = 60 and the re-plan at t = 140 land on their steps, and
        # every sample on a whole second.  The sample at each event reads the
        # state before it, so it counts in the phase that ends there.
        assert result.trace.times == [float(t) for t in range(221)]
        assert Counter(result.trace.since) == {0.0: 61, 60.0: 80, 140.0: 80}
        assert lines[1:] == ["0,60,3", "60,140,2.1995574", "140,220,2.59882919"]


def test_an_off_grid_event_leaves_the_sample_before_it_in_the_phase_it_ends():
    # The drop at t = 60.995 applies after step 6100 at dt 0.01, so the t = 61
    # sample reads the state before it and belongs to the first phase.
    drop = Event(60.995, "set-capacity", {"link": "A->B", "capacity_mbps": 1.0})
    result = run_experiment(replace(build_paper_scenario("triangle-basic"), events=[drop]))
    trace = result.trace
    assert trace.times[61] == 61.0 and trace.utility[61] == 3.0
    assert trace.since == [0.0] * 62 + [60.995] * 139
    after = trace.utility[62:]
    assert result.phase_utilities == [(0.0, 60.995, 3.0), (60.995, 200.0, sum(after) / len(after))]


# sha256 of each paper scenario's (seed 7) trace, summary and phase CSVs, and of
# repr() of each sweep's rows.  Recorded when a run's clock became whole steps
# from its start; failure-large's CSVs and the sweep rows kept the bytes they
# had when each capacity event still built its own copy of the truth topology.
# The two failure scenarios' phase CSVs moved when the sample at each event's
# time came to count in the phase that ends there.
OUTPUT_PINS = {
    "triangle-basic": ("72706e9055822661f14fc7638b61dd8193fd0fb8503694043f548c1f621c8453",
                       "0be34007b823989ba7687f6eaff0371def315036415a8f6c6a2de0d13c369038",
                       "bb2cf33526152fd9de97567136115b233f1a837ab83b22bb4cf0a46958700dd9"),
    "failure-triangle": ("9e8919fb77428ad147d37379d581df38170b2ededbc5c4670a46dfdde2c36b2a",
                         "68884d9c319e1ea4206a2b9c83ed1acf32f24c9100be3abaad20c5be64a13c5e",
                         "0cc7f74eb1065f94ef075c8f756344806a05186272773e60ba0098abf453c00e"),
    "hop-study": ("5f6b9b7296c5bf3f5c8b6fac35e54f687135a40f720c0f6d6f4e939890bb8c5a",
                  "879b88660f6222055d3dfc6ccefb6f384f98bac74254553f4f09be0fe41d1baf",
                  "31fa72c6f9a7b3815a0d1817ccb40c36567cbb3795e52fb2e98510c9e7ab9ce6"),
    "random-path-study": ("5f6b9b7296c5bf3f5c8b6fac35e54f687135a40f720c0f6d6f4e939890bb8c5a",
                          "879b88660f6222055d3dfc6ccefb6f384f98bac74254553f4f09be0fe41d1baf",
                          "31fa72c6f9a7b3815a0d1817ccb40c36567cbb3795e52fb2e98510c9e7ab9ce6"),
    "failure-large": ("8b365ce2843f254ec7c8bba6f84b8246451288f084b66721f710fdff38ba60fe",
                      "c2825a79ffd3528d0adf9adf75de56940f9ae785615a205cf3443f14f1c9c6fa",
                      "2893f8b5dbdca814817788810bde0702f8ec775351f571fa2e4f0fb0f82ae20f"),
    "robustness_sweep": ("bfbbfcc7cec4409f38cf9732f1d54cc1fbf9b0311d004034fffb6c6a8bb4ad77",),
    "demand_sweep": ("b7e19fad0dde60e805f37bd1713729b3252a3fd6f9aa50c6b0b025eb02fd4c4d",),
}


def sha256s(*texts):
    return tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts)


@pytest.mark.parametrize("name", sorted(OUTPUT_PINS))
def test_paper_outputs_are_pinned(name):
    if name.endswith("_sweep"):
        assert sha256s(repr(getattr(scenarios, name)())) == OUTPUT_PINS[name]
        return
    result = run_experiment(build_paper_scenario(name))
    assert sha256s(result.trace.to_csv(), result.summary_csv(), result.phase_csv()) == OUTPUT_PINS[name]


def test_failure_large_builds_one_truth_per_replan(monkeypatch):
    scenario = build_paper_scenario("failure-large")
    calls = []
    original = Topology.with_capacities
    monkeypatch.setattr(Topology, "with_capacities", lambda self, o: calls.append(o) or original(self, o))
    result = run_experiment(scenario)
    replans = sum(e.kind == "rerun-planner" for e in scenario.events)
    assert sum(e.kind == "set-capacity" for e in scenario.events) == 12 and replans == 1
    assert len(calls) <= 1 + replans  # the estimate, then one truth per re-plan
    assert sha256s(result.trace.to_csv(), result.summary_csv(), result.phase_csv()) == OUTPUT_PINS["failure-large"]


def test_experiment_determinism():
    a = run_experiment(build_paper_scenario("triangle-basic"))
    b = run_experiment(build_paper_scenario("triangle-basic"))
    assert a.trace.to_csv() == b.trace.to_csv()
    assert a.summary_csv() == b.summary_csv()


def test_hop_study_is_monotone():
    topo = add_sites(parse_graphml(GRAPHML), uplink_mbps=30.0, core_mbps=10.0)
    rows = hop_study({"toy": topo}, max_hops=3, seed=7)
    utils = [u for _, _, u in rows]
    assert utils == sorted(utils) or all(
        b >= a - 1e-9 for a, b in zip(utils, utils[1:])
    )


@pytest.mark.parametrize("hop_limits", [range(1, 1), range(1, 0), range(1, -1)])
def test_hop_study_rejects_an_empty_or_nonpositive_hop_range(hop_limits):
    # hop_study runs the limits range(1, max_hops + 1); each range here is empty.
    max_hops = hop_limits.stop - 1
    topo = add_sites(parse_graphml(GRAPHML), uplink_mbps=30.0, core_mbps=10.0)
    with pytest.raises(ScenarioError, match=f"max_hops must be >= 1, got {max_hops}"):
        hop_study({"toy": topo}, max_hops=max_hops)


def test_random_path_study_monotone_in_k():
    topo = add_sites(load_bundled_topology("abilene"), uplink_mbps=30.0, core_mbps=10.0)
    rows = random_path_study(topo, k_values=(0, 2), trials=2, seed=3)
    frac = dict(rows)
    assert 0.0 < frac[0] <= frac[2] <= 1.0 + 1e-9
