"""Scenario engine, GraphML ingestion, and study tests."""
import hashlib
import json
from dataclasses import replace

import pytest

from overlaylab.model import Topology
from overlaylab.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    ScenarioError,
    add_sites,
    build_paper_scenario,
    hop_study,
    load_bundled_topology,
    parse_graphml,
    random_path_study,
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
    config = TransportConfig(weights={"A|C:0": 1.0}, sessions={"A|C": 1})
    scenario = replace(
        build_paper_scenario("triangle-basic"),
        events=[Event(10.0, "install-config", {"config": config})],
    )
    with pytest.raises(ScenarioError, match=r"event #0 \(install-config at t=10.0\)"):
        scenario.to_json()


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


def test_failure_scenario_has_three_phases():
    result = run_experiment(build_paper_scenario("failure-triangle"))
    lines = result.phase_csv().strip().split("\n")
    assert lines[0] == "phase_start,phase_end,mean_utility"
    assert len(lines) == 4


# sha256 of failure-large's (seed 7) trace, summary and phase CSVs, recorded
# when each capacity event still built its own copy of the truth topology.
FAILURE_LARGE_CSVS = (
    "8b365ce2843f254ec7c8bba6f84b8246451288f084b66721f710fdff38ba60fe",
    "c2825a79ffd3528d0adf9adf75de56940f9ae785615a205cf3443f14f1c9c6fa",
    "ea78a2f7f36e29597ece9185f16f9cf8ae453815cca33c1f1e870b7d33a0426b",
)


def test_failure_large_builds_one_truth_per_replan(monkeypatch):
    scenario = build_paper_scenario("failure-large")
    calls = []
    original = Topology.with_capacities
    monkeypatch.setattr(Topology, "with_capacities", lambda self, o: calls.append(o) or original(self, o))
    result = run_experiment(scenario)
    replans = sum(e.kind == "rerun-planner" for e in scenario.events)
    assert sum(e.kind == "set-capacity" for e in scenario.events) == 12 and replans == 1
    assert len(calls) <= 1 + replans  # the estimate, then one truth per re-plan
    texts = (result.trace.to_csv(), result.summary_csv(), result.phase_csv())
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == FAILURE_LARGE_CSVS


def test_experiment_determinism():
    a = run_experiment(build_paper_scenario("triangle-basic"))
    b = run_experiment(build_paper_scenario("triangle-basic"))
    assert a.trace.to_csv() == b.trace.to_csv()
    assert a.summary_csv() == b.summary_csv()


def test_hop_study_is_monotone():
    topo = add_sites(parse_graphml(GRAPHML), uplink_mbps=30.0, core_mbps=10.0)
    rows = hop_study({"toy": topo}, hop_limits=(1, 2, 3), seed=7)
    utils = [u for _, _, u in rows]
    assert utils == sorted(utils) or all(
        b >= a - 1e-9 for a, b in zip(utils, utils[1:])
    )


@pytest.mark.parametrize("hop_limits", [(), (0, 1), (1, -2)])
def test_hop_study_rejects_an_empty_or_nonpositive_hop_range(hop_limits):
    topo = add_sites(parse_graphml(GRAPHML), uplink_mbps=30.0, core_mbps=10.0)
    with pytest.raises(ScenarioError, match="hop limits must be at least one value >= 1"):
        hop_study({"toy": topo}, hop_limits=hop_limits)


@pytest.mark.parametrize("hop_limits", [(2, 1), (2, 2)])
def test_hop_study_rejects_hop_limits_that_do_not_increase(hop_limits):
    # Unsorted limits would read as a planner fault ("utility decreased"),
    # and a repeated one as a duplicate row.
    topo = add_sites(parse_graphml(GRAPHML), uplink_mbps=30.0, core_mbps=10.0)
    with pytest.raises(ScenarioError, match=r"hop limits must be strictly increasing, got \[2, [12]\]"):
        hop_study({"toy": topo}, hop_limits=hop_limits)


def test_random_path_study_monotone_in_k():
    topo = add_sites(load_bundled_topology("abilene"), uplink_mbps=30.0, core_mbps=10.0)
    rows = random_path_study(topo, k_values=(0, 2), trials=2, seed=3)
    frac = dict(rows)
    assert 0.0 < frac[0] <= frac[2] <= 1.0 + 1e-9
