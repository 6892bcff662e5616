"""Command-line interface tests (exit codes, data-only stdout, determinism)."""
import argparse
import contextlib
import copy
import io
import json
import math
import pathlib
import re

import pytest
from hypothesis import given, settings, strategies as st

from overlaylab import cli
from overlaylab.cli import main
from overlaylab.lp import LpInputError
from overlaylab.planner import PlannerConfig, solve_plan
from overlaylab.scenarios import build_paper_scenario

TOPOLOGY = {
    "name": "tri",
    "directed": True,
    "nodes": [
        {"id": "A", "kind": "site"},
        {"id": "B", "kind": "site"},
        {"id": "C", "kind": "site"},
    ],
    "links": [
        {"src": a, "dst": b, "capacity_mbps": 5 if {a, b} == {"B", "C"} else 10}
        for a in "ABC"
        for b in "ABC"
        if a != b
    ],
}

CLASSES = {
    "classes": [
        {"id": "ac", "src": "A", "dst": "C", "max_sessions": 1, "utility": {"linear": 0.2}},
        {"id": "bc", "src": "B", "dst": "C", "max_sessions": 1, "utility": {"linear": 0.1}},
    ]
}


@pytest.fixture
def files(tmp_path):
    topo = tmp_path / "topo.json"
    topo.write_text(json.dumps(TOPOLOGY))
    classes = tmp_path / "classes.json"
    classes.write_text(json.dumps(CLASSES))
    return tmp_path, str(topo), str(classes)


def test_solve_writes_plan(files, capsys):
    tmp, topo, classes = files
    out = str(tmp / "plan.json")
    assert main(["solve", "--topology", topo, "--classes", classes, "--out", out]) == 0
    plan = json.loads((tmp / "plan.json").read_text())
    assert plan["utility"] == pytest.approx(3.0)
    assert plan["optimality"] == "proved-optimal"


def test_solve_stdout_is_pure_json(files, capsys):
    _, topo, classes = files
    assert main(["solve", "--topology", topo, "--classes", classes]) == 0
    out = capsys.readouterr().out
    json.loads(out)  # must parse as-is


def test_check_passes_on_solved_plan(files, capsys):
    tmp, topo, classes = files
    out = str(tmp / "plan.json")
    main(["solve", "--topology", topo, "--classes", classes, "--out", out])
    rc = main(["check", "--topology", topo, "--classes", classes, "--plan", out])
    assert rc == 0
    assert "result: pass" in capsys.readouterr().out


def test_check_fails_on_tampered_plan(files, capsys):
    tmp, topo, classes = files
    out = str(tmp / "plan.json")
    main(["solve", "--topology", topo, "--classes", classes, "--out", out])
    plan = json.loads((tmp / "plan.json").read_text())
    plan["rates"] = {k: v * 2 for k, v in plan["rates"].items()}
    (tmp / "plan.json").write_text(json.dumps(plan))
    rc = main(["check", "--topology", topo, "--classes", classes, "--plan", out])
    assert rc == 1
    assert "result: fail" in capsys.readouterr().out


def test_solve_node_limit_warns_with_gap(files, capsys, monkeypatch):
    # Three threshold classes at N = 12 need more than ten nodes to prove.
    monkeypatch.setattr(
        cli, "solve_plan", lambda problem: solve_plan(problem, PlannerConfig(bb_node_limit=10))
    )
    tmp, topo, _ = files
    threshold = {"pieces": [[0.0, 0.8, 0.0, 0.0], [0.8, 1.2, 0.1, 0.0], [1.2, None, 0.005, 0.114]]}
    spec = [
        {"id": f"k{i}", "src": a, "dst": b, "max_sessions": 12, "utility": threshold}
        for i, (a, b) in enumerate([("A", "C"), ("B", "C"), ("A", "B")])
    ]
    classes = tmp / "threshold.json"
    classes.write_text(json.dumps({"classes": spec}))
    assert main(["solve", "--topology", topo, "--classes", str(classes)]) == 0
    out, err = capsys.readouterr()
    assert "plan is best-found, gap 2.5" in err
    plan = json.loads(out)
    assert plan["optimality"] == "best-found" and "gap" not in plan


def test_malformed_json_is_input_error(files, capsys, tmp_path):
    _, _, classes = files
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [')
    rc = main(["solve", "--topology", str(bad), "--classes", classes])
    assert rc == 2
    err = capsys.readouterr().err
    assert "parse error at byte" in err


def test_missing_file_is_input_error(files, capsys):
    _, topo, _ = files
    assert main(["solve", "--topology", topo, "--classes", "/nope.json"]) == 2


def test_zero_duration_rejected(capsys):
    assert main(["run", "--paper", "triangle-basic", "--duration", "0"]) == 2


def test_a_duration_that_ends_at_an_event_exits_2(capsys):
    # failure-triangle re-plans at t = 140, which a 140 s run never reaches.
    assert main(["run", "--paper", "failure-triangle", "--duration", "140"]) == 2
    _one_error_line(capsys, "event at t=140.0 is not due before the horizon of a 140.0 s run at dt=0.01")


@pytest.mark.parametrize(
    "flag, value", [("--dt", "0"), ("--dt", "nan"), ("--gamma", "-1"), ("--duration", "inf")]
)
def test_invalid_override_rejected(flag, value, capsys):
    assert main(["run", "--paper", "triangle-basic", flag, value]) == 2
    assert "must be finite and > 0" in capsys.readouterr().err


def test_a_dt_that_does_not_divide_one_second_exits_2(capsys):
    # A run samples every second, and 1 / 0.03 is no whole number of steps.
    assert main(["run", "--paper", "triangle-basic", "--dt", "0.03"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: dt must divide one second, the interval a run samples at, got 0.03\n"


@pytest.mark.parametrize("field, key", [("duals", "A->C"), ("rates", "ac:0")])
def test_check_rejects_non_finite_plan(files, capsys, field, key):
    tmp, topo, classes = files
    out = str(tmp / "plan.json")
    main(["solve", "--topology", topo, "--classes", classes, "--out", out])
    plan = json.loads((tmp / "plan.json").read_text())
    plan[field][key] = float("nan")
    (tmp / "plan.json").write_text(json.dumps(plan))
    rc = main(["check", "--topology", topo, "--classes", classes, "--plan", out])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


def test_check_reads_session_counts_past_int64(files, capsys):
    tmp, topo, classes = files
    out = str(tmp / "plan.json")
    main(["solve", "--topology", topo, "--classes", classes, "--out", out])
    plan = json.loads((tmp / "plan.json").read_text())
    plan["n"]["ac"] = 10**30
    (tmp / "plan.json").write_text(json.dumps(plan))
    rc = main(["check", "--topology", topo, "--classes", classes, "--plan", out])
    out, err = capsys.readouterr()
    assert rc == 1 and "result: fail" in out and "Traceback" not in err
    assert "feasibility  1.000e+31" in out  # 10**30 sessions of ac:0 at 10 Mbps on a 10 Mbps link


# A session count a float cannot hold, in each input that carries one; each was an OverflowError traceback.
@pytest.mark.parametrize("where", ["solve-class", "check-plan", "scenario-class", "scenario-event"])
def test_session_counts_past_the_float_range_are_input_errors(files, capsys, where):
    tmp, topo, classes = files
    huge, out = 10**400, str(tmp / "out")
    if where == "solve-class":
        args = ["solve", "--topology", topo, "--classes",
                _write(tmp / "huge.json", _edited(CLASSES, [(("classes", 0, "max_sessions"), huge)]))]
    elif where == "check-plan":
        main(["solve", "--topology", topo, "--classes", classes, "--out", out])
        plan = json.loads((tmp / "out").read_text())
        plan["n"]["ac"] = huge
        args = ["check", "--topology", topo, "--classes", classes, "--plan", _write(tmp / "huge.json", plan)]
    else:
        obj = _scenario("triangle-basic")
        if where == "scenario-class":
            obj["classes"][0]["max_sessions"] = huge
        else:
            payload = {"class": obj["classes"][0]["id"], "n": huge}
            obj["events"] = [{"t": 10.0, "kind": "set-sessions", "payload": payload}]
        args = ["run", "--scenario", _write(tmp / "huge.json", obj), "--out", out]
    capsys.readouterr()
    assert main(args) == 2
    _one_error_line(capsys, "<= 1.7976931348623157e+308, got an integer of 401 digits")


THRESHOLD = {"pieces": [[0, 1, 0.1, 0], [1, None, 0.01, 0.09]]}


# Inputs whose numbers overflow the planner: N * U or N * slope past what it can quantise.
@pytest.mark.parametrize("capacity, spec, fragment", [
    (1e308, {"id": "ab", "src": "A", "dst": "B", "max_sessions": 1, "utility": THRESHOLD},
     "class 'ab': max_sessions * utility at route capacity (1 * 1e+306) is too large to plan"),
    (10, {"id": "ac", "src": "A", "dst": "C", "max_sessions": 1,
          "utility": {"pieces": [[0, 1e-300, 0, 0], [1e-300, None, 1e300, 0]]}},
     "class 'ac': max_sessions * slope (1 * 1e+300) is too large to plan"),
    (10, {"id": "ac", "src": "A", "dst": "C", "max_sessions": 2, "utility": {"linear": 1e308}},
     "class 'ac': max_sessions * slope (2 * 1e+308) is too large to plan"),
], ids=["capacity-1e308", "piece-slope-1e300", "linear-1e308"])
def test_solve_rejects_numbers_the_planner_cannot_quantise(tmp_path, capsys, capacity, spec, fragment):
    topo = _write(tmp_path / "topo.json", _edited(TOPOLOGY, [(("links", 0, "capacity_mbps"), capacity)]))
    classes = _write(tmp_path / "classes.json", {"classes": [spec]})
    assert main(["solve", "--topology", topo, "--classes", classes]) == 2
    _one_error_line(capsys, fragment)


@pytest.mark.parametrize("field, key", [("duals", "Z->Y"), ("rates", "zz:0"), ("n", "zz")])
def test_check_rejects_a_plan_with_an_unknown_id(files, capsys, field, key):
    tmp, topo, classes = files
    out = str(tmp / "plan.json")
    main(["solve", "--topology", topo, "--classes", classes, "--out", out])
    plan = json.loads((tmp / "plan.json").read_text())
    plan[field][key] = 5
    (tmp / "plan.json").write_text(json.dumps(plan))
    rc = main(["check", "--topology", topo, "--classes", classes, "--plan", out])
    assert rc == 2
    kind = {"duals": "link", "rates": "flow", "n": "class"}[field]
    _one_error_line(capsys, f"plan references unknown {kind} {key!r}")


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        # A JSON scenario cannot carry a TransportConfig: install-config is library-only.
        ("install-config", {"config": {"weights": {}, "sessions": {}, "gain": 0.001}},
         "install-config requires a TransportConfig"),
        ("set-sessions", {"class": "bc", "n": 2.5}, "set-sessions requires an integer n >= 0"),
    ],
)
def test_run_scenario_with_bad_event_is_input_error(tmp_path, capsys, kind, payload, message):
    obj = build_paper_scenario("triangle-basic").to_json_dict()
    obj["events"] = [{"t": 10.0, "kind": kind, "payload": payload}]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_run_requires_exactly_one_source(capsys):
    assert main(["run"]) == 2


def test_paths_lists_routes(files, capsys):
    _, topo, _ = files
    assert main(["paths", "--topology", topo, "--src", "A", "--dst", "C"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "A->C"
    assert "A->B B->C" in out


@pytest.mark.parametrize("end", ["src", "dst"])
def test_paths_with_unknown_node_exits_2(files, capsys, end):
    _, topo, _ = files
    ends = {"src": "A", "dst": "C", end: "Z"}
    assert main(["paths", "--topology", topo, "--src", ends["src"], "--dst", ends["dst"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {end} 'Z' is not a topology node\n"


@pytest.mark.parametrize("max_hops", ["0", "-2"])
def test_hops_below_one_exits_2(capsys, max_hops):
    assert main(["hops", "abilene", "--max-hops", max_hops]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: max_hops must be >= 1, got {max_hops}\n"


def _graphml(graph_attrs):
    return (
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">'
        f'<graph{graph_attrs} edgedefault="undirected">'
        '<node id="a"/><node id="b"/><node id="c"/>'
        '<edge source="a" target="b"/><edge source="b" target="c"/>'
        "</graph></graphml>"
    )


@pytest.mark.parametrize(
    "first, second, name",
    [("", "", "graphml"), (None, ' id="abilene"', "abilene")],
    ids=["two-unnamed-graphml", "graphml-named-like-a-bundled-one"],
)
def test_hops_with_a_repeated_topology_name_exits_2(tmp_path, capsys, first, second, name):
    # Study rows are keyed by topology name, so a repeated name would drop rows.
    args = []
    for i, attrs in enumerate((first, second)):
        if attrs is None:
            args.append("abilene")
        else:
            path = tmp_path / f"t{i}.graphml"
            path.write_text(_graphml(attrs))
            args.append(str(path))
    assert main(["hops", *args, "--max-hops", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: topology {name!r} is given twice\n"


def test_run_paper_scenario_outputs(tmp_path, capsys):
    rc = main(["run", "--paper", "triangle-basic", "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("phase_start,phase_end,mean_utility")
    trace = (tmp_path / "triangle-basic-trace.csv").read_text()
    assert trace.startswith("t,flow_id,send_rate_mbps,goodput_mbps")
    summary = (tmp_path / "triangle-basic-summary.csv").read_text()
    assert summary.startswith("path,target_mbps,actual_mbps")


def test_run_determinism_byte_identical(tmp_path, capsys):
    outs = []
    for d in ("a", "b"):
        outdir = tmp_path / d
        assert main(["run", "--paper", "triangle-basic", "--out", str(outdir)]) == 0
        outs.append(
            (
                (outdir / "triangle-basic-trace.csv").read_bytes(),
                (outdir / "triangle-basic-summary.csv").read_bytes(),
            )
        )
    assert outs[0] == outs[1]


def test_solve_determinism(files, capsys):
    _, topo, classes = files
    runs = []
    for _ in range(2):
        main(["solve", "--topology", topo, "--classes", classes])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def _edited(doc, edits):
    """A deep copy of ``doc`` with each (path, value) set; value None deletes."""
    doc = copy.deepcopy(doc)
    for path, value in edits:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def _write(path, doc) -> str:
    # json.dumps writes an infinity as Infinity; the holes below use 1e400.
    path.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
    return str(path)


def _scenario(name, *edits):
    return _edited(build_paper_scenario(name).to_json_dict(), edits)


MAX_SESSIONS = ("classes", 0, "max_sessions")

# (input kind, document, a fragment of the error) for inputs that used to
# crash with exit 1 or be silently accepted.
HOLES = {
    "classes-top-level-list": ("classes", [1, 2], "must be a JSON object"),
    "infinite-capacity": (
        "topology", _edited(TOPOLOGY, [(("links", 0, "capacity_mbps"), "1e400")]),
        "finite capacity_mbps > 0",
    ),
    "infinite-set-capacity-event": (
        "scenario",
        _scenario("failure-triangle", (("events", 0, "payload", "capacity_mbps"), "1e400")),
        "finite capacity_mbps > 0",
    ),
    "infinite-slope": (
        "classes",
        _edited(CLASSES, [(("classes", 0, "utility"),
                           {"pieces": [[0.0, 1.0, 0.2, 0.0], [1.0, None, "1e400", 0.0]]})]),
        "slope and intercept must be finite",
    ),
    "fractional-max-sessions": (
        "classes", _edited(CLASSES, [(MAX_SESSIONS, 2.5)]), "integer max_sessions >= 0"
    ),
    "bool-max-sessions": (
        "classes", _edited(CLASSES, [(MAX_SESSIONS, True)]), "integer max_sessions >= 0"
    ),
    "fractional-max-sessions-scenario": (
        "scenario", _scenario("triangle-basic", (MAX_SESSIONS, 2.5)), "integer max_sessions >= 0"
    ),
    "bool-max-sessions-scenario": (
        "scenario", _scenario("triangle-basic", (MAX_SESSIONS, True)), "integer max_sessions >= 0"
    ),
    "flows-for-unknown-class": (
        "classes", _edited(CLASSES, [(("flows",), {"zz": [["A->C"]]})]),
        "flows for unknown class 'zz'",
    ),
    "class-dst-not-a-node": (
        "classes", _edited(CLASSES, [(("classes", 0, "dst"), "Z")]), "not a topology node"
    ),
    "pinned-plan-nan-utility": (
        "scenario", _scenario("demand-sweep", (("pinned_plan", "utility"), math.nan)), "non-finite"
    ),
    "unread-event-payload-key": (
        "scenario",
        _scenario("failure-triangle", (("events", 0, "payload", "reset_rates"), True)),
        "set-capacity payload has unread key(s) 'reset_rates'",
    ),
    # A number must be a JSON number: neither true nor a numeric string.
    "bool-capacity": (
        "topology", _edited(TOPOLOGY, [(("links", 0, "capacity_mbps"), True)]),
        "capacity_mbps must be a JSON number, got True",
    ),
    "string-capacity": (
        "topology", _edited(TOPOLOGY, [(("links", 0, "capacity_mbps"), "7")]),
        "capacity_mbps must be a JSON number, got '7'",
    ),
    "string-linear-slope": (
        "classes", _edited(CLASSES, [(("classes", 0, "utility"), {"linear": "0.2"})]),
        "utility linear must be a JSON number",
    ),
    "string-piece-entry": (
        "classes",
        _edited(CLASSES, [(("classes", 0, "utility"), {"pieces": [[0.0, None, "0.2", 0.0]]})]),
        "a utility piece entry must be a JSON number",
    ),
    "bool-dt": (
        "scenario", _scenario("triangle-basic", (("dt",), True)), "dt must be a JSON number"
    ),
    "string-gamma": (
        "scenario", _scenario("triangle-basic", (("gamma",), "0.5")), "gamma must be a JSON number"
    ),
    "string-event-time": (
        "scenario", _scenario("failure-triangle", (("events", 0, "t"), "60")),
        "event t must be a JSON number",
    ),
    "string-set-capacity-event": (
        "scenario",
        _scenario("failure-triangle", (("events", 0, "payload", "capacity_mbps"), "7")),
        "set-capacity event at t=60.0 requires a finite capacity_mbps > 0, got '7'",
    ),
    # directed must be a JSON boolean: "false" used to load as directed.
    "string-directed": (
        "topology", _edited(TOPOLOGY, [(("directed",), "false")]),
        "directed must be a JSON boolean, got 'false'",
    ),
    "zero-link-directed": (
        "topology", _edited(TOPOLOGY, [(("links", 0, "directed"), 0)]),
        "link directed must be a JSON boolean, got 0",
    ),
    "null-directed": (
        "topology", {**TOPOLOGY, "directed": None}, "directed must be a JSON boolean, got None"
    ),
    "bool-set-capacity-event": (
        "scenario",
        _scenario("failure-triangle", (("events", 0, "payload", "capacity_mbps"), True)),
        "finite capacity_mbps > 0, got True",
    ),
    "string-estimate-override": (
        "scenario", _scenario("triangle-basic", (("estimate_overrides",), {"A->B": "5"})),
        "estimate_overrides of 'A->B' must be a JSON number",
    ),
    "string-plan-rate": (
        "scenario", _scenario("demand-sweep", (("pinned_plan", "rates", "lo:0"), "2.0")),
        "plan rates of 'lo:0' must be a JSON number",
    ),
    "bool-plan-dual": (
        "scenario", _scenario("demand-sweep", (("pinned_plan", "duals", "B->C"), False)),
        "plan duals of 'B->C' must be a JSON number",
    ),
    "unknown-plan-optimality": (
        "scenario", _scenario("demand-sweep", (("pinned_plan", "optimality"), "weird")),
        "plan optimality must be proved-optimal or best-found, got 'weird'",
    ),
    # events must be a list of objects, each payload an object.
    "object-events": (
        "scenario", _scenario("failure-triangle", (("events",), {"a": 1})),
        "events must be a JSON list, got dict",
    ),
    "string-events": (
        "scenario", _scenario("failure-triangle", (("events",), "abc")),
        "events must be a JSON list, got str",
    ),
    "number-event": (
        "scenario", _scenario("failure-triangle", (("events",), [5])),
        "event #0 must be a JSON object, got int",
    ),
    "string-event-payload": (
        "scenario", _scenario("failure-triangle", (("events", 0, "payload"), "abc")),
        "event #0 payload must be a JSON object, got str",
    ),
    "list-event-payload": (
        "scenario", _scenario("failure-triangle", (("events", 1, "payload"), ["knowledge"])),
        "event #1 payload must be a JSON object, got list",
    ),
    # Ids are CSV fields: a comma, quote, CR or LF would split or fake a row.
    "comma-class-id": (
        "scenario",
        _scenario(
            "triangle-basic",
            (("classes", 0, "id"), "a,c"),
            (("flows", "a,c"), build_paper_scenario("triangle-basic").to_json_dict()["flows"]["ac"]),
            (("flows", "ac"), None),
        ),
        "class id must be a non-empty string without , \" CR or LF, got 'a,c'",
    ),
    "comma-scenario-flow-id": (
        "scenario", _scenario("triangle-basic", (("flows", "ac", 0, "id"), "ac,0")),
        "flow id must be a non-empty string without , \" CR or LF, got 'ac,0'",
    ),
    "empty-scenario-flow-id": (
        "scenario", _scenario("triangle-basic", (("flows", "ac", 0, "id"), "")),
        "flow id must be a non-empty string without , \" CR or LF, got ''",
    ),
    "newline-node-id": (
        "topology", {**TOPOLOGY, "nodes": [*TOPOLOGY["nodes"], {"id": "D\nE", "kind": "router"}]},
        "node id must be a non-empty string without , \" CR or LF, got 'D\\nE'",
    ),
    # A repeated node id used to keep its last kind: A read as a router.
    "duplicate-node-id": (
        "topology", {**TOPOLOGY, "nodes": [*TOPOLOGY["nodes"], {"id": "A", "kind": "router"}]},
        "duplicate node id 'A'",
    ),
    # A pinned plan's ids are checked as `check` checks a plan's.
    "pinned-plan-unknown-flow": (
        "scenario", _scenario("demand-sweep", (("pinned_plan", "rates", "hi:typo"), 1.0)),
        "plan references unknown flow 'hi:typo'",
    ),
    "pinned-plan-unknown-class": (
        "scenario", _scenario("demand-sweep", (("pinned_plan", "n", "nope"), 1)),
        "plan references unknown class 'nope'",
    ),
}


@pytest.mark.parametrize("name", sorted(HOLES))
def test_malformed_input_exits_2_with_one_error_line(name, files, capsys):
    tmp, topo, classes = files
    kind, doc, fragment = HOLES[name]
    path = _write(tmp / f"{kind}-bad.json", doc)
    argv = {
        "topology": ["solve", "--topology", path, "--classes", classes],
        "classes": ["solve", "--topology", topo, "--classes", path],
        "scenario": ["run", "--scenario", path, "--out", str(tmp)],
    }[kind]
    assert main(argv) == 2
    _one_error_line(capsys, fragment)


def _one_error_line(capsys, fragment):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err and "Traceback" not in err


def test_run_out_onto_an_existing_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    argv = ["run", "--paper", "triangle-basic", "--duration", "1", "--out", str(blocker)]
    assert main(argv) == 2
    _one_error_line(capsys, f"cannot create {blocker}")
    assert blocker.read_text() == ""


def test_run_out_onto_an_existing_file_fails_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(scenario):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["run", "--paper", "triangle-basic", "--out", str(blocker)]) == 2
    _one_error_line(capsys, f"cannot create {blocker}: [Errno 17] File exists")
    assert blocker.read_text() == ""
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


@pytest.mark.parametrize("below", ["sub", "a/b"])
def test_run_out_below_an_existing_file_fails_before_the_run(tmp_path, capsys, monkeypatch, below):
    def no_run(scenario):
        raise AssertionError("run_experiment was called")

    monkeypatch.setattr(cli, "run_experiment", no_run)
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / below
    assert main(["run", "--paper", "triangle-basic", "--out", str(out)]) == 2
    _one_error_line(capsys, f"cannot create {out}: [Errno 20] Not a directory")
    assert [p.name for p in tmp_path.iterdir()] == ["blocker"]


def test_solve_out_in_a_missing_directory_exits_2(files, capsys):
    tmp, topo, classes = files
    out = tmp / "missing-dir" / "p.json"
    assert main(["solve", "--topology", topo, "--classes", classes, "--out", str(out)]) == 2
    _one_error_line(capsys, f"cannot write {out}")
    assert not out.parent.exists()


@pytest.mark.parametrize("name", ["../escaped", [], "", ".", "..", "a/b", "a\\b"])
def test_scenario_name_must_be_one_file_name(tmp_path, capsys, name):
    # "../escaped" used to write escaped-trace.csv beside the output directory.
    work = tmp_path / "work"
    work.mkdir()
    path = _write(work / "scenario.json", _scenario("triangle-basic", (("name",), name)))
    assert main(["run", "--scenario", path, "--out", str(work / "out")]) == 2
    _one_error_line(capsys, "name must be a non-empty string")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "work", "work/scenario.json"
    ]


def test_lp_input_error_is_internal(files, capsys, monkeypatch):
    def bad_lp(problem):
        raise LpInputError("NaN or Inf in program data")

    monkeypatch.setattr(cli, "solve_plan", bad_lp)
    _, topo, classes = files
    assert main(["solve", "--topology", topo, "--classes", classes]) == 3
    assert capsys.readouterr().err == "internal error: NaN or Inf in program data\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["hops", "abilene", "--out", "x.csv"],
        ["paths", "--topology", "t.json", "--src", "A", "--dst", "B", "--seed", "1"],
        ["run", "--paper", "triangle-basic", "--max-hops", "3"],
    ],
)
def test_unread_flag_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_flag_table_matches_the_parser():
    # Each row of the README's "subcommand | flags" table names exactly the
    # long options its subparser takes (--help and positionals aside).
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.splitlines():
        _, name, flags, _ = row.split("|")
        documented[name.strip().strip("`")] = set(re.findall(r"--[a-z][a-z-]*", flags))
    (subparsers,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, p in subparsers.choices.items()
    }
    assert documented == parsed


# -- loader fuzzing ---------------------------------------------------------

FUZZ_CLASSES = {
    "classes": [
        {"id": "ac", "src": "A", "dst": "C", "max_sessions": 2,
         "utility": {"pieces": [[0.0, 1.0, 0.2, 0.0], [1.0, None, 0.05, 0.15]]}},
        {"id": "bc", "src": "B", "dst": "C", "utility": {"linear": 0.1}},
    ],
    "flows": {"bc": [["B->C"], ["B->A", "A->C"]]},
}


def _swap_type(value):
    if isinstance(value, bool):
        return "yes"
    if isinstance(value, (int, float)):
        return str(value)
    return {str: 0, list: {}, dict: []}.get(type(value), 0)


MUTATIONS = {
    "swap-type": _swap_type,
    "infinite": lambda value: "1e400",
    "negative-count": lambda value: -1,
    "fractional-count": lambda value: 2.5,
    "wrap-in-list": lambda value: [value],
}


def _paths(doc, prefix=()):
    """Every key path in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """Valid documents, each with the command that reads it."""
    tmp = tmp_path_factory.mktemp("fuzz")
    topo = _write(tmp / "topo.json", TOPOLOGY)
    classes = _write(tmp / "classes.json", FUZZ_CLASSES)
    plan = tmp / "plan.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["solve", "--topology", topo, "--classes", classes, "--out", str(plan)]) == 0
    # Events inside the one-second runs, so that every kind fires.
    events = [
        {"t": 0.25, "kind": "set-capacity", "payload": {"link": "A->B", "capacity_mbps": 1.0}},
        {"t": 0.5, "kind": "set-sessions", "payload": {"class": "bc", "n": 2}},
        {"t": 0.75, "kind": "rerun-planner", "payload": {"knowledge": "stale"}},
    ]
    run = ["run", "--out", str(tmp), "--duration", "1", "--scenario"]
    docs = {
        "topology": (TOPOLOGY, ["solve", "--classes", classes, "--topology"]),
        "classes": (FUZZ_CLASSES, ["solve", "--topology", topo, "--classes"]),
        "plan": (json.loads(plan.read_text()),
                 ["check", "--topology", topo, "--classes", classes, "--plan"]),
        "scenario": (_scenario("failure-triangle", (("events",), events), (("duration",), 1.0)), run),
        "pinned-scenario": (_scenario("demand-sweep", (("duration",), 1.0)), run),
    }
    return tmp, {name: (doc, list(_paths(doc)), argv) for name, (doc, argv) in docs.items()}


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_mutated_inputs_exit_0_or_2(fuzz_inputs, data):
    tmp, inputs = fuzz_inputs
    name = data.draw(st.sampled_from(sorted(inputs)))
    doc, paths, argv = inputs[name]
    path = data.draw(st.sampled_from(paths))
    mutation = data.draw(st.sampled_from(["drop-key", *MUTATIONS]))
    if mutation == "drop-key":
        mutated = _edited(doc, [(path, None)]) if path else {}
    else:
        value = doc
        for key in path:
            value = value[key]
        value = MUTATIONS[mutation](value)
        mutated = _edited(doc, [(path, value)]) if path else value
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv + [_write(tmp / f"mutated-{name}.json", mutated)])
    # A plan that lost a rate can be well formed and fail the check (exit 1).
    assert rc in ((0, 1, 2) if name == "plan" else (0, 2))
