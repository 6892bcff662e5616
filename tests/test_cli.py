"""Command-line interface tests (exit codes, data-only stdout, determinism)."""
import json

import pytest

from overlaylab import cli
from overlaylab.cli import main
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


@pytest.mark.parametrize(
    "flag, value", [("--dt", "0"), ("--dt", "nan"), ("--gamma", "-1"), ("--duration", "inf")]
)
def test_invalid_override_rejected(flag, value, capsys):
    assert main(["run", "--paper", "triangle-basic", flag, value]) == 2
    assert "must be finite and > 0" in capsys.readouterr().err


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
