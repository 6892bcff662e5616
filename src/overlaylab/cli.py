"""Command-line front end for the planning/mapping/simulation pipeline.

Exit codes: 0 success, 1 check failed, 2 bad input, 3 internal failure.
stdout carries only data and summaries; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .lp import LpInputError, LpSolverError
from .model import (
    ModelError,
    Topology,
    TrafficClass,
    enumerate_paths,
    json_object,
    numbered_flows,
)
from .planner import Plan, PlanningProblem, check_kkt, check_plan_ids, solve_plan
from .scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    ScenarioError,
    add_sites,
    build_paper_scenario,
    bundled_with_sites,
    hop_study,
    parse_graphml,
    random_path_study,
    run_experiment,
    study_csv,
)
from .weights import WeightError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class _InputError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from None


def _load(path: str, reader):
    """``reader`` applied to the JSON object in ``path``; bad input is an _InputError."""
    try:
        obj = json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: parse error at byte {exc.pos}: {exc.msg}") from None
    try:
        return reader(json_object(obj, "the top-level value"))
    except (KeyError, TypeError, ValueError) as exc:
        why = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise _InputError(f"{path}: {why}") from None


def _load_topology(path: str) -> Topology:
    if path.endswith(".graphml"):
        return parse_graphml(_read(path))
    return _load(path, Topology.from_json_dict)


def _load_problem(topology_path: str, classes_path: str, max_hops: int) -> PlanningProblem:
    topo = _load_topology(topology_path)

    def read(obj: dict) -> PlanningProblem:
        classes = [TrafficClass.from_json_dict(c) for c in obj.get("classes", [])]
        explicit = json_object(obj.get("flows", {}), "flows")
        routes = {
            c.id: explicit[c.id]
            if c.id in explicit
            else enumerate_paths(topo, c.src, c.dst, max_hops)
            for c in classes
        } | explicit  # PlanningProblem rejects a key that is not a class id
        return PlanningProblem(topo, classes, {k: numbered_flows(k, rs) for k, rs in routes.items()})

    return _load(classes_path, read)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from None


def cmd_solve(args) -> int:
    problem = _load_problem(args.topology, args.classes, args.max_hops)
    plan = solve_plan(problem)
    if plan.optimality != "proved-optimal":
        print(
            "warning: branch-and-bound node limit reached; "
            f"plan is best-found, gap {plan.gap:.6g}",
            file=sys.stderr,
        )
    if args.out:
        _write(args.out, plan.to_json() + "\n")
    else:
        sys.stdout.write(plan.to_json() + "\n")
    return EXIT_OK


def cmd_check(args) -> int:
    problem = _load_problem(args.topology, args.classes, args.max_hops)
    plan = _load(args.plan, Plan.from_json_dict)
    check_plan_ids(problem, plan)
    report = check_kkt(problem, plan)
    rows = [
        ("feasibility", report.feasibility),
        ("dual-sign", report.dual_sign),
        ("complementary-slackness", report.complementary_slackness),
        ("gradient", report.gradient),
    ]
    for name, value in rows:
        print(f"{name:>24}  {value:.3e}")
    for fid, why in report.skipped_flows:
        print(f"skipped {fid}: {why}", file=sys.stderr)
    if report.ok():
        print("result: pass")
        return EXIT_OK
    print("result: fail")
    return EXIT_CHECK_FAILED


def _resolve_scenario(args) -> Scenario:
    if bool(args.scenario) == bool(args.paper):
        raise _InputError("provide exactly one of --scenario or --paper")
    if args.paper:
        scenario = build_paper_scenario(args.paper, seed=args.seed)
    else:
        scenario = _load(args.scenario, Scenario.from_json_dict)
    overrides = {"duration": args.duration, "dt": args.dt, "gamma": args.gamma}
    given = {k: v for k, v in overrides.items() if v is not None}
    # replace() checks the whole scenario again, so it runs only on an override.
    return dataclasses.replace(scenario, **given) if given else scenario


def _makedirs(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise _InputError(f"cannot create {path}: {exc}") from None


def cmd_run(args) -> int:
    scenario = _resolve_scenario(args)
    outdir = args.out or "."
    # The directory is made after the run; a file in the way fails makedirs before it.
    ancestor = outdir
    while ancestor and not os.path.exists(ancestor):
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        _makedirs(outdir)
    result = run_experiment(scenario)
    _makedirs(outdir)
    trace_path = os.path.join(outdir, f"{scenario.name}-trace.csv")
    summary_path = os.path.join(outdir, f"{scenario.name}-summary.csv")
    _write(trace_path, result.trace.to_csv())
    _write(summary_path, result.summary_csv())
    print(f"wrote {trace_path} and {summary_path}", file=sys.stderr)
    sys.stdout.write(result.phase_csv())
    return EXIT_OK


def cmd_paths(args) -> int:
    topo = _load_topology(args.topology)
    for route in enumerate_paths(topo, args.src, args.dst, args.max_hops):
        print(" ".join(route))
    return EXIT_OK


def _study_topologies(names: list[str]) -> dict[str, Topology]:
    out = {}
    for name in names:
        if name.endswith(".graphml"):
            base = _load_topology(name)
            key, topo = base.name, add_sites(base, uplink_mbps=30.0, core_mbps=10.0)
        else:
            key, topo = name, bundled_with_sites(name, 30.0, 10.0)
        if key in out:  # a study row names its topology, so the names must differ
            raise _InputError(f"topology {key!r} is given twice")
        out[key] = topo
    return out


def cmd_hops(args) -> int:
    topos = _study_topologies(args.topologies)
    rows = hop_study(topos, max_hops=args.max_hops, seed=args.seed)
    sys.stdout.write(study_csv(rows, "topology,hops,utility"))
    return EXIT_OK


def cmd_randpaths(args) -> int:
    topos = _study_topologies([args.topologies[0]])
    (topo,) = topos.values()
    rows = random_path_study(
        topo,
        k_values=tuple(args.k),
        trials=args.trials,
        seed=args.seed,
        max_hops=args.max_hops,
    )
    sys.stdout.write(study_csv(rows, "k,fraction_of_optimum"))
    return EXIT_OK


# Options that several subcommands take; each declares only those it reads.
SHARED_FLAGS = {
    "--seed": dict(type=int, default=7),
    "--max-hops": dict(type=int, default=2),
    "--out": dict(default=None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="overlaylab",
        description="Mission-utility overlay planning, weight mapping and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **SHARED_FLAGS[flag])

    p = sub.add_parser("solve", help="solve the planning problem")
    p.add_argument("--topology", required=True)
    p.add_argument("--classes", required=True)
    common(p, "--max-hops", "--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("check", help="verify a plan against optimality conditions")
    p.add_argument("--topology", required=True)
    p.add_argument("--classes", required=True)
    p.add_argument("--plan", required=True)
    common(p, "--max-hops")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("run", help="run a scenario end to end")
    p.add_argument("--scenario", default=None)
    p.add_argument("--paper", default=None, choices=PAPER_SCENARIOS)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--duration", type=float, default=None)
    common(p, "--seed", "--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("paths", help="enumerate overlay routes")
    p.add_argument("--topology", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    common(p, "--max-hops")
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("hops", help="optimal utility per hop limit")
    p.add_argument("topologies", nargs="+")
    common(p, "--seed", "--max-hops")
    p.set_defaults(func=cmd_hops)

    p = sub.add_parser("randpaths", help="utility using k random indirect paths")
    p.add_argument("topologies", nargs=1)
    p.add_argument("--k", type=int, nargs="+", default=[0, 1, 2, 4])
    p.add_argument("--trials", type=int, default=10)
    common(p, "--seed", "--max-hops")
    p.set_defaults(func=cmd_randpaths)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, ModelError, ScenarioError, WeightError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LpInputError, LpSolverError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
