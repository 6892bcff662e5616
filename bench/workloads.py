"""The benchmark's three workloads: seeded inputs, tasks and output checks.

Every workload turns ``--seed`` into a fixed list of tasks (one pass).  A task
calls overlaylab's public API through the package module it is given, looking
each function up at call time so that the tracer's wrappers apply.  A task's
check returns an ``Outcome``:

* ``problems``: the output is wrong (an infeasible plan, a utility that does
  not match its rates, a KKT residual or goodput outside its tolerance, a
  broken acceptance property).  Any problem makes the run incorrect.
* ``misses``: the output is valid but the task did not reach what it asks
  for: a plan that is not ``proved-optimal``, or a failure scenario whose
  re-planned phase does not recover utility.  The task counts as failed.
* ``digests``: sha256 of each text output, to compare runs byte for byte.

Why each workload exists is written next to its set-up function and in
README.md.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# "Threshold utility": worth 0 up to 0.8 Mbps, then 0.1*x, then 0.005*x + 0.114.
THRESHOLD_POINTS = [(0.0, 0.0, 0.0), (0.8, 0.1, 0.0), (1.2, 0.005, 0.114)]
FEAS_TOL = 1e-7
UTILITY_TOL = 1e-9
KKT_TOL = 1e-6


def threshold_value(x: float) -> float:
    """The threshold utility, evaluated without the package (left value at breaks)."""
    if x <= 0.8:
        return 0.0
    if x <= 1.2:
        return 0.1 * x
    return 0.005 * x + 0.114


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    misses: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class Task:
    label: str
    family: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # A once-task runs a single time per run, after the repeated passes, and
    # is left out of the timing metrics: it counts only as attempted/failed.
    once: bool = False


@dataclass
class Workload:
    setup: Callable[[Any, int], list[Task]]
    warmup: Callable[[Any], None]
    pass_seconds: float  # one pass of the repeated tasks at the seed code, 2-core Xeon


def _pairs(rng: random.Random, sites: list[str], k: int) -> list[tuple[str, str]]:
    pairs: list[tuple[str, str]] = []
    while len(pairs) < k:
        a, b = rng.sample(sites, 2)
        if (a, b) not in pairs:
            pairs.append((a, b))
    return pairs


def _abilene(ol):
    return ol.add_sites(ol.load_bundled_topology("abilene"), uplink_mbps=30.0, core_mbps=10.0)


# ---------------------------------------------------------------------------
# plan-threshold


def threshold_problem(ol, topology, pairs, n_max: int):
    utility = ol.PiecewiseLinearUtility.from_points(THRESHOLD_POINTS)
    classes = [ol.TrafficClass(f"k{i}", a, b, n_max, utility) for i, (a, b) in enumerate(pairs)]
    flows = {
        c.id: [
            ol.Flow(f"{c.id}:{j}", c.id, route)
            for j, route in enumerate(ol.enumerate_paths(topology, c.src, c.dst, 2))
        ]
        for c in classes
    }
    return ol.PlanningProblem(topology, classes, flows)


def bnb_config(ol):
    """A config that forces branch-and-bound while the enumeration path exists.

    Once the planner has no ``enumeration_budget``, branch-and-bound is its
    only path and the default config measures it.
    """
    names = {f.name for f in dataclasses.fields(ol.PlannerConfig)}
    if "enumeration_budget" in names:
        return ol.PlannerConfig(enumeration_budget=0)
    return ol.PlannerConfig()


def check_plan(problem, plan) -> Outcome:
    """Capacity feasibility, and utility equal to sum n*U(rates) recomputed."""
    out = Outcome(digests={"plan.json": sha256(plan.to_json())})
    loads: dict[str, float] = defaultdict(float)
    utility = 0.0
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        if not 0 <= nk <= c.max_sessions:
            out.problems.append(f"class {c.id}: {nk} sessions outside [0, {c.max_sessions}]")
        agg = 0.0
        for f in problem.flows[c.id]:
            rate = plan.rates.get(f.id, 0.0)
            if not rate >= 0.0:
                out.problems.append(f"flow {f.id}: rate {rate}")
            agg += rate
            for lid in f.route:
                loads[lid] += nk * rate
        if nk >= 1:
            utility += nk * threshold_value(agg)
    for lid, load in loads.items():
        cap = problem.topology.link(lid).capacity_mbps
        if not load <= cap + FEAS_TOL * (1.0 + cap):
            out.problems.append(f"link {lid}: load {load!r} over capacity {cap!r}")
    if not abs(plan.utility - utility) <= UTILITY_TOL * (1.0 + abs(utility)):
        out.problems.append(f"utility {plan.utility!r} but rates give {utility!r}")
    if plan.optimality != "proved-optimal":
        out.misses.append(f"plan is {plan.optimality}")
    return out


def _plan_task(ol, label, family, problem, config=None, once=False) -> Task:
    return Task(
        label,
        family,
        run=lambda: ol.solve_plan(problem, config),
        check=lambda plan: check_plan(problem, plan),
        once=once,
    )


# The node-limit instance: the first triangle size past the default
# enumeration budget ((1 + 34*3)**3 candidates) with three threshold classes.
NODE_LIMIT_PAIRS = [("A", "C"), ("B", "C"), ("A", "B")]
NODE_LIMIT_N = 34


# Triangle B&B instances at N = 8: fixed, because one instance's cost varies
# tenfold with its class pairs (0.04 to 0.28 s at N = 8, up to 1.8 s at
# N = 10), which would swamp the seed-to-seed spread.  Indices into the
# ordered-pair triples of itertools.combinations.
TRIANGLE_BNB = (0, 3, 7, 10, 14, 17)


def setup_plan_threshold(ol, seed: int) -> list[Task]:
    """Threshold-utility planning; the planner and LP do all of the work.

    (a) enumeration instances: up to a thousand small inner LPs each.
    (b) branch-and-bound instances, with McCormick LPs of about 60 to 250
    rows.  Small Abilene B&B instances (2 classes) hold the median task and
    larger ones (3 classes) the tail: of all configurations, these two had the
    steadiest times from run to run.  (c) is the instance that hits the B&B
    node limit today, run once so that the defect shows as a failed task.
    """
    rng = random.Random(seed)
    tri = ol.build_paper_scenario("triangle-basic").topology
    abl = _abilene(ol)
    bnb = bnb_config(ol)
    tasks = []

    def add(label, topo, pairs, n, config=None):
        problem = threshold_problem(ol, topo, pairs, n)
        tasks.append(_plan_task(ol, label, label[0], problem, config))

    for name, topo in (("triangle", tri), ("abilene", abl)):
        for k in (2, 3):
            for n in (1, 2, 3):
                add(f"a/{name}/k{k}/N{n}", topo, _pairs(rng, topo.sites(), k), n)
    triples = list(itertools.combinations([(a, b) for a in "ABC" for b in "ABC" if a != b], 3))
    for i in TRIANGLE_BNB:
        add(f"b/triangle/k3/N8/{i}", tri, triples[i], 8, bnb)
    for k, count in ((2, 20), (3, 16)):
        for i in range(count):
            add(f"b/abilene/k{k}/N2/{i}", abl, _pairs(rng, abl.sites(), k), 2, bnb)
    problem = threshold_problem(ol, tri, NODE_LIMIT_PAIRS, NODE_LIMIT_N)
    tasks.append(_plan_task(ol, f"c/triangle/k3/N{NODE_LIMIT_N}", "c", problem, once=True))
    return tasks


def warmup_plan_threshold(ol) -> None:
    tri = ol.build_paper_scenario("triangle-basic").topology
    ol.solve_plan(threshold_problem(ol, tri, NODE_LIMIT_PAIRS[:2], 2))
    ol.solve_plan(threshold_problem(ol, _abilene(ol), [("s-Denver", "s-Chicago")], 2), bnb_config(ol))


# ---------------------------------------------------------------------------
# sim-sweep


def mapping_instance(ol, seed: int):
    """The acceptance-2 instance generator: small random networks, linear utilities."""
    rng = np.random.default_rng(seed)
    n_sites = int(rng.integers(2, 5))
    names = [chr(ord("A") + i) for i in range(n_sites)]
    nodes = {s: "site" for s in names}
    pairs = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(pairs)
    chosen = pairs[: int(rng.integers(2, min(len(pairs), 6) + 1))]
    links = [ol.Link(f"{a}->{b}", a, b, float(rng.integers(1, 11))) for a, b in chosen]
    topo = ol.Topology(f"m{seed}", nodes, links)
    classes, flows = [], {}
    for ci in range(int(rng.integers(1, 4))):
        a, b = chosen[int(rng.integers(0, len(chosen)))]
        cid = f"k{ci}"
        if cid in flows:
            continue
        routes = ol.enumerate_paths(topo, a, b, 2)
        if not routes:
            continue
        slope = float(rng.uniform(0.01, 0.05))
        classes.append(
            ol.TrafficClass(cid, a, b, int(rng.integers(1, 4)), ol.PiecewiseLinearUtility.linear(slope))
        )
        flows[cid] = [ol.Flow(f"{cid}:{i}", cid, r) for i, r in enumerate(routes)]
    if not classes:
        return None
    return ol.PlanningProblem(topo, classes, flows)


def in_mapping_scope(ol, problem) -> bool:
    """Acceptance 2's precondition: a positive plan, weights that exist, and
    every positive-rate flow priced at exactly one link."""
    plan = ol.solve_plan(problem)
    if plan.utility <= 1e-9:
        return False
    try:
        ol.compute_weights(problem, plan)
    except ol.WeightError:
        return False
    return not any(
        sum(1 for lid in f.route if plan.duals.get(lid, 0.0) > 1e-9) > 1
        for f in problem.all_flows()
        if plan.rates.get(f.id, 0.0) > 1e-9
    )


MAPPING_DT = 0.05
MAPPING_HORIZON = 8000.0


def _mapping_task(ol, label, problem) -> Task:
    def run():
        plan = ol.solve_plan(problem)
        report = ol.check_kkt(problem, plan)
        config = ol.compute_weights(problem, plan)
        sim = ol.Simulator(problem, config, dt=MAPPING_DT, initial_rates=plan.rates)
        sim.run(duration=MAPPING_HORIZON, sample_every=MAPPING_HORIZON)
        return plan, report, dict(zip((f.id for f in sim.flows), map(float, sim.goodputs())))

    def check(result) -> Outcome:
        plan, report, goodputs = result
        rows = [f"{fid},{plan.rates.get(fid, 0.0)!r},{g!r}" for fid, g in sorted(goodputs.items())]
        out = Outcome(digests={"goodputs.csv": sha256("\n".join(rows) + "\n")})
        if not report.max_residual() <= KKT_TOL:
            out.problems.append(f"KKT residual {report.max_residual()!r}")
        for fid, good in goodputs.items():
            target = plan.rates.get(fid, 0.0)
            if target <= 0.05:
                ok = good <= target + 0.02  # floor-parked flow
            else:
                ok = abs(good - target) <= 0.05 * target
            if not ok:
                out.problems.append(f"flow {fid}: goodput {good!r} vs planned {target!r}")
        if plan.optimality != "proved-optimal":
            out.misses.append(f"plan is {plan.optimality}")
        return out

    return Task(label, "mapping", run, check)


def _rows_csv(rows) -> str:
    return "".join(",".join(repr(v) for v in row) + "\n" for row in rows)


def _robustness_task(ol, cap: float) -> Task:
    def check(rows) -> Outcome:
        out = Outcome(digests={"robustness.csv": sha256(_rows_csv(rows))})
        for c, weighted, fixed, unit in rows:
            if not (weighted >= fixed - 1e-9 and weighted >= unit - 1e-9):
                out.problems.append(f"capacity {c}: weighted {weighted!r} below a baseline")
            if c <= 4.0 and not abs(weighted - fixed) <= 0.02 * fixed:
                out.problems.append(f"capacity {c}: weighted {weighted!r} vs fixed {fixed!r}")
        return out

    return Task(f"robustness/{cap:g}", "robustness", lambda: ol.robustness_sweep((cap,)), check)


def _demand_task(ol, m: int, seen: dict[int, bool]) -> Task:
    """One demand point; ``seen`` maps each checked session count to 'within'."""
    hi_target, lo_target = 3.0, 2.0

    def check(rows) -> Outcome:
        out = Outcome(digests={"demand.csv": sha256(_rows_csv(rows))})
        for count, hi, lo in rows:
            within = abs(hi - hi_target) <= 0.05 * hi_target and abs(lo - lo_target) <= 0.05 * lo_target
            over = lo > 1.10 * lo_target
            if not (within or over):
                out.problems.append(f"{count} sessions: neither at target nor over it ({hi!r}, {lo!r})")
                continue
            seen[count] = within
            # Acceptance 7: one threshold splits over-target counts from
            # within-target counts.
            if within and any(not w and k > count for k, w in seen.items()):
                out.problems.append(f"{count} sessions within target below an over-target count")
            if not within and any(w and k < count for k, w in seen.items()):
                out.problems.append(f"{count} sessions over target above a within-target count")
        return out

    return Task(f"demand/{m}", "demand", lambda: ol.demand_sweep((m,)), check)


def setup_sim_sweep(ol, seed: int) -> list[Task]:
    """Many small independent networks simulated to a fixed horizon.

    Per-step simulator overhead dominates every task; this is the traffic a
    batched simulator would take.
    """
    rng = random.Random(seed)
    inst = rng.randrange(10**6)
    problem = None
    while problem is None:
        inst += 1
        problem = mapping_instance(ol, inst)
        if problem is not None and not in_mapping_scope(ol, problem):
            problem = None
    tasks = [_mapping_task(ol, f"mapping/{inst}", problem)]
    tasks.append(_robustness_task(ol, float(rng.randint(1, 10))))
    seen: dict[int, bool] = {}
    tasks += [_demand_task(ol, m, seen) for m in sorted(rng.sample(range(1, 21), 18))]
    return tasks


def warmup_sim_sweep(ol) -> None:
    ol.demand_sweep((11,))


# ---------------------------------------------------------------------------
# paper-pipeline


def phase_overshoot(scenario, result, trace_csv: str) -> float:
    """Largest relative link overshoot of session-weighted goodput at the last
    sample of each phase (phases split at event times), read from the CSV."""
    caps = {ln.id: ln.capacity_mbps for ln in scenario.topology.links}
    flow_of = {f.id: f for fl in scenario.flows.values() for f in fl}
    by_time: dict[float, list[tuple[str, float]]] = defaultdict(list)
    for line in trace_csv.splitlines()[1:]:
        t, fid, _, good = line.split(",", 4)[:4]
        if fid:
            by_time[float(t)].append((fid, float(good)))
    cuts = [0.0] + sorted({e.t for e in scenario.events}) + [scenario.duration]
    worst = -1.0
    for a, b in zip(cuts, cuts[1:]):
        sessions = dict([p for t, p in result.plans if t <= a][-1].n)
        for e in scenario.events:
            if e.t <= a and e.kind == "set-capacity":
                caps[e.payload["link"]] = e.payload["capacity_mbps"]
            if e.t <= a and e.kind == "set-sessions":
                sessions[e.payload["class"]] = e.payload["n"]
        last = max(t for t in by_time if a <= t <= b)
        load: dict[str, float] = defaultdict(float)
        for fid, good in by_time[last]:
            f = flow_of[fid]
            for lid in f.route:
                load[lid] += sessions.get(f.class_id, 0) * good
        worst = max([worst] + [(y - caps[lid]) / caps[lid] for lid, y in load.items()])
    return worst


def _csv_rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()[1:]]


def _experiment_task(ol, label, scenario) -> Task:
    def run():
        result = ol.run_experiment(scenario)
        return result, result.trace.to_csv(), result.summary_csv(), result.phase_csv()

    def check(output) -> Outcome:
        result, trace_csv, summary_csv, phase_csv = output
        out = Outcome(digests={
            "trace.csv": sha256(trace_csv),
            "summary.csv": sha256(summary_csv),
            "phase.csv": sha256(phase_csv),
        })
        for t, plan in result.plans:
            if plan.optimality != "proved-optimal":
                out.misses.append(f"plan at t={t} is {plan.optimality}")
        overshoot = phase_overshoot(scenario, result, trace_csv)
        if not overshoot <= 0.01:
            out.problems.append(f"link overshoot {overshoot:.2%} over 1%")
        if scenario.name == "triangle-basic":  # acceptance 1
            by_path = {r[0]: (float(r[1]), float(r[2])) for r in _csv_rows(summary_csv)}
            if by_path.get("A|C", (0,))[0] != 10.0 or by_path.get("A|B|C", (0,))[0] != 5.0:
                out.problems.append(f"targets {by_path}")
            for path, (tgt, act) in by_path.items():
                if not (abs(act - tgt) <= 0.05 * tgt if tgt > 0 else act <= 0.01):
                    out.problems.append(f"path {path}: goodput {act!r} vs target {tgt!r}")
        if scenario.name.startswith("failure-"):  # acceptance 8 ordering
            phases = [float(r[2]) for r in _csv_rows(phase_csv)]
            pre, failed, rerun = phases[0], phases[1], phases[-1]
            if not pre > rerun > failed:
                out.misses.append(f"phase utilities pre {pre!r}, failed {failed!r}, re-run {rerun!r}")
        return out

    return Task(label, "experiment", run, check)


def setup_paper_pipeline(ol, seed: int) -> list[Task]:
    """The paper's experiments one network at a time, with events, mid-run
    re-planning, a sample every simulated second and CSV output."""
    rng = random.Random(seed)
    tasks = [
        _experiment_task(ol, name, ol.build_paper_scenario(name))
        for name in ("triangle-basic", "failure-triangle")
    ]
    # Sixteen failure-large runs (about 0.2 s each) hold the median task, and
    # the step-bound 200 s runs (about 0.5 s each) hold the tail.
    for name, count in (("failure-large", 16), ("hop-study", 6)):
        for matching in rng.sample(range(10**6), count):
            scenario = ol.build_paper_scenario(name, seed=matching)
            tasks.append(_experiment_task(ol, f"{name}/{matching}", scenario))
    return tasks


def warmup_paper_pipeline(ol) -> None:
    scenario = dataclasses.replace(ol.build_paper_scenario("triangle-basic"), duration=20.0)
    result = ol.run_experiment(scenario)
    result.trace.to_csv()
    result.summary_csv()
    result.phase_csv()


WORKLOADS = {
    "plan-threshold": Workload(setup_plan_threshold, warmup_plan_threshold, 9.0),
    "sim-sweep": Workload(setup_sim_sweep, warmup_sim_sweep, 11.0),
    "paper-pipeline": Workload(setup_paper_pipeline, warmup_paper_pipeline, 7.6),
}
