"""Scenario engine: topology loading, named experiments, and study sweeps.

Builds the experiment setups used by the acceptance suite, orchestrates the
solve -> map -> simulate pipeline with timed events, and emits the CSV tables
the CLI exposes.  Topologies come from inline JSON or Topology Zoo style
GraphML files (two are bundled under ``data/``).
"""
from __future__ import annotations

import functools
import importlib.resources
import json
import math
import random
import xml.etree.ElementTree as ET
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

from .model import (
    ROUTER,
    SITE,
    Flow,
    Link,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    enumerate_paths,
    json_number,
    json_object,
    link_id,
    numbered_flows,
    read_only,
    sample_random_paths,
)
from .planner import Plan, PlanningProblem, check_plan_ids, solve_plan
from .sim import DEFAULT_DT, Event, SimTrace, Simulator, run_batch
from .weights import DEFAULT_GAIN, compute_weights

PAPER_SCENARIOS = (
    "triangle-basic",
    "hop-study",
    "random-path-study",
    "robustness-sweep",
    "demand-sweep",
    "failure-triangle",
    "failure-large",
)


class ScenarioError(ValueError):
    pass


# ---------------------------------------------------------------------------
# GraphML ingestion


def parse_graphml(text: str | bytes) -> Topology:
    """Topology Zoo style GraphML: nodes become routers, edges become
    directed link pairs with a placeholder 10 Mbps capacity (scenario config
    assigns real capacities)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ScenarioError(f"malformed GraphML: {exc}") from None
    ns = ""
    if root.tag.startswith("{"):
        ns = root.tag[: root.tag.index("}") + 1]
    graph = root.find(f"{ns}graph")
    if graph is None:
        raise ScenarioError("GraphML has no <graph> element")
    nodes: dict[str, str] = {}
    for i, el in enumerate(graph.findall(f"{ns}node")):
        nid = el.get("id")
        if nid is None:
            raise ScenarioError(f"node #{i} has no id attribute")
        if nid in nodes:
            raise ScenarioError(f"duplicate node id {nid!r}")
        nodes[nid] = ROUTER
    links: list[Link] = []
    seen: set[tuple[str, str]] = set()
    for i, el in enumerate(graph.findall(f"{ns}edge")):
        src, dst = el.get("source"), el.get("target")
        if src is None or dst is None:
            raise ScenarioError(f"edge #{i} is missing source/target")
        if src not in nodes or dst not in nodes:
            raise ScenarioError(f"edge #{i} references unknown node")
        if src == dst:
            raise ScenarioError(f"edge #{i} is a self-loop on {src!r}")
        if (src, dst) in seen or (dst, src) in seen:
            raise ScenarioError(f"edge #{i} duplicates link {src!r}-{dst!r}")
        seen.add((src, dst))
        links.append(Link(link_id(src, dst), src, dst, 10.0))
        links.append(Link(link_id(dst, src), dst, src, 10.0))
    name = graph.get("id") or "graphml"
    return Topology(name, nodes, links)


@functools.cache
def load_bundled_topology(name: str) -> Topology:
    """One of the GraphML files shipped with the package, parsed once: each call returns that topology."""
    path = importlib.resources.files("overlaylab").joinpath(f"data/{name}.graphml")
    try:
        return parse_graphml(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"no bundled topology named {name!r}") from None


@functools.cache
def bundled_with_sites(name: str, uplink_mbps: float, core_mbps: float) -> Topology:
    """A bundled topology with sites attached (``add_sites``), built once per (name, uplink, core)."""
    return add_sites(load_bundled_topology(name), uplink_mbps, core_mbps)


def add_sites(topology: Topology, uplink_mbps: float = 30.0, core_mbps: float = 10.0) -> Topology:
    """Attach one site per router via an uplink of the given capacity.

    Core (router-router) links are reset to ``core_mbps``.  Site ids are the
    router id prefixed with ``s-``.
    """
    nodes = dict(topology.nodes)
    links = [
        Link(ln.id, ln.src, ln.dst, core_mbps) for ln in topology.links
    ]
    for r in sorted(topology.nodes):
        site = f"s-{r}"
        nodes[site] = SITE
        links.append(Link(link_id(site, r), site, r, uplink_mbps))
        links.append(Link(link_id(r, site), r, site, uplink_mbps))
    return Topology(topology.name, nodes, links)


# ---------------------------------------------------------------------------
# scenario description


@dataclass(frozen=True)
class Scenario:
    """A full experiment description: who talks, over what, and what changes.

    A scenario is checked once, on construction, and is frozen.  It keeps the
    estimate's ``PlanningProblem`` (the truth with ``estimate_overrides``) that
    the check builds, and holds that problem's own ``classes`` tuple and
    read-only ``flows`` mapping, a read-only copy of ``estimate_overrides`` and
    a tuple of ``events``, so no edit can undo a check.
    """

    name: str
    topology: Topology  # ground truth
    classes: tuple[TrafficClass, ...]
    flows: Mapping[str, tuple[Flow, ...]]
    estimate_overrides: Mapping[str, float] = field(default_factory=dict)
    events: tuple[Event, ...] = ()
    duration: float = 200.0
    dt: float = DEFAULT_DT
    gamma: float = DEFAULT_GAIN
    pinned_plan: Plan | None = None  # bypass the solver (stale-knowledge studies)

    def __post_init__(self):
        # The CLI writes <name>-trace.csv, so the name must be one file name.
        if not (isinstance(self.name, str) and self.name not in ("", ".", "..")
                and not {"/", "\\"} & set(self.name)):
            raise ScenarioError(
                f"name must be a non-empty string without / or \\, not . or .., got {self.name!r}"
            )
        # Written as "not (value > 0)" so that NaN fails too.
        for name in ("duration", "dt", "gamma"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ScenarioError(f"{name} must be finite and > 0, got {value}")
        # run_experiment samples once a second, which must be whole steps (as ``Simulator.run`` rounds).
        if round(1.0 / self.dt, 6) % 1:
            raise ScenarioError(f"dt must divide one second, the interval a run samples at, got {self.dt}")
        # The dataclass is frozen, so attributes are set through object.__setattr__.
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "estimate_overrides", read_only(self.estimate_overrides))
        ts = [e.t for e in self.events]
        if ts != sorted(ts):
            raise ScenarioError("events must be sorted by time")
        for e in self.events:
            if not (0 <= e.t <= self.duration):
                raise ScenarioError(f"event at t={e.t} outside [0, duration]")
        # Checks the overrides, the classes and flows against the topology, and the plan's ids.
        estimate = PlanningProblem(self.topology.with_capacities(self.estimate_overrides), self.classes, self.flows)
        object.__setattr__(self, "_estimate", estimate)
        object.__setattr__(self, "classes", estimate.classes)
        object.__setattr__(self, "flows", estimate.flows)
        if self.pinned_plan is not None:
            check_plan_ids(estimate, self.pinned_plan)
        for i, e in enumerate(self.events):
            if e.kind == "set-capacity":
                self.topology.link(e.payload["link"])
            if e.kind == "set-sessions" and e.payload["class"] not in {c.id for c in self.classes}:
                raise ScenarioError(f"event references unknown class {e.payload['class']!r}")
            if e.kind == "install-config":
                # run_experiment makes this kind from each re-plan; a scenario has no form for its config.
                raise ScenarioError(f"event #{i} (install-config at t={e.t}): a scenario re-plans by rerun-planner")

    def problem(self, topology: Topology | None = None) -> PlanningProblem:
        """The problem on ``topology``, built anew; by default the kept estimate, the one the scenario checked."""
        if topology is None:
            return self._estimate
        return PlanningProblem(topology, self.classes, self.flows)

    # -- JSON round trip ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "topology": self.topology.to_json_dict(),
            "classes": [c.to_json_dict() for c in self.classes],
            "flows": {
                k: [{"id": f.id, "route": list(f.route)} for f in fl]
                for k, fl in sorted(self.flows.items())
            },
            "estimate_overrides": dict(sorted(self.estimate_overrides.items())),
            "events": [
                {"t": e.t, "kind": e.kind, "payload": dict(e.payload)} for e in self.events
            ],
            "duration": self.duration,
            "dt": self.dt,
            "gamma": self.gamma,
            "pinned_plan": (
                self.pinned_plan.to_json_dict() if self.pinned_plan else None
            ),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(obj: dict) -> "Scenario":
        topology = Topology.from_json_dict(obj["topology"])
        classes = [TrafficClass.from_json_dict(c) for c in obj["classes"]]
        flows = {
            k: [Flow(f["id"], k, tuple(f["route"])) for f in fl]
            for k, fl in json_object(obj["flows"], "flows").items()
        }
        if not isinstance(obj.get("events", []), list):
            raise ScenarioError(f"events must be a JSON list, got {type(obj['events']).__name__}")
        events = []
        for i, e in enumerate(obj.get("events", [])):
            e = json_object(e, f"event #{i}")
            payload = json_object(e.get("payload", {}), f"event #{i} payload")
            events.append(Event(json_number(e["t"], "event t"), e["kind"], payload))
        # An absent number takes the field's default.
        numbers = {k: json_number(obj[k], k) for k in ("duration", "dt", "gamma") if k in obj}
        return Scenario(
            name=obj["name"],
            topology=topology,
            classes=classes,
            flows=flows,
            estimate_overrides={
                k: json_number(v, f"estimate_overrides of {k!r}")
                for k, v in json_object(
                    obj.get("estimate_overrides", {}), "estimate_overrides"
                ).items()
            },
            events=events,
            pinned_plan=(
                Plan.from_json_dict(obj["pinned_plan"])
                if obj.get("pinned_plan")
                else None
            ),
            **numbers,
        )


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentResult:
    scenario: Scenario
    trace: SimTrace
    plans: list[tuple[float, Plan]]
    phase_utilities: list[tuple[float, float, float]]  # (start, end, mean utility)
    summary_rows: list[tuple[str, float, float]]  # (path, target, actual)

    def summary_csv(self) -> str:
        return study_csv(self.summary_rows, "path,target_mbps,actual_mbps")

    def phase_csv(self) -> str:
        return study_csv(self.phase_utilities, "phase_start,phase_end,mean_utility")


def _route_label(topology: Topology, flow: Flow) -> str:
    nodes = [topology.link(flow.route[0]).src]
    for lid in flow.route:
        nodes.append(topology.link(lid).dst)
    return "|".join(nodes)


def run_experiment(scenario: Scenario) -> ExperimentResult:
    """Solve, map, simulate with the scenario's timeline, summarize.

    The run samples every second, and the phases cut [0, duration] at the
    event times.  A sample at an event's time reads the state before that
    event, so it counts in the phase that ends there: a phase's mean covers
    the samples taken after its opening events applied, through the sample
    at its closing event (the horizon's, for the last phase).  Each sample's
    phase is the one that opens at its ``trace.since``.
    """
    problem_est = scenario.problem()
    if scenario.pinned_plan is not None:
        plan = scenario.pinned_plan
    else:
        plan = solve_plan(problem_est)
    config = compute_weights(problem_est, plan, gain=scenario.gamma)
    plans: list[tuple[float, Plan]] = [(0.0, plan)]

    sim = Simulator(scenario.problem(scenario.topology), config, dt=scenario.dt, initial_rates=plan.rates)

    # Every event reaches the simulator as it is, except that a re-plan
    # becomes the install of its new plan's config and rates.  The truth it
    # plans on is built there once, from the capacities set so far.
    events: list[Event] = []
    changed: dict[str, float] = {}
    for ev in scenario.events:
        if ev.kind == "set-capacity":
            changed[ev.payload["link"]] = ev.payload["capacity_mbps"]
        if ev.kind != "rerun-planner":
            events.append(ev)
            continue
        stale = ev.payload.get("knowledge") == "stale"
        prob = scenario.problem(None if stale else scenario.topology.with_capacities(changed))
        new_plan = solve_plan(prob)
        plans.append((ev.t, new_plan))
        new_config = compute_weights(prob, new_plan, gain=scenario.gamma)
        events.append(Event(ev.t, "install-config", {"config": new_config, "rates": new_plan.rates}))

    trace = sim.run(duration=scenario.duration, events=events, sample_every=1.0)

    # Phases partition [0, duration] at event times, and each sample counts in
    # the phase that opens at the last event applied before it (``trace.since``).
    cuts = sorted({0.0, scenario.duration} | {e.t for e in scenario.events})
    utils: dict[float, list[float]] = {a: [] for a in cuts[:-1]}
    for a, u in zip(trace.since, trace.utility):
        utils[a].append(u)
    phase_utilities = [(a, b, sum(u) / len(u) if u else 0.0) for (a, u), b in zip(utils.items(), cuts[1:])]

    final_good = trace.final_goodputs()
    summary_rows = []
    for f in sim.flows:
        target = plans[-1][1].rates.get(f.id, 0.0)
        summary_rows.append(
            (_route_label(scenario.topology, f), target, final_good.get(f.id, 0.0))
        )
    return ExperimentResult(scenario, trace, plans, phase_utilities, summary_rows)


# ---------------------------------------------------------------------------
# paper scenario construction


def triangle_topology() -> Topology:
    """Sites A, B and C, linked both ways: B-C at 5 Mbps, the rest at 10 Mbps."""
    nodes = {"A": SITE, "B": SITE, "C": SITE}
    links = []
    for s, d in [("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"), ("B", "C"), ("C", "B")]:
        cap = 5.0 if {s, d} == {"B", "C"} else 10.0
        links.append(Link(link_id(s, d), s, d, cap))
    return Topology("triangle", nodes, links)


def _flows_for(topology: Topology, cls: TrafficClass, max_hops: int) -> list[Flow]:
    return numbered_flows(cls.id, enumerate_paths(topology, cls.src, cls.dst, max_hops))


def build_paper_scenario(name: str, seed: int = 7) -> Scenario:
    """Construct one of the named experiment scenarios."""
    if name in ("triangle-basic", "failure-triangle"):
        topo = triangle_topology()
        classes = [TrafficClass("ac", "A", "C", 1, PiecewiseLinearUtility.linear(0.2)),
                   TrafficClass("bc", "B", "C", 1, PiecewiseLinearUtility.linear(0.1))]
        flows = {c.id: _flows_for(topo, c, 2) for c in classes}
        if name == "triangle-basic":
            return Scenario(name, topo, classes, flows, duration=200.0)
        events = [
            Event(60.0, "set-capacity", {"link": "A->B", "capacity_mbps": 1.0}),
            Event(140.0, "rerun-planner", {"knowledge": "current-truth"}),
        ]
        return Scenario(name, topo, classes, flows, events=events, duration=220.0)

    if name == "failure-large":
        topo = bundled_with_sites("abilene", 10.0, 10.0)
        classes, flows = _study_classes(topo, seed=seed, max_hops=2)
        dead = _links_of_busiest_routers(load_bundled_topology("abilene"), count=2)
        events = [
            Event(40.0, "set-capacity", {"link": lid, "capacity_mbps": 0.001})
            for lid in dead
        ] + [Event(150.0, "rerun-planner", {"knowledge": "current-truth"})]
        events.sort(key=lambda e: e.t)
        return Scenario(
            "failure-large", topo, classes, flows, events=events, duration=240.0, dt=0.05
        )

    if name == "robustness-sweep":
        # Disjoint flows over A->B and B->C; the planner sees A->B at 3 Mbps.
        topo = triangle_topology().with_capacities({"A->B": 3.0})
        u1 = PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)])
        c1 = TrafficClass("ab", "A", "B", 1, u1)
        c2 = TrafficClass("bc", "B", "C", 1, PiecewiseLinearUtility.linear(0.2))
        return Scenario(
            "robustness-sweep", topo, [c1, c2], {c.id: _flows_for(topo, c, 1) for c in (c1, c2)},
            estimate_overrides={"A->B": 3.0}, duration=4000.0, dt=0.1,
        )

    if name == "demand-sweep":
        topo = triangle_topology().with_capacities({"A->B": 3.0})
        slope = 0.0005
        ca = TrafficClass("hi", "A", "C", 11, PiecewiseLinearUtility.linear(slope))
        cb = TrafficClass("lo", "B", "C", 1, PiecewiseLinearUtility.linear(slope))
        flows = {
            "hi": [Flow("hi:0", "hi", ("A->B", "B->C"))],
            "lo": [Flow("lo:0", "lo", ("B->C",))],
        }
        plan = Plan(
            n={"hi": 11, "lo": 1},
            rates={"hi:0": 3.0 / 11.0, "lo:0": 2.0},
            duals={lid: 0.0 for lid in (l.id for l in topo.links)} | {"B->C": slope},
            utility=slope * 5.0,
            optimality="proved-optimal",
        )
        return Scenario(
            "demand-sweep", topo, [ca, cb], flows,
            duration=500.0, dt=0.05, pinned_plan=plan,
        )

    if name in ("hop-study", "random-path-study"):
        topo = bundled_with_sites("abilene", 30.0, 10.0)
        classes, flows = _study_classes(topo, seed=seed, max_hops=2)
        return Scenario(name, topo, classes, flows, duration=200.0)

    raise ScenarioError(
        f"unknown scenario {name!r}; valid names: {', '.join(PAPER_SCENARIOS)}"
    )


def _links_of_busiest_routers(topology: Topology, count: int) -> list[str]:
    """All link ids touching the highest-out-degree routers (ties by node id)."""
    degree: dict[str, int] = {n: 0 for n in topology.nodes}
    for ln in topology.links:
        degree[ln.src] += 1
    ranked = sorted(degree, key=lambda n: (-degree[n], n))[:count]
    chosen = set(ranked)
    return sorted(
        ln.id for ln in topology.links if ln.src in chosen or ln.dst in chosen
    )


STUDY_SLOPES = (0.2, 0.1, 0.05)


def _study_classes(
    topology: Topology, seed: int, max_hops: int
) -> tuple[list[TrafficClass], dict[str, list[Flow]]]:
    """Traffic classes pairing up the sites, matching chosen by seeded shuffle.

    A partially loaded overlay: each site is an endpoint of at most one class,
    so half the site pairs in the matching sense carry traffic.  Utility
    slopes cycle through a small priority ladder so classes are not
    interchangeable.
    """
    sites = topology.sites()
    rng = random.Random(seed)
    shuffled = sites[:]
    rng.shuffle(shuffled)
    matched = shuffled[: 2 * (len(sites) // 2)]
    pairs = sorted(
        (min(a, b), max(a, b)) for a, b in zip(matched[0::2], matched[1::2])
    )
    classes: list[TrafficClass] = []
    flows: dict[str, list[Flow]] = {}
    for i, (a, b) in enumerate(pairs):
        cid = f"k{i:02d}-{a}-{b}"
        u = PiecewiseLinearUtility.linear(STUDY_SLOPES[i % len(STUDY_SLOPES)])
        c = TrafficClass(cid, a, b, 1, u)
        classes.append(c)
        flows[cid] = _flows_for(topology, c, max_hops)
    return classes, flows


# ---------------------------------------------------------------------------
# studies and sweeps


def hop_study(
    topologies: dict[str, Topology],
    max_hops: int = 4,
    seed: int = 7,
) -> list[tuple[str, int, float]]:
    """Optimal utility per (topology, hop limit), for each limit 1..max_hops; monotone in the limit."""
    if max_hops < 1:
        raise ScenarioError(f"max_hops must be >= 1, got {max_hops}")
    rows: list[tuple[str, int, float]] = []
    for name in sorted(topologies):
        topo = topologies[name]
        classes, _ = _study_classes(topo, seed=seed, max_hops=1)
        prev = None
        for h in range(1, max_hops + 1):
            flows = {c.id: _flows_for(topo, c, h) for c in classes}
            plan = solve_plan(PlanningProblem(topo, classes, flows))
            u = plan.utility
            if prev is not None and u < prev - 1e-6:
                raise ScenarioError(
                    f"utility decreased with hop limit on {name}: {prev} -> {u}"
                )
            prev = max(u, prev) if prev is not None else u
            rows.append((name, h, u))
    return rows


def random_path_study(
    topology: Topology,
    k_values: tuple[int, ...] = (0, 1, 2, 4),
    trials: int = 10,
    seed: int = 7,
    max_hops: int = 2,
) -> list[tuple[int, float]]:
    """Mean fraction of the all-paths optimum using k random indirect paths."""
    if trials < 1:
        raise ScenarioError("trials must be >= 1")
    classes, full_flows = _study_classes(topology, seed=seed, max_hops=max_hops)
    optimum = solve_plan(PlanningProblem(topology, classes, full_flows)).utility
    if optimum <= 0:
        raise ScenarioError("all-paths optimum is not positive")
    rows: list[tuple[int, float]] = []
    for k in k_values:
        total = 0.0
        for trial in range(trials):
            flows: dict[str, list[Flow]] = {}
            for ci, c in enumerate(classes):
                full = full_flows[c.id]
                direct, indirect = full[:1], full[1:]
                picked = sample_random_paths(
                    [f.route for f in indirect], k, seed * 10_000 + trial * 100 + ci
                )
                flows[c.id] = numbered_flows(c.id, [f.route for f in direct] + picked)
            total += solve_plan(PlanningProblem(topology, classes, flows)).utility
        rows.append((k, total / trials / optimum))
    return rows


def robustness_sweep(
    capacities: tuple[float, ...] = tuple(float(c) for c in range(1, 11)),
) -> list[tuple[float, float, float, float]]:
    """(capacity, weighted, fixed-rate, unit-weight) equilibrium utilities.

    The plan is solved once against the estimated 3 Mbps A->B capacity and
    held fixed while the true capacity sweeps 1..10 Mbps.  The baselines are
    the plan's config at gain 0 and with every weight 1.
    """
    scenario = build_paper_scenario("robustness-sweep")
    problem_est = scenario.problem()
    plan = solve_plan(problem_est)
    config = compute_weights(problem_est, plan, gain=scenario.gamma)
    configs = (
        config,
        replace(config, gain=0.0),
        replace(config, weights=dict.fromkeys(config.weights, 1.0)),
    )
    truths = [scenario.problem(scenario.topology.with_capacities({"A->B": cap})) for cap in capacities]
    sims = [Simulator(truth, cfg, dt=scenario.dt, initial_rates=plan.rates) for truth in truths for cfg in configs]
    run_batch(sims, scenario.duration)
    utils = [sim.utility() for sim in sims]
    return [(cap, *utils[3 * i : 3 * i + 3]) for i, cap in enumerate(capacities)]


def demand_sweep(
    session_counts: tuple[int, ...] = tuple(range(1, 21)),
) -> list[tuple[int, float, float]]:
    """(sessions, class-hi goodput, class-lo goodput) at the fixed horizon."""
    scenario = build_paper_scenario("demand-sweep")
    problem_est = scenario.problem()
    plan = scenario.pinned_plan
    config = compute_weights(problem_est, plan, gain=scenario.gamma)
    n_planned = plan.n["hi"]
    truth = scenario.problem(scenario.topology)
    sims = []
    for m in session_counts:
        cfg = replace(config, sessions=config.sessions | {"hi": m})
        # Sessions beyond the planned count arrive cold, so the class starts
        # at the planned aggregate; the fluid model averages per session.
        init = plan.rates | ({"hi:0": plan.rates["hi:0"] * n_planned / m} if m > n_planned else {})
        sims.append(Simulator(truth, cfg, dt=scenario.dt, initial_rates=init))
    run_batch(sims, scenario.duration)
    rows = []
    for m, sim in zip(session_counts, sims):
        cg = {}
        good = sim.goodputs()
        for j, f in enumerate(sim.flows):
            cg[f.class_id] = cg.get(f.class_id, 0.0) + float(sim.n[j] * good[j])
        rows.append((m, cg.get("hi", 0.0), cg.get("lo", 0.0)))
    return rows


def study_csv(rows: list[tuple], header: str) -> str:
    """One CSV line per row; a float is written "%.9g", as in the trace."""
    lines = [",".join("%.9g" % v if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"
