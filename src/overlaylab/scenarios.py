"""Scenario engine: topology loading, named experiments, and study sweeps.

Builds the experiment setups used by the acceptance suite, orchestrates the
solve -> map -> simulate pipeline with timed events, and emits the CSV tables
the CLI exposes.  Topologies come from inline JSON or Topology Zoo style
GraphML files (two are bundled under ``data/``).
"""
from __future__ import annotations

import bisect
import importlib.resources
import io
import json
import math
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from .model import (
    ROUTER,
    SITE,
    Flow,
    Link,
    ModelError,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    enumerate_paths,
    link_id,
    sample_random_paths,
)
from .planner import Plan, PlannerConfig, PlanningProblem, solve_plan
from .sim import SimEvent, SimTrace, Simulator, _fmt
from .weights import TransportConfig, compute_weights

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


def load_bundled_topology(name: str) -> Topology:
    """Load one of the GraphML files shipped with the package."""
    path = importlib.resources.files("overlaylab").joinpath(f"data/{name}.graphml")
    try:
        return parse_graphml(path.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"no bundled topology named {name!r}") from None


def add_sites(
    topology: Topology,
    routers: list[str] | None = None,
    uplink_mbps: float = 30.0,
    core_mbps: float = 10.0,
) -> Topology:
    """Attach one site per selected router via an uplink of the given capacity.

    Core (router-router) links are reset to ``core_mbps``.  Site ids are the
    router id prefixed with ``s-``.
    """
    routers = sorted(routers) if routers is not None else sorted(topology.nodes)
    nodes = dict(topology.nodes)
    links = [
        Link(ln.id, ln.src, ln.dst, core_mbps) for ln in topology.links
    ]
    for r in routers:
        if r not in topology.nodes:
            raise ScenarioError(f"unknown router {r!r}")
        site = f"s-{r}"
        nodes[site] = SITE
        links.append(Link(link_id(site, r), site, r, uplink_mbps))
        links.append(Link(link_id(r, site), r, site, uplink_mbps))
    return Topology(topology.name, nodes, links)


# ---------------------------------------------------------------------------
# scenario description


@dataclass
class ScenarioEvent:
    """Timeline entry; ``rerun-planner`` re-solves and installs mid-run."""

    t: float
    kind: str  # set-capacity | set-sessions | rerun-planner | install-config
    payload: dict = field(default_factory=dict)

    KINDS = ("set-capacity", "set-sessions", "rerun-planner", "install-config")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ScenarioError(f"unknown event kind {self.kind!r}")
        if self.kind == "set-capacity" and not (self.payload.get("capacity_mbps", 0) > 0):
            raise ScenarioError("set-capacity requires capacity_mbps > 0")
        if self.kind == "set-sessions" and self.payload.get("n", -1) < 0:
            raise ScenarioError("set-sessions requires n >= 0")
        if self.kind == "rerun-planner" and self.payload.get(
            "knowledge", "current-truth"
        ) not in ("current-truth", "stale"):
            raise ScenarioError("rerun-planner knowledge must be current-truth|stale")


@dataclass
class Scenario:
    """A full experiment description: who talks, over what, and what changes."""

    name: str
    topology: Topology  # ground truth
    classes: list[TrafficClass]
    flows: dict[str, list[Flow]]
    estimate_overrides: dict[str, float] = field(default_factory=dict)
    events: list[ScenarioEvent] = field(default_factory=list)
    duration: float = 200.0
    dt: float = 0.01
    gamma: float = 0.001
    pinned_plan: Plan | None = None  # bypass the solver (stale-knowledge studies)

    def __post_init__(self):
        # Written as "not (value > 0)" so that NaN fails too.
        for name in ("duration", "dt", "gamma"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ScenarioError(f"{name} must be finite and > 0, got {value}")
        ts = [e.t for e in self.events]
        if ts != sorted(ts):
            raise ScenarioError("events must be sorted by time")
        for e in self.events:
            if not (0 <= e.t <= self.duration):
                raise ScenarioError(f"event at t={e.t} outside [0, duration]")
        for lid in self.estimate_overrides:
            self.topology.link(lid)
        for e in self.events:
            if e.kind == "set-capacity":
                self.topology.link(e.payload["link"])
            if e.kind == "set-sessions" and e.payload["class"] not in {
                c.id for c in self.classes
            }:
                raise ScenarioError(f"event references unknown class")

    def estimated_topology(self) -> Topology:
        return self.topology.with_capacities(self.estimate_overrides)

    def problem(self, topology: Topology | None = None) -> PlanningProblem:
        return PlanningProblem(
            topology if topology is not None else self.estimated_topology(),
            self.classes,
            {k: list(v) for k, v in self.flows.items()},
        )

    # -- JSON round trip ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "topology": self.topology.to_json_dict() | {"directed": True},
            "classes": [
                {
                    "id": c.id,
                    "src": c.src,
                    "dst": c.dst,
                    "max_sessions": c.max_sessions,
                    "utility": c.utility.to_json_dict(),
                }
                for c in self.classes
            ],
            "flows": {
                k: [{"id": f.id, "route": list(f.route)} for f in fl]
                for k, fl in sorted(self.flows.items())
            },
            "estimate_overrides": dict(sorted(self.estimate_overrides.items())),
            "events": [
                {"t": e.t, "kind": e.kind, "payload": e.payload} for e in self.events
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
        topo_obj = dict(obj["topology"])
        directed = topo_obj.pop("directed", False)
        if directed:
            for e in topo_obj["links"]:
                e.setdefault("directed", True)
        topology = Topology.from_json_dict(topo_obj)
        classes = [
            TrafficClass(
                c["id"],
                c["src"],
                c["dst"],
                int(c["max_sessions"]),
                PiecewiseLinearUtility.from_json_dict(c["utility"]),
            )
            for c in obj["classes"]
        ]
        flows = {
            k: [Flow(f["id"], k, tuple(f["route"])) for f in fl]
            for k, fl in obj["flows"].items()
        }
        events = [
            ScenarioEvent(float(e["t"]), e["kind"], dict(e.get("payload", {})))
            for e in obj.get("events", [])
        ]
        return Scenario(
            name=obj["name"],
            topology=topology,
            classes=classes,
            flows=flows,
            estimate_overrides={
                k: float(v) for k, v in obj.get("estimate_overrides", {}).items()
            },
            events=events,
            duration=float(obj.get("duration", 200.0)),
            dt=float(obj.get("dt", 0.01)),
            gamma=float(obj.get("gamma", 0.001)),
            pinned_plan=(
                Plan.from_json_dict(obj["pinned_plan"])
                if obj.get("pinned_plan")
                else None
            ),
        )

    @staticmethod
    def from_json(text: str) -> "Scenario":
        try:
            return Scenario.from_json_dict(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"invalid scenario JSON at byte {exc.pos}: {exc.msg}") from None


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
        buf = io.StringIO()
        buf.write("path,target_mbps,actual_mbps\n")
        for path, target, actual in self.summary_rows:
            buf.write(f"{path},{_fmt(target)},{_fmt(actual)}\n")
        return buf.getvalue()

    def phase_csv(self) -> str:
        buf = io.StringIO()
        buf.write("phase_start,phase_end,mean_utility\n")
        for a, b, u in self.phase_utilities:
            buf.write(f"{_fmt(a)},{_fmt(b)},{_fmt(u)}\n")
        return buf.getvalue()


def _route_label(topology: Topology, flow: Flow) -> str:
    nodes = [topology.link(flow.route[0]).src]
    for lid in flow.route:
        nodes.append(topology.link(lid).dst)
    return "|".join(nodes)


def run_experiment(scenario: Scenario, planner_config: PlannerConfig | None = None) -> ExperimentResult:
    """Solve, map, simulate with the scenario's timeline, summarize."""
    problem_est = scenario.problem()
    if scenario.pinned_plan is not None:
        plan = scenario.pinned_plan
    else:
        plan = solve_plan(problem_est, planner_config)
    config = compute_weights(problem_est, plan, gain=scenario.gamma)
    plans: list[tuple[float, Plan]] = [(0.0, plan)]

    truth_problem = scenario.problem(scenario.topology)
    sim = Simulator(
        truth_problem,
        config,
        truth=scenario.topology,
        dt=scenario.dt,
        initial_rates=plan.rates,
    )

    sim_events: list[SimEvent] = []
    current_truth = scenario.topology
    for ev in scenario.events:
        if ev.kind == "set-capacity":
            current_truth = current_truth.with_capacities(
                {ev.payload["link"]: ev.payload["capacity_mbps"]}
            )
            sim_events.append(SimEvent(ev.t, "set-capacity", dict(ev.payload)))
        elif ev.kind == "set-sessions":
            sim_events.append(
                SimEvent(ev.t, "set-sessions", {"class": ev.payload["class"], "n": ev.payload["n"]})
            )
        elif ev.kind == "install-config":
            sim_events.append(SimEvent(ev.t, "install-config", dict(ev.payload)))
        else:  # rerun-planner
            knowledge = ev.payload.get("knowledge", "current-truth")
            topo = (
                scenario.estimated_topology()
                if knowledge == "stale"
                else current_truth
            )
            prob = scenario.problem(topo)
            new_plan = solve_plan(prob, planner_config)
            new_config = compute_weights(prob, new_plan, gain=scenario.gamma)
            plans.append((ev.t, new_plan))
            sim_events.append(
                SimEvent(
                    ev.t,
                    "install-config",
                    {"config": new_config, "rates": dict(new_plan.rates)},
                )
            )

    trace = sim.run(duration=scenario.duration, events=sim_events, sample_every=1.0)

    # Phases partition [0, duration] at event times; the last one also takes
    # a sample at exactly t = duration.
    cuts = sorted({0.0, scenario.duration} | {e.t for e in scenario.events})
    utils: list[list[float]] = [[] for _ in cuts[1:]]
    for r in trace.rows:
        if r[1] == "":
            k = bisect.bisect_right(cuts, r[0]) - 1 - (r[0] == cuts[-1])
            if 0 <= k < len(utils):
                utils[k].append(r[6])
    phase_utilities = [
        (a, b, sum(u) / len(u) if u else 0.0) for a, b, u in zip(cuts, cuts[1:], utils)
    ]

    final_good = trace.final_goodputs()
    summary_rows = []
    for c in scenario.classes:
        for f in scenario.flows[c.id]:
            target = plans[-1][1].rates.get(f.id, 0.0)
            summary_rows.append(
                (_route_label(scenario.topology, f), target, final_good.get(f.id, 0.0))
            )
    return ExperimentResult(scenario, trace, plans, phase_utilities, summary_rows)


# ---------------------------------------------------------------------------
# paper scenario construction


def triangle_topology(bc_mbps: float = 5.0, other_mbps: float = 10.0) -> Topology:
    nodes = {"A": SITE, "B": SITE, "C": SITE}
    links = []
    for s, d in [("A", "B"), ("B", "A"), ("A", "C"), ("C", "A"), ("B", "C"), ("C", "B")]:
        cap = bc_mbps if {s, d} == {"B", "C"} else other_mbps
        links.append(Link(link_id(s, d), s, d, cap))
    return Topology("triangle", nodes, links)


def _flows_for(
    topology: Topology, cls: TrafficClass, max_hops: int
) -> list[Flow]:
    routes = enumerate_paths(topology, cls.src, cls.dst, max_hops)
    return [
        Flow(f"{cls.id}:{i}", cls.id, route) for i, route in enumerate(routes)
    ]


def _triangle_classes() -> tuple[list[TrafficClass], dict[str, list[Flow]]]:
    topo = triangle_topology()
    c1 = TrafficClass("ac", "A", "C", 1, PiecewiseLinearUtility.linear(0.2))
    c2 = TrafficClass("bc", "B", "C", 1, PiecewiseLinearUtility.linear(0.1))
    flows = {c.id: _flows_for(topo, c, 2) for c in (c1, c2)}
    return [c1, c2], flows


def build_paper_scenario(name: str, seed: int = 7) -> Scenario:
    """Construct one of the named experiment scenarios."""
    if name == "triangle-basic":
        topo = triangle_topology()
        classes, flows = _triangle_classes()
        return Scenario("triangle-basic", topo, classes, flows, duration=200.0)

    if name == "failure-triangle":
        topo = triangle_topology()
        classes, flows = _triangle_classes()
        events = [
            ScenarioEvent(60.0, "set-capacity", {"link": "A->B", "capacity_mbps": 1.0}),
            ScenarioEvent(140.0, "rerun-planner", {"knowledge": "current-truth"}),
        ]
        return Scenario("failure-triangle", topo, classes, flows, events=events, duration=220.0)

    if name == "failure-large":
        base = load_bundled_topology("abilene")
        topo = add_sites(base, uplink_mbps=10.0, core_mbps=10.0)
        classes, flows = _study_classes(topo, seed=seed, max_hops=2)
        dead = _links_of_busiest_routers(base, count=2)
        events = [
            ScenarioEvent(40.0, "set-capacity", {"link": lid, "capacity_mbps": 0.001})
            for lid in dead
        ] + [ScenarioEvent(150.0, "rerun-planner", {"knowledge": "current-truth"})]
        events.sort(key=lambda e: e.t)
        return Scenario(
            "failure-large", topo, classes, flows, events=events, duration=240.0, dt=0.05
        )

    if name == "robustness-sweep":
        # Disjoint flows over A->B and B->C; the planner sees A->B at 3 Mbps.
        topo = triangle_topology(bc_mbps=5.0, other_mbps=10.0)
        topo = topo.with_capacities({"A->B": 3.0})
        u1 = PiecewiseLinearUtility.from_points([(0.0, 0.2, 0.0), (3.0, 0.02, 0.54)])
        c1 = TrafficClass("ab", "A", "B", 1, u1)
        c2 = TrafficClass("bc", "B", "C", 1, PiecewiseLinearUtility.linear(0.2))
        flows = {
            "ab": [Flow("ab:0", "ab", ("A->B",))],
            "bc": [Flow("bc:0", "bc", ("B->C",))],
        }
        return Scenario(
            "robustness-sweep", topo, [c1, c2], flows,
            estimate_overrides={"A->B": 3.0}, duration=4000.0, dt=0.1,
        )

    if name == "demand-sweep":
        topo = triangle_topology(bc_mbps=5.0, other_mbps=10.0).with_capacities(
            {"A->B": 3.0}
        )
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
        base = load_bundled_topology("abilene")
        topo = add_sites(base, uplink_mbps=30.0, core_mbps=10.0)
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
    hop_limits: tuple[int, ...] = (1, 2, 3, 4),
    seed: int = 7,
) -> list[tuple[str, int, float]]:
    """Optimal utility per (topology, hop limit); monotone in the limit."""
    rows: list[tuple[str, int, float]] = []
    for name in sorted(topologies):
        topo = topologies[name]
        classes, _ = _study_classes(topo, seed=seed, max_hops=1)
        prev = None
        for h in hop_limits:
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
                routes = [f.route for f in direct] + picked
                flows[c.id] = [
                    Flow(f"{c.id}:{i}", c.id, r) for i, r in enumerate(routes)
                ]
            total += solve_plan(PlanningProblem(topology, classes, flows)).utility
        rows.append((k, total / trials / optimum))
    return rows


def robustness_sweep(
    capacities: tuple[float, ...] = tuple(float(c) for c in range(1, 11)),
) -> list[tuple[float, float, float, float]]:
    """(capacity, weighted, fixed-rate, unit-weight) equilibrium utilities.

    The plan is solved once against the estimated 3 Mbps A->B capacity and
    held fixed while the true capacity sweeps 1..10 Mbps.
    """
    scenario = build_paper_scenario("robustness-sweep")
    problem_est = scenario.problem()
    plan = solve_plan(problem_est)
    config = compute_weights(problem_est, plan, gain=scenario.gamma)
    rows = []
    for cap in capacities:
        truth = scenario.topology.with_capacities({"A->B": cap})
        utils = []
        for mode in ("weighted", "fixed", "unit"):
            sim = Simulator(
                scenario.problem(truth),
                config,
                truth=truth,
                mode=mode,
                dt=scenario.dt,
                initial_rates=plan.rates,
            )
            sim.run(duration=scenario.duration, sample_every=scenario.duration)
            utils.append(sim.utility())
        rows.append((cap, utils[0], utils[1], utils[2]))
    return rows


def demand_sweep(
    session_counts: tuple[int, ...] = tuple(range(1, 21)),
) -> list[tuple[int, float, float]]:
    """(sessions, class-hi goodput, class-lo goodput) at the fixed horizon."""
    scenario = build_paper_scenario("demand-sweep")
    problem_est = scenario.problem()
    plan = scenario.pinned_plan
    config = compute_weights(problem_est, plan, gain=scenario.gamma)
    rows = []
    n_planned = plan.n["hi"]
    for m in session_counts:
        cfg = TransportConfig(
            dict(config.weights),
            dict(config.sessions) | {"hi": m},
            gain=config.gain,
        )
        # Sessions beyond the planned count arrive cold, so the class starts
        # at the planned aggregate; the fluid model averages per session.
        init = dict(plan.rates)
        if m > n_planned:
            init["hi:0"] = plan.rates["hi:0"] * n_planned / m
        sim = Simulator(
            scenario.problem(scenario.topology),
            cfg,
            truth=scenario.topology,
            dt=scenario.dt,
            initial_rates=init,
        )
        sim.run(duration=scenario.duration, sample_every=scenario.duration)
        cg = {}
        good = sim.goodputs()
        for j, f in enumerate(sim.flows):
            cg[f.class_id] = cg.get(f.class_id, 0.0) + float(sim.n[j] * good[j])
        rows.append((m, cg.get("hi", 0.0), cg.get("lo", 0.0)))
    return rows


def study_csv(rows: list[tuple], header: str) -> str:
    buf = io.StringIO()
    buf.write(header + "\n")
    for row in rows:
        buf.write(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
        )
    return buf.getvalue()
