"""Planner tests against independent brute-force oracles.

The oracle enumerates (session-vector, utility-piece) candidates and solves
each inner polytope by vertex enumeration with numpy.linalg — it shares no
code with the tableau simplex the planner uses.  Exact agreement with the
planner's previous exhaustive search is in ``test_planner_oracle.py``.
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from overlaylab.lp import solve_lp
from overlaylab.model import (
    INF,
    Flow,
    Link,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    enumerate_paths,
    link_id,
)
from overlaylab.planner import (
    Plan,
    PlanningProblem,
    _perspective_lp,
    _worst,
    check_kkt,
    solve_plan,
)
from overlaylab.scenarios import add_sites, load_bundled_topology
from overlaylab.sim import Simulator
from overlaylab.weights import TransportConfig

U_B = PiecewiseLinearUtility.linear(0.2)
# 0 up to 0.8, then 0.1x, then 0.005x + 0.114 past the 1.2 kink.
U_A = PiecewiseLinearUtility.from_points(
    [(0.0, 0.0, 0.0), (0.8, 0.1, 0.0), (1.2, 0.005, 0.114)]
)


def L(src, dst, cap):
    return Link(link_id(src, dst), src, dst, cap)


def single_link(cap=10.0, utility=U_B, max_sessions=1):
    topo = Topology("one", {"A": "site", "B": "site"}, [L("A", "B", cap)])
    cls = TrafficClass("k", "A", "B", max_sessions, utility)
    flows = {"k": [Flow("k:0", "k", ("A->B",))]}
    return PlanningProblem(topo, [cls], flows)


def triangle_problem():
    nodes = {"A": "site", "B": "site", "C": "site"}
    links = [
        L("A", "B", 10), L("B", "A", 10),
        L("A", "C", 10), L("C", "A", 10),
        L("B", "C", 5), L("C", "B", 5),
    ]
    topo = Topology("tri", nodes, links)
    cls = TrafficClass("ac", "A", "C", 1, U_B)
    flows = {"ac": [Flow("ac:0", "ac", ("A->C",)), Flow("ac:1", "ac", ("A->B", "B->C"))]}
    return PlanningProblem(topo, [cls], flows)


# -- independent oracle -----------------------------------------------------


def _vertex_max(c, a, b, lo, hi):
    """Exact max of c.x over {a x <= b, lo <= x <= hi} by vertex enumeration."""
    m, n = a.shape
    rows = [(a[i], b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((-e, -lo[j]))
        if np.isfinite(hi[j]):
            rows.append((e, hi[j]))
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, rhs)
        ok = all(float(r @ x) <= v + 1e-8 for r, v in rows)
        if ok:
            v = float(c @ x)
            if best is None or (v, tuple(-x)) > (best[0], tuple(-best[1])):
                best = (v, x)
    return best


def oracle_utility(problem):
    """Best cumulative utility by exhaustive (n, piece) enumeration."""
    classes = problem.classes
    flows = [f for c in classes for f in problem.flows[c.id]]
    fidx = {f.id: j for j, f in enumerate(flows)}
    links = problem.topology.links
    best = 0.0
    by_id = {c.id: c for c in classes}
    piece_lists = [by_id[f.class_id].utility.pieces for f in flows]
    # Aggregate per class lands in one piece; with one flow per class (true for
    # the generated instances) per-flow piece enumeration is exact.
    for n in itertools.product(*(range(c.max_sessions + 1) for c in classes)):
        nmap = dict(zip((c.id for c in classes), n))
        active = [f for f in flows if nmap[f.class_id] > 0]
        if not active:
            continue
        for choice in itertools.product(
            *(piece_lists[fidx[f.id]] for f in active)
        ):
            nn = len(active)
            c_vec = np.array(
                [nmap[f.class_id] * p.a for f, p in zip(active, choice)]
            )
            lo = np.array([p.x_lo for p in choice])
            hi = np.array([p.x_hi for p in choice])
            a = np.zeros((len(links), nn))
            b = np.array([ln.capacity_mbps for ln in links])
            for j, f in enumerate(active):
                for lid in f.route:
                    a[[ln.id for ln in links].index(lid), j] = nmap[f.class_id]
            hi_eff = np.where(
                np.isfinite(hi), hi, np.max(b) if len(b) else 0.0
            )
            hi_eff = np.maximum(hi_eff, lo)
            res = _vertex_max(c_vec, a, b, lo, hi_eff)
            if res is None:
                continue
            x = np.clip(res[1], lo, hi_eff)
            agg = {}
            for f, xv in zip(active, x):
                agg[f.class_id] = agg.get(f.class_id, 0.0) + float(xv)
            val = sum(
                nmap[c.id] * c.utility.value(agg.get(c.id, 0.0))
                for c in classes
            )
            best = max(best, val)
    return best


# -- pinned examples --------------------------------------------------------


def test_single_link_linear():
    plan = solve_plan(single_link())
    assert plan.n == {"k": 1}
    assert plan.rates["k:0"] == pytest.approx(10.0)
    assert plan.duals["A->B"] == pytest.approx(0.2)
    assert plan.utility == pytest.approx(2.0)
    assert plan.optimality == "proved-optimal"
    assert check_kkt(single_link(), plan).ok()


def test_single_link_threshold_utility_session_tie_break():
    # Any n in 9..12 at x = 10/n lands on the 0.1x piece with utility 1.0;
    # the tie-break picks the fewest sessions.
    problem = single_link(utility=U_A, max_sessions=20)
    plan = solve_plan(problem)
    assert plan.utility == pytest.approx(1.0)
    assert plan.n == {"k": 9}
    assert plan.rates["k:0"] == pytest.approx(10.0 / 9.0)
    assert plan.duals["A->B"] == pytest.approx(0.1)
    assert check_kkt(problem, plan).ok()


def test_triangle_splits_across_both_routes():
    plan = solve_plan(triangle_problem())
    assert plan.rates["ac:0"] == pytest.approx(10.0)
    assert plan.rates["ac:1"] == pytest.approx(5.0)
    assert plan.utility == pytest.approx(3.0)
    assert plan.duals["A->C"] == pytest.approx(0.2)
    assert plan.duals["B->C"] == pytest.approx(0.2)


def test_scalable_class_collapses_to_one_session():
    # Linear-through-origin utility: sessions are interchangeable, so the
    # plan reports one session carrying the aggregate rate.
    plan = solve_plan(single_link(max_sessions=4))
    assert plan.n == {"k": 1}
    assert plan.rates["k:0"] == pytest.approx(10.0)
    assert plan.utility == pytest.approx(2.0)


def test_zero_slope_segment_pins_rate_low():
    flat = PiecewiseLinearUtility.from_points([(0.0, 0.1, 0.0), (3.0, 0.0, 0.3)])
    plan = solve_plan(single_link(utility=flat))
    assert plan.rates["k:0"] == pytest.approx(3.0)
    assert plan.utility == pytest.approx(0.3)


def test_zero_sessions_when_utility_flat_zero():
    zero = PiecewiseLinearUtility.from_points([(0.0, 0.0, 0.0)])
    plan = solve_plan(single_link(utility=zero))
    assert plan.n == {"k": 0}
    assert plan.utility == 0.0


def test_plan_json_round_trip():
    plan = solve_plan(triangle_problem())
    again = Plan.from_json_dict(plan.to_json_dict())
    assert again == plan


def test_a_plan_is_read_only_and_keeps_copies_of_its_maps():
    n, rates, duals = {"k": 1}, {"k:0": 10.0}, {"A->B": 0.2}
    plan = Plan(n, rates, duals, 2.0, "proved-optimal")
    text = plan.to_json()
    # Edits to the caller's dicts do not reach the plan.
    n["k"], rates["k:1"], duals["A->B"] = 5, 1.0, 0.0
    assert plan.to_json() == text
    for mapping, key, value in ((plan.n, "nope", 3), (plan.rates, "k:0", 0.0), (plan.duals, "A->B", 1.0)):
        with pytest.raises(TypeError):
            mapping[key] = value
    for f in dataclasses.fields(plan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, f.name, getattr(plan, f.name))
    assert plan.to_json() == text


def test_determinism():
    a = solve_plan(triangle_problem())
    b = solve_plan(triangle_problem())
    assert a == b


# -- flow layout --------------------------------------------------------------


def abilene_problem():
    topo = add_sites(load_bundled_topology("abilene"), uplink_mbps=30.0, core_mbps=10.0)
    s = topo.sites()
    classes = [
        TrafficClass(f"k{i}", a, b, 2, U_A)
        for i, (a, b) in enumerate([(s[0], s[5]), (s[3], s[1]), (s[2], s[7])])
    ]
    # The middle class has no flows, so class and flow positions differ.
    by_class = {
        c.id: [Flow(f"{c.id}:{j}", c.id, r) for j, r in enumerate(enumerate_paths(topo, c.src, c.dst, 2))]
        for c in (classes[0], classes[2])
    }
    return PlanningProblem(topo, classes, by_class)


def test_problem_builds_the_flow_layout_the_simulator_shares():
    problem = abilene_problem()
    topo, classes, by_class = problem.topology, problem.classes, problem.flows
    flows = problem.all_flows()

    assert problem.link_ids == tuple(ln.id for ln in topo.links)
    assert problem.capacity.tolist() == [ln.capacity_mbps for ln in topo.links]
    assert problem.incidence.shape == (len(topo.links), len(flows))
    assert set(np.unique(problem.incidence)) == {0.0, 1.0}
    for j, f in enumerate(flows):
        marked = [problem.link_ids[i] for i in np.flatnonzero(problem.incidence[:, j])]
        assert sorted(marked) == sorted(f.route)
    assert [classes[k].id for k in problem.flow_class] == [f.class_id for f in flows]
    tables = (problem.capacity, problem.incidence, problem.flow_class)
    assert not any(table.flags.writeable for table in tables)
    # The layout is not a dataclass field, so equality is unchanged.
    assert [f.name for f in dataclasses.fields(problem)] == ["topology", "classes", "flows"]
    assert problem == PlanningProblem(topo, classes, dict(by_class))

    config = TransportConfig(dict.fromkeys((f.id for f in flows), 1.0), {c.id: 1 for c in classes}, 0.001)
    sim = Simulator(problem, config)
    assert sim.incidence is problem.incidence
    assert sim._class_idx is problem.flow_class
    assert sim.link_ids is problem.link_ids
    # The simulator's capacities are a copy: its events leave the problem's alone.
    assert sim.capacity.tolist() == problem.capacity.tolist()
    sim.set_capacity(problem.link_ids[0], 1.0)
    assert sim.capacity[0] == 1.0 and problem.capacity[0] == topo.links[0].capacity_mbps != 1.0


def _loop_incidence(problem):
    """The 0/1 link-by-flow incidence built one flow and one link at a time."""
    row = {lid: i for i, lid in enumerate(problem.link_ids)}
    flows = problem.all_flows()
    ref = np.zeros((len(row), len(flows)))
    for j, f in enumerate(flows):
        for lid in f.route:
            ref[row[lid], j] = 1.0
    return ref


def test_incidence_equals_a_loop_built_reference():
    no_flows = PlanningProblem(single_link().topology, single_link().classes, {})
    instances = [no_flows, single_link(), triangle_problem(), abilene_problem(), *map(_random_instance, range(20))]
    for problem in instances:
        ref = _loop_incidence(problem)
        assert problem.incidence.dtype == ref.dtype and np.array_equal(problem.incidence, ref)


def test_every_root_relaxation_is_bounded():
    # Capacity rows and lower bounds are >= 0, so a column with a positive
    # capacity entry is bounded by that row; every other column must have a
    # finite upper bound.  Then no bound LP can be unbounded.
    instances = [single_link(), single_link(utility=U_A, max_sessions=3), triangle_problem(),
                 abilene_problem(), *map(_random_instance, range(20))]
    for problem in instances:
        program, _ = _perspective_lp(problem)
        lp = program(tuple((0, c.max_sessions, 0, len(c.utility.pieces) - 1) for c in problem.classes))
        used = problem.incidence.any(axis=1)
        capacity_rows = lp.a[: used.sum()]
        assert list(lp.b[: used.sum()]) == list(problem.capacity[used])
        assert (capacity_rows >= 0).all() and (lp.lo >= 0).all()
        assert (np.isfinite(lp.hi) | (capacity_rows > 0).any(axis=0)).all()
        assert solve_lp(lp).status == "optimal"


# -- oracle equivalence -----------------------------------------------------


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n_sites = int(rng.integers(2, 4))
    names = [chr(ord("A") + i) for i in range(n_sites)]
    nodes = {s: "site" for s in names}
    links = []
    pairs = [(a, b) for a in names for b in names if a != b]
    rng.shuffle(pairs)
    chosen = pairs[: int(rng.integers(1, min(len(pairs), 4) + 1))]
    # Keep A->B so at least one class has a route.
    if ("A", "B") not in chosen:
        chosen.append(("A", "B"))
    for a, b in chosen:
        links.append(L(a, b, float(rng.integers(1, 11))))
    topo = Topology(f"rand{seed}", nodes, links)
    classes, flows = [], {}
    for ci in range(int(rng.integers(1, 3))):
        cid = f"k{ci}"
        a, b = chosen[int(rng.integers(0, len(chosen)))]
        kind = rng.integers(0, 3)
        if kind == 0:
            u = PiecewiseLinearUtility.linear(float(rng.uniform(0.01, 0.3)))
        elif kind == 1:
            s1 = float(rng.uniform(0.05, 0.3))
            brk = float(rng.uniform(1.0, 4.0))
            s2 = float(rng.uniform(0.0, s1))
            u = PiecewiseLinearUtility.from_points(
                [(0.0, s1, 0.0), (brk, s2, (s1 - s2) * brk)]
            )
        else:
            brk = float(rng.uniform(0.5, 2.0))
            s = float(rng.uniform(0.05, 0.3))
            u = PiecewiseLinearUtility.from_points(
                [(0.0, 0.0, 0.0), (brk, s, 0.0)]
            )
        classes.append(TrafficClass(cid, a, b, int(rng.integers(1, 4)), u))
        flows[cid] = [Flow(f"{cid}:0", cid, (link_id(a, b),))]
    return PlanningProblem(topo, classes, flows)


@pytest.mark.parametrize("seed", range(20))
def test_matches_independent_oracle(seed):
    problem = _random_instance(seed)
    plan = solve_plan(problem)
    assert plan.utility == pytest.approx(oracle_utility(problem), abs=1e-6)


# -- optimality-condition checker -------------------------------------------


def test_kkt_flags_corrupted_rates():
    problem = triangle_problem()
    plan = solve_plan(problem)
    bad = Plan(
        n=dict(plan.n),
        rates={**plan.rates, "ac:0": 12.0},
        duals=dict(plan.duals),
        utility=plan.utility,
        optimality=plan.optimality,
    )
    report = check_kkt(problem, bad)
    assert not report.ok()


def test_kkt_flags_wrong_duals():
    problem = single_link()
    plan = solve_plan(problem)
    bad = Plan(
        n=dict(plan.n),
        rates=dict(plan.rates),
        duals={"A->B": 0.05},
        utility=plan.utility,
        optimality=plan.optimality,
    )
    assert not check_kkt(problem, bad).ok()


def test_kkt_fails_on_nan_plan_values():
    # A NaN dual or rate must surface in the residuals, not drop out of them.
    problem = triangle_problem()
    plan = solve_plan(problem)
    nan_duals = Plan(
        n=dict(plan.n),
        rates=dict(plan.rates),
        duals={lid: math.nan for lid in plan.duals},
        utility=plan.utility,
        optimality=plan.optimality,
    )
    report = check_kkt(problem, nan_duals)
    assert math.isnan(report.dual_sign) and math.isnan(report.gradient)
    assert not report.ok()
    nan_rates = Plan(
        n=dict(plan.n),
        rates={fid: math.nan for fid in plan.rates},
        duals=dict(plan.duals),
        utility=plan.utility,
        optimality=plan.optimality,
    )
    report = check_kkt(problem, nan_rates)
    assert math.isnan(report.feasibility) and math.isnan(report.gradient)
    assert not report.ok()


def test_kkt_residuals_of_a_solved_plan_are_never_negative_zero():
    # A residual is a maximum floored at 0, and -0.0 must not survive it:
    # a zero dual enters the dual-sign maximum negated, as -0.0.
    assert math.copysign(1.0, _worst([-0.0, -1.0])) == 1.0
    assert math.isnan(_worst([-0.0, math.nan]))
    for problem in [triangle_problem(), abilene_problem(), *map(_random_instance, range(10))]:
        report = check_kkt(problem, solve_plan(problem))
        residuals = [report.feasibility, report.dual_sign, report.complementary_slackness, report.gradient]
        assert [math.copysign(1.0, r) for r in residuals] == [1.0] * 4, residuals


def _kkt_by_loops(problem, plan):
    """``check_kkt``'s residuals summed flow by flow and route by route."""
    loads = dict.fromkeys(problem.link_ids, 0.0)
    for c in problem.classes:
        for f in problem.flows[c.id]:
            for lid in f.route:
                loads[lid] += plan.n.get(c.id, 0) * plan.rates.get(f.id, 0.0)
    over = {lid: load - problem.topology.link(lid).capacity_mbps for lid, load in loads.items()}
    feas = [*over.values(), *(-r for r in plan.rates.values())]
    for c in problem.classes:
        feas += [plan.n.get(c.id, 0) - c.max_sessions, -plan.n.get(c.id, 0)]
    comp = [abs(plan.duals.get(lid, 0.0) * v) for lid, v in over.items()]
    grad, skipped = [], []
    agg = plan.aggregate_rates(problem)
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        lo, hi = c.utility.slope_range(agg[c.id]) if nk else (0.0, 0.0)
        for f in problem.flows[c.id]:
            if nk == 0 or plan.rates.get(f.id, 0.0) <= 1e-7:
                skipped.append((f.id, "zero rate" if nk else "class admits no sessions"))
                continue
            price = nk * sum(plan.duals.get(lid, 0.0) for lid in f.route)
            grad += [nk * lo - price, price - nk * hi]
    dual_sign = [-plan.duals.get(lid, 0.0) for lid in problem.link_ids]
    return [max([0.0, *r]) for r in (feas, dual_sign, comp, grad)], skipped


def test_kkt_residuals_match_a_loop_over_routes():
    # Link loads and route prices are matrix products over the flow layout;
    # they may add in another order than these loops, so they agree to a
    # relative 1e-12, and the skipped flows and verdicts are equal.
    for problem in [triangle_problem(), abilene_problem(), *map(_random_instance, range(20))]:
        plan = solve_plan(problem)
        rng = np.random.default_rng(len(problem.all_flows()))
        for scale in (0.0, 0.05, 0.5):
            noisy = Plan(
                n={k: max(0, v - int(scale > 0.1)) for k, v in plan.n.items()},
                rates={k: v * (1 + scale * rng.random()) for k, v in plan.rates.items()},
                duals={k: v + scale * rng.random() for k, v in plan.duals.items()},
                utility=plan.utility,
                optimality=plan.optimality,
            )
            report = check_kkt(problem, noisy)
            residuals, skipped = _kkt_by_loops(problem, noisy)
            got = [report.feasibility, report.dual_sign, report.complementary_slackness, report.gradient]
            assert got == pytest.approx(residuals, rel=1e-12, abs=1e-15)
            assert report.skipped_flows == skipped
            assert report.ok() == (max(residuals) <= 1e-6)
