"""Offline rate planner: joint session admission and multipath rate selection.

The planning problem maximizes sum_k n_k U_k(sum_f x_kf) over integer session
counts n and per-session flow rates x, subject to per-link capacity
sum n_k x_kf <= C_l.  With piecewise-linear utilities this is a bilinear
program; fixing n and one utility piece per class leaves a plain LP.  The
solver is one best-first branch-and-bound over boxes that give each class a
session range and a span of its utility pieces.  It splits session ranges
until every count is fixed, then piece spans (disjunctive branching on the
pieces; Keha, de Farias & Nemhauser 2006), and a box with fixed counts and
one piece per class is a candidate, solved by the inner LP.  Every other box
is bounded by the perspective relaxation (Gunluk & Linderoth): with z = n*x,
the term n*env(Z/n) of a concave envelope env = min_i(a_i x + b_i) is exactly
min_i(a_i Z + b_i n), linear in (Z, n), and the envelope is taken on the
rate interval of the box's span (``_perspective_lp``).  Boxes that cannot
beat the incumbent, ties included, are dropped, so equal-utility bands are
not searched.  A candidate pairs the session vector with a class id -> piece
index dict and is scored by ``cumulative_utility`` at the point it reports.
The search's only limit is ``PlannerConfig.bb_node_limit``, which counts
every expanded box, session and piece splits alike; the test suite checks
the search against exhaustive (n, piece) enumeration in
``tests/enum_ref.py`` and its utilities at scale against a MILP.  The LPs
slice their capacity rows from ``PlanningProblem``'s flow layout, which the
simulator shares.

Classes whose utility is linear through the origin are handled by the exact
substitution z = n*x, which removes their session count from the problem; they
are reported with the minimal session count consistent with their rates.
"""
from __future__ import annotations

import functools
import heapq
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .lp import LinearProgram, LpSolution, solve_lp
from .model import (
    INF,
    Flow,
    ModelError,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    check_sessions,
    cumulative_utility,
    json_number,
    json_object,
)

FEAS_TOL = 1e-7
KKT_TOL = 1e-6


class PlannerError(RuntimeError):
    pass


@dataclass
class PlanningProblem:
    """Estimated topology plus traffic classes and their candidate flows.

    The flow layout shared by the planner's LPs and the simulator is built once,
    read-only and outside the dataclass fields: ``link_ids`` in topology order,
    ``flow_class`` (each flow's class index, in ``all_flows()`` order) and the
    0/1 link-by-flow ``incidence`` of the routes.
    """

    topology: Topology
    classes: list[TrafficClass]
    flows: dict[str, list[Flow]]  # class id -> flows

    def __post_init__(self):
        by_id = {c.id: c for c in self.classes}
        if len(by_id) != len(self.classes):
            raise ModelError("duplicate class id")
        for c in self.classes:
            if c.src not in self.topology.nodes or c.dst not in self.topology.nodes:
                raise ModelError(f"class {c.id!r}: src or dst is not a topology node")
        for k, fl in self.flows.items():
            if k not in by_id:
                raise ModelError(f"flows for unknown class {k!r}")
            for f in fl:
                if f.class_id != k:
                    raise ModelError(f"flow {f.id!r} listed under wrong class")
                f.validate(self.topology, by_id[k])
        for c in self.classes:
            self.flows.setdefault(c.id, [])
        self.link_ids = tuple(ln.id for ln in self.topology.links)
        row = {lid: i for i, lid in enumerate(self.link_ids)}
        flows = self.all_flows()
        sizes = [len(self.flows[c.id]) for c in self.classes]
        self.flow_class = np.repeat(np.arange(len(self.classes)), sizes)
        self.incidence = np.zeros((len(self.link_ids), len(flows)))
        for j, f in enumerate(flows):
            self.incidence[[row[lid] for lid in f.route], j] = 1.0
        self.flow_class.flags.writeable = self.incidence.flags.writeable = False

    def all_flows(self) -> list[Flow]:
        out: list[Flow] = []
        for c in self.classes:
            out.extend(self.flows[c.id])
        return out


@dataclass
class Plan:
    """Planner output: admitted sessions, per-session flow rates, link duals."""

    n: dict[str, int]
    rates: dict[str, float]  # flow id -> per-session rate
    duals: dict[str, float]  # link id -> capacity dual
    utility: float
    optimality: str  # "proved-optimal" | "best-found"
    # Largest open relaxation bound minus utility when the search stopped
    # early; 0 when proved.  Not part of the plan's JSON or equality.
    gap: float = field(default=0.0, compare=False)

    def aggregate_rates(self, problem: PlanningProblem) -> dict[str, float]:
        return {
            c.id: sum(self.rates.get(f.id, 0.0) for f in problem.flows[c.id])
            for c in problem.classes
        }

    def to_json_dict(self) -> dict:
        return {
            "n": {k: self.n[k] for k in sorted(self.n)},
            "rates": {k: self.rates[k] for k in sorted(self.rates)},
            "duals": {k: self.duals[k] for k in sorted(self.duals)},
            "utility": self.utility,
            "optimality": self.optimality,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(obj: dict) -> "Plan":
        """Read a plan; session counts follow ``check_sessions``, numbers must be finite."""
        n = json_object(obj["n"], "plan n")
        for k, v in n.items():
            check_sessions(v, f"plan class {k!r}")
        rates, duals = (
            {k: json_number(v, f"plan {name} of {k!r}")
             for k, v in json_object(obj[name], f"plan {name}").items()}
            for name in ("rates", "duals")
        )
        utility = json_number(obj["utility"], "plan utility")
        if not all(map(math.isfinite, [utility, *rates.values(), *duals.values()])):
            raise ModelError("plan holds a non-finite value")
        if obj["optimality"] not in ("proved-optimal", "best-found"):
            raise ModelError(
                f"plan optimality must be proved-optimal or best-found, got {obj['optimality']!r}"
            )
        return Plan(n, rates, duals, utility, obj["optimality"])


@dataclass
class PlannerConfig:
    bb_node_limit: int = 20_000


# ---------------------------------------------------------------------------
# inner LP


def inner_lp(
    problem: PlanningProblem,
    n: dict[str, int],
    pieces: dict[str, int],
) -> tuple[LpSolution | None, list[Flow], dict[str, float]]:
    """LP over per-session flow rates at fixed sessions and utility pieces.

    ``pieces`` maps a class with sessions to its utility piece's index (0
    if absent).  Capacity rows are written as sum n_k x_kf <= C_l, so the raw
    row dual is the per-link capacity dual used by the weight mapping.
    Returns the solution, the active flows (classes with n >= 1), and the
    dual map.  Classes on a zero-slope piece are pinned to the piece's lower
    end.
    """
    active = [c for c in problem.classes if n.get(c.id, 0) >= 1]
    flows = [f for c in active for f in problem.flows[c.id]]
    nf = len(flows)
    if nf == 0:
        return None, flows, {}

    # Column range of each active class: flows are grouped by class.
    sizes = [len(problem.flows[c.id]) for c in active]
    ends = np.cumsum(sizes)
    starts = ends - sizes

    # Capacity rows of the links the active flows use, in topology order.
    sessions = np.array([n.get(c.id, 0) for c in problem.classes])[problem.flow_class]
    incidence = problem.incidence[:, sessions >= 1]
    used = incidence.any(axis=1).nonzero()[0]
    # Each active class adds a lower-end row, an upper-end row, both or neither.
    chosen = [c.utility.pieces[pieces.get(c.id, 0)] for c in active]
    lower = [p.x_lo > 0 or p.a == 0 for p in chosen]
    upper = [p.a == 0 or p.x_hi != INF for p in chosen]
    a = np.zeros((len(used) + sum(lower) + sum(upper), nf))
    rhs = np.empty(len(a))
    a[: len(used)] = incidence[used] * sessions[sessions >= 1]
    rhs[: len(used)] = [problem.topology.links[i].capacity_mbps for i in used]

    cvec = np.zeros(nf)
    r = len(used)
    for c, piece, lo_row, hi_row, j0, j1 in zip(active, chosen, lower, upper, starts, ends):
        if piece.a > 0:
            cvec[j0:j1] = n[c.id] * piece.a
        if lo_row:
            # lower end; zero-slope pieces are pinned there (ties save capacity).
            # The row negates the class's 0/1 aggregate: -1 on its flows, -0.0 off.
            a[r] = -0.0
            a[r, j0:j1] = -1.0
            rhs[r] = -piece.x_lo
            r += 1
        if hi_row:
            a[r, j0:j1] = 1.0
            rhs[r] = piece.x_lo if piece.a == 0 else piece.x_hi
            r += 1

    sol = solve_lp(LinearProgram(cvec, a, rhs))
    if sol.status != "optimal":
        return sol, flows, {}
    duals = {lid: 0.0 for lid in problem.link_ids}
    for i, li in enumerate(used):
        duals[problem.link_ids[li]] = float(sol.duals[i])
    return sol, flows, duals


def _candidate_plan(
    problem: PlanningProblem,
    n: dict[str, int],
    pieces: dict[str, int],
    scalable: list[TrafficClass],
) -> Plan | None:
    """Evaluate one (n, piece) candidate; scalable classes ride along at n=N."""
    n_full = dict(n)
    for c in scalable:
        n_full[c.id] = c.max_sessions
    sol, flows, duals = inner_lp(problem, n_full, pieces)
    if sol is not None and sol.status != "optimal":
        return None
    rates: dict[str, float] = {f.id: 0.0 for f in problem.all_flows()}
    if sol is not None:
        for j, f in enumerate(flows):
            rates[f.id] = max(0.0, float(sol.x[j]))

    # Minimal-session reporting for scalable classes: n*U(z/n) is n-invariant
    # for linear-through-origin U, so collapse to one session (or zero).
    n_out = dict(n)
    for c in scalable:
        n_out[c.id] = int(sum(rates[f.id] for f in problem.flows[c.id]) > FEAS_TOL)
        if n_out[c.id]:
            for f in problem.flows[c.id]:
                rates[f.id] *= c.max_sessions
    for c in problem.classes:
        if n_out.get(c.id, 0) == 0:
            for f in problem.flows[c.id]:
                rates[f.id] = 0.0
    if not duals:
        duals = {lid: 0.0 for lid in problem.link_ids}
    # Score with the true utility of the reported point (a piece's linear form
    # can exceed the utility at a jump boundary, which belongs to the piece
    # below it).
    plan = Plan(n_out, rates, duals, 0.0, "proved-optimal")
    n_all = {c.id: n_out.get(c.id, 0) for c in problem.classes}
    plan.utility = cumulative_utility(problem.classes, n_all, plan.aggregate_rates(problem))
    return plan


UTILITY_TIE_TOL = 1e-9


def _plan_sort_key(plan: Plan, problem: PlanningProblem):
    n_vec = tuple(plan.n.get(c.id, 0) for c in sorted(problem.classes, key=lambda c: c.id))
    rate_vec = tuple(
        plan.rates.get(f.id, 0.0) for f in sorted(problem.all_flows(), key=lambda f: f.id)
    )
    # Quantize utility so float noise between equal-utility candidates cannot
    # override the session-count and rate tie-breaks.
    return (-round(plan.utility / UTILITY_TIE_TOL), sum(plan.n.values()), n_vec, rate_vec)


def _zero_plan(problem: PlanningProblem) -> Plan:
    return Plan(
        n={c.id: 0 for c in problem.classes},
        rates={f.id: 0.0 for f in problem.all_flows()},
        duals={lid: 0.0 for lid in problem.link_ids},
        utility=0.0,
        optimality="proved-optimal",
    )


# ---------------------------------------------------------------------------
# Perspective relaxation and branch-and-bound


def _upper_concave_envelope(u: PiecewiseLinearUtility, lo: float, hi: float):
    """Linear pieces (slope, intercept) of the concave envelope of U on [lo, hi].

    ``hi`` is finite: at most the sum of a class's route capacities.  At every
    breakpoint in the interval, ``lo`` included, U takes its larger one-sided
    value, so an upward jump is enveloped from above.
    """
    xs = [lo, hi]
    for p in u.pieces:
        xs += [bp for bp in (p.x_lo, p.x_hi) if lo < bp < hi]
    xs = sorted(set(xs))
    pts = []
    for x in xs:
        v = u.value(x)
        for i, p in enumerate(u.pieces):
            if x == p.x_hi and i + 1 < len(u.pieces):
                v = max(v, u.pieces[i + 1].value(x))
        pts.append((x, v))
    # Upper convex hull of the sampled points.
    hull: list[tuple[float, float]] = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) <= (pt[1] - y1) * (x2 - x1) + 1e-15:
                hull.pop()
            else:
                break
        hull.append(pt)
    segs = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        a = (y2 - y1) / (x2 - x1)
        segs.append((a, y1 - a * x1))
    if not segs:
        segs.append((0.0, pts[-1][1]))
    return segs


def default_rate_boxes(problem: PlanningProblem) -> dict[str, tuple[float, float]]:
    """Finite per-flow rate intervals implied by route capacities."""
    out = {}
    for c in problem.classes:
        for f in problem.flows[c.id]:
            cap = min(problem.topology.link(l).capacity_mbps for l in f.route)
            out[f.id] = (0.0, cap)
    return out


def _perspective_lp(problem: PlanningProblem):
    """The perspective relaxation of a box: ``(program, holds)``.

    A box gives each class, in problem order, a session range and a span of
    utility pieces, (n_lo, n_hi, i0, i1).  ``program(box)`` is its LP over
    [z_f (nf) | n_k (nc) | t_k (nc)], where z_f = n_k*x_f is a flow's
    aggregate rate and t_k = n_k*U_k(x_k), with the capacity rows on z.  On
    the span's rate interval [lo, hi] = [x_lo(i0), min(x_hi(i1), agg_hi_k)],
    agg_hi_k being the class's ``default_rate_boxes`` summed, each segment
    of U_k's concave envelope gives a row t_k <= a*Z_k + b*n_k with
    Z_k = sum_f z_f; Z_k <= hi*n_k forces Z_k = 0 at n_k = 0, and
    lo*n_k <= Z_k, written only when lo > 0, keeps the rate off the lower
    pieces.  An interval that agg_hi_k empties shrinks to lo, where the
    capacity rows decide.  A class with n_hi = 0 has no rows and all its
    variables fixed at 0.  ``holds(x, k, entry)`` tells whether the point x
    of another box's program satisfies class k's rows and bounds under the
    box entry ``entry``.  Each (class, span) block is built at most once.
    """
    classes, flow_class = problem.classes, problem.flow_class
    nf, nc = len(flow_class), len(classes)
    x_box = default_rate_boxes(problem)
    agg_hi = np.bincount(flow_class, [x_box[f.id][1] for f in problem.all_flows()], minlength=nc)
    sizes = np.bincount(flow_class, minlength=nc)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # Capacity rows on z, padded to the program's width.
    capacity_rows = np.zeros((len(problem.link_ids), nf + 2 * nc))
    capacity_rows[:, :nf] = problem.incidence
    capacity = np.array([ln.capacity_mbps for ln in problem.topology.links])
    c = np.zeros(nf + 2 * nc)
    c[nf + nc :] = 1.0

    @functools.cache
    def block(k: int, i0: int, i1: int):
        """The span's rows, each <= 0, at full width, and t_k's floor per session.

        A concave envelope is smallest at an end of its interval, so n_k
        sessions never sum below n_k * min(0, env(lo), env(hi)).
        """
        u = classes[k].utility
        lo = u.pieces[i0].x_lo
        hi = max(lo, min(u.pieces[i1].x_hi, float(agg_hi[k])))
        env = _upper_concave_envelope(u, lo, hi)
        # Each row's coefficients on (Z_k, n_k, t_k).
        znt = np.array(
            [(-a, -b, 1.0) for a, b in env] + [(1.0, -hi, 0.0)] + [(-1.0, lo, 0.0)] * (lo > 0)
        )
        rows = np.zeros((len(znt), nf + 2 * nc))
        rows[:, starts[k] : ends[k]] = znt[:, :1]
        rows[:, nf + k], rows[:, nf + nc + k] = znt[:, 1], znt[:, 2]
        return rows, min(0.0, *(min(a * lo + b, a * hi + b) for a, b in env))

    def program(box) -> LinearProgram:
        n_lo, n_hi, _, _ = np.array(box).reshape(nc, 4).T
        on = n_hi.nonzero()[0]
        blocks = [block(k, *box[k][2:]) for k in on]
        z_on = n_hi[flow_class] >= 1
        used = problem.incidence[:, z_on].any(axis=1).nonzero()[0]
        a = np.concatenate([capacity_rows[used], *(rows for rows, _ in blocks)])
        rhs = np.zeros(len(a))
        rhs[: len(used)] = capacity[used]
        lo, hi = np.zeros(nf + 2 * nc), np.zeros(nf + 2 * nc)
        lo[nf : nf + nc], hi[nf : nf + nc] = n_lo, n_hi
        lo[nf + nc + on] = n_hi[on] * [floor for _, floor in blocks]
        hi[:nf][z_on] = hi[nf + nc + on] = INF
        return LinearProgram(c, a, rhs, lo, hi)

    def holds(x: np.ndarray, k: int, entry) -> bool:
        n_lo, n_hi, i0, i1 = entry
        rows, floor = block(k, i0, i1)
        return bool(
            n_lo - FEAS_TOL <= x[nf + k] <= n_hi + FEAS_TOL
            and x[nf + nc + k] >= n_hi * floor - FEAS_TOL
            and np.all(rows @ x <= FEAS_TOL)
        )

    return program, holds


def mccormick_bound(program: LinearProgram) -> tuple[float, np.ndarray | None]:
    """A box's bound on utility and the relaxation point that attains it.

    ``program`` is the box's ``_perspective_lp`` program.  An infeasible
    program gives (-INF, None): the box holds no candidate.  The name is
    kept from the McCormick relaxation this replaced
    (``tests/mccormick_ref.py``), which is never tighter.
    """
    sol = solve_lp(program)
    if sol.status == "infeasible":
        return -INF, None
    if sol.status == "unbounded":
        return INF, None
    return float(sol.objective), sol.x


# Relative slack on a relaxation bound for the LP's float error, added before
# the bound is quantised like a utility.  It must stay well below
# UTILITY_TIE_TOL, or a bound that ties the incumbent would never prune.
BOUND_SLACK = 1e-12


def _bound_level(bound: float) -> int:
    """A finite bound quantised like the utility in ``_plan_sort_key``."""
    return round((bound + BOUND_SLACK * (1.0 + abs(bound))) / UTILITY_TIE_TOL)


def solve_plan(problem: PlanningProblem, config: PlannerConfig | None = None) -> Plan:
    """Exact solve of the admission + rate problem; deterministic tie-breaks.

    Classes whose utility is linear through the origin ride along at their
    maximum session count.  The others are searched best-first (Land &
    Doig) over boxes that give each class a session range and a piece span,
    each box bounded by ``mccormick_bound`` on its ``_perspective_lp``
    program.  The widest session range splits first, the smallest class id
    among equals; once every count is fixed, the widest span of a class with
    sessions splits, the smallest class index among equals.  A box with
    fixed counts and one piece per class with sessions is a candidate,
    solved by ``inner_lp`` with no bound LP.  A child takes its parent's
    bound without an LP when the parent's relaxation point satisfies the
    child's program, whose optimum it then is; the root gets no LP.
    Equal-utility candidates resolve to the smallest total session count,
    then the lexicographically smallest session vector by class id, then
    the lexicographically smallest rate vector by flow id, then the
    smallest piece tuple.

    A box is dropped when pushed, and again when popped, if its bound
    quantised as in ``_plan_sort_key`` cannot beat the incumbent's utility
    and no candidate in it can win the tie: its sum(n_lo) exceeds the
    incumbent's session total, or equals it with no scalable class and a
    lower corner (the only session vector with that total) sorting after
    the incumbent's session vector, or at it with counts not yet fixed.
    Equal bounds pop smallest sum(n_lo) first, so the fewest-session
    incumbent appears before a tied band is searched.  Every expanded box
    counts toward ``config.bb_node_limit``; a search stopped there returns
    its incumbent labelled "best-found", with ``gap`` the largest open bound
    above its utility.
    """
    config = config or PlannerConfig()
    classes = problem.classes
    scalable = [c for c in classes if c.utility.is_linear_through_origin() and c.max_sessions >= 1]
    scalable_ids = {c.id for c in scalable}
    general = [k for k, c in enumerate(classes) if c.id not in scalable_ids]
    program, holds = _perspective_lp(problem) if general else (None, None)
    by_id = sorted(range(len(classes)), key=lambda k: classes[k].id)
    root = tuple((0, c.max_sessions, 0, len(c.utility.pieces) - 1) for c in classes)

    incumbent = _zero_plan(problem)
    inc_key = (_plan_sort_key(incumbent, problem), ())

    def branch(box):
        """(class index, field) of the range to split next: 0 sessions, 2 pieces."""
        wide = [k for k in general if box[k][0] < box[k][1]]
        if wide:
            return min(wide, key=lambda k: (box[k][0] - box[k][1], classes[k].id)), 0
        spans = [k for k in general if box[k][0] >= 1 and box[k][2] < box[k][3]]
        if spans:
            return min(spans, key=lambda k: (box[k][2] - box[k][3], k)), 2
        return None

    def dominated(bound: float, lo_sum: int, box) -> bool:
        """No candidate in the box can sort before the incumbent."""
        if bound == INF:
            return False
        level, (utility, total, corner, _) = _bound_level(bound), inc_key[0]
        if level != -utility:
            return level < -utility
        if lo_sum != total:
            return lo_sum > total
        if scalable:
            return False
        box_corner = tuple(box[k][0] for k in by_id)
        if box_corner != corner:
            return box_corner > corner
        return any(box[k][0] < box[k][1] for k in general)

    def solve(box) -> None:
        nonlocal incumbent, inc_key
        n = {classes[k].id: box[k][0] for k in general}
        pieces = {classes[k].id: box[k][2] for k in general if box[k][0] >= 1}
        plan = _candidate_plan(problem, n, pieces, scalable)
        if plan is not None:
            key = (_plan_sort_key(plan, problem), tuple(pieces.values()))
            if key < inc_key:
                incumbent, inc_key = plan, key

    counter = itertools.count()
    heap = [(-INF, 0, next(counter), root, None)]
    nodes = 0
    while heap:
        neg_bound, lo_sum, _, box, point = heapq.heappop(heap)
        if dominated(-neg_bound, lo_sum, box):
            continue
        nodes += 1
        if nodes > config.bb_node_limit:
            # Popped best-first, this box holds the largest open bound.
            incumbent.optimality = "best-found"
            incumbent.gap = max(-neg_bound - incumbent.utility, 0.0)
            return incumbent
        split = branch(box)
        if split is None:
            solve(box)
            continue
        k, f = split
        lo, hi = box[k][f : f + 2]
        mid = (lo + hi) // 2
        for sub in ((lo, mid), (mid + 1, hi)):
            child = (*box[:k], (*box[k][:f], *sub, *box[k][f + 2 :]), *box[k + 1 :])
            child_lo = lo_sum + child[k][0] - box[k][0]
            bound, x = -neg_bound, point
            if branch(child) is not None and (point is None or not holds(point, k, child[k])):
                bound, x = mccormick_bound(program(child))
            if bound != -INF and not dominated(bound, child_lo, child):
                heapq.heappush(heap, (-bound, child_lo, next(counter), child, x))
    return incumbent


# ---------------------------------------------------------------------------
# KKT residual checking


@dataclass
class KktReport:
    """The worst residual of each KKT condition; ``ok`` holds them all to ``KKT_TOL``."""

    feasibility: float
    dual_sign: float
    complementary_slackness: float
    gradient: float
    skipped_flows: list[tuple[str, str]] = field(default_factory=list)

    def max_residual(self) -> float:
        return _worst(
            [self.feasibility, self.dual_sign, self.complementary_slackness, self.gradient]
        )

    def ok(self) -> bool:
        return self.max_residual() <= KKT_TOL


def _worst(residuals: list[float]) -> float:
    """Largest residual, floored at 0; NaN if any residual is NaN."""
    return float(np.max(np.array(residuals, dtype=float), initial=0.0))


def check_kkt(problem: PlanningProblem, plan: Plan) -> KktReport:
    """Residuals of the stationarity and feasibility conditions for a plan.

    The rate-gradient condition is checked per positive-rate flow against the
    subgradient interval of the class utility at its aggregate rate; session
    counts are integers, so no gradient condition is checked for them.  A NaN
    anywhere in the plan makes the residual it enters NaN, which fails ``ok``.
    """
    loads: dict[str, float] = {lid: 0.0 for lid in problem.link_ids}
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        for f in problem.flows[c.id]:
            r = plan.rates.get(f.id, 0.0)
            for lid in f.route:
                loads[lid] += nk * r

    feas: list[float] = []
    comp: list[float] = []
    dual_sign: list[float] = []
    for lid, load in loads.items():
        cap = problem.topology.link(lid).capacity_mbps
        lam = plan.duals.get(lid, 0.0)
        feas.append(load - cap)
        dual_sign.append(-lam)
        comp.append(abs(lam * (load - cap)))
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        feas += [float(nk - c.max_sessions), float(-nk)]
    feas += [-r for r in plan.rates.values()]

    grad: list[float] = []
    skipped: list[tuple[str, str]] = []
    agg = plan.aggregate_rates(problem)
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        if nk == 0:
            for f in problem.flows[c.id]:
                skipped.append((f.id, "class admits no sessions"))
            continue
        if not math.isfinite(agg[c.id]):
            grad.append(math.nan)
            continue
        lo_a, hi_a = c.utility.slope_range(agg[c.id])
        for f in problem.flows[c.id]:
            if plan.rates.get(f.id, 0.0) <= FEAS_TOL:
                skipped.append((f.id, "zero rate"))
                continue
            lam_sum = sum(plan.duals.get(lid, 0.0) for lid in f.route)
            val = nk * lam_sum
            lo_v, hi_v = nk * lo_a, (INF if hi_a == INF else nk * hi_a)
            grad += [lo_v - val, val - hi_v]
    return KktReport(_worst(feas), _worst(dual_sign), _worst(comp), _worst(grad), skipped)
