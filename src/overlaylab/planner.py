"""Offline rate planner: joint session admission and multipath rate selection.

The planning problem maximizes sum_k n_k U_k(sum_f x_kf) over integer session
counts n and per-session flow rates x, subject to per-link capacity
sum n_k x_kf <= C_l.  With piecewise-linear utilities this is a bilinear
program; fixing n and one utility piece per class leaves a plain LP.  The
solver is a best-first branch-and-bound over boxes of session counts.  A box
is bounded by the perspective relaxation (Gunluk & Linderoth): with z = n*x,
the term n*env(Z/n) of a concave envelope env = min_i(a_i x + b_i) is exactly
min_i(a_i Z + b_i n), linear in (Z, n).  Boxes that cannot beat the incumbent,
ties included, are dropped, so equal-utility bands are not searched.  The
relaxation LP is built once per solve (``_perspective_lp``), and
``mccormick_bound`` re-solves it with each box's bounds on n.

A leaf, one session vector, does not solve all pieces^k inner LPs: it branches
on the pieces (Keha, de Farias & Nemhauser 2006), best-first over boxes of
per-class piece spans [i0, i1].  A span box is bounded by one LP over the
rates with each class's concave envelope on its span's rate interval
(``_span_bound``; a span's envelope rows are built at most once per solve),
and only single-piece boxes that can still reach the best utility solve the
inner LP.  A candidate pairs the session vector with a class id -> piece
index dict and is scored by ``cumulative_utility`` at the point it reports.
The search's only limit is a node count; the test suite checks it against
exhaustive (n, piece) enumeration in ``tests/enum_ref.py``, each leaf against
the product of all pieces, and utilities at scale against a MILP.  The LPs
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


def _class_rate_caps(problem: PlanningProblem) -> np.ndarray:
    """Each class's largest aggregate rate, agg_hi: its ``default_rate_boxes`` summed."""
    x_box = default_rate_boxes(problem)
    rate_hi = [x_box[f.id][1] for f in problem.all_flows()]
    return np.bincount(problem.flow_class, rate_hi, minlength=len(problem.classes))


def _perspective_lp(problem: PlanningProblem, agg_hi: np.ndarray | None = None):
    """The perspective relaxation's LP over [z_f (nf) | n_k (nc) | t_k (nc)].

    z_f = n_k*x_f is a flow's aggregate rate and t_k = n_k*U_k(x_k).  Each
    segment of U_k's concave envelope on [0, agg_hi_k] gives a row
    t_k <= a_i*Z_k + b_i*n_k with Z_k = sum_f z_f, and Z_k <= agg_hi_k*n_k
    forces Z_k = 0 at n_k = 0; ``agg_hi`` is ``_class_rate_caps``, computed
    here unless the caller already has it.  Only the bounds on n depend on
    the box.
    """
    classes, flows = problem.classes, problem.all_flows()
    nf, nc, flow_class = len(flows), len(classes), problem.flow_class
    if agg_hi is None:
        agg_hi = _class_rate_caps(problem)
    envs = [_upper_concave_envelope(c.utility, 0.0, h) for c, h in zip(classes, agg_hi)]
    seg_class = np.repeat(np.arange(nc), [len(env) for env in envs])
    slope, intercept = np.array([s for env in envs for s in env]).reshape(-1, 2).T
    segs = np.arange(len(seg_class))

    used = problem.incidence.any(axis=1).nonzero()[0]
    a = np.zeros((len(used) + len(segs) + nc, nf + 2 * nc))
    rhs = np.zeros(len(a))
    a[: len(used), :nf] = problem.incidence[used]  # capacity rows on z
    rhs[: len(used)] = [problem.topology.links[i].capacity_mbps for i in used]
    seg = a[len(used) : len(used) + len(segs)]  # t_k - a_i*Z_k - b_i*n_k <= 0
    seg[:, :nf] = np.where(flow_class == seg_class[:, None], -slope[:, None], 0.0)
    seg[segs, nf + seg_class] = -intercept
    seg[segs, nf + nc + seg_class] = 1.0
    agg = a[len(used) + len(segs) :]  # Z_k - agg_hi_k*n_k <= 0
    agg[flow_class, np.arange(nf)] = 1.0
    agg[np.arange(nc), nf + np.arange(nc)] = -agg_hi

    c = np.zeros(nf + 2 * nc)
    c[nf + nc :] = 1.0
    # A concave envelope is smallest at an end of its interval, so t_k is
    # never below N_k * min(env(0), env(agg_hi)) when that is negative.
    lo = np.zeros(nf + 2 * nc)
    for k, (cls, env, h) in enumerate(zip(classes, envs, agg_hi)):
        lo[nf + nc + k] = min(0.0, cls.max_sessions * min(min(b, s * h + b) for s, b in env))
    return LinearProgram(c, a, rhs, lo=lo, hi=np.full(nf + 2 * nc, INF))


def mccormick_bound(
    problem: PlanningProblem,
    n_box: dict[str, tuple[int, int]],
    *,
    relaxation: LinearProgram,
) -> float:
    """Upper bound on achievable utility over a box of session counts.

    Solves ``relaxation``, the problem's ``_perspective_lp`` that
    ``solve_plan`` builds once per solve, with n bounded by the box.  The
    name is kept from the McCormick relaxation this replaced
    (``tests/mccormick_ref.py``), which is never tighter.
    """
    for c in problem.classes:
        if n_box[c.id][0] > n_box[c.id][1]:
            raise PlannerError(f"empty session box for class {c.id!r}")
    # The program was validated when built; a box changes only n's bounds.
    nv, nc = len(relaxation.c), len(problem.classes)
    relaxation.lo[nv - 2 * nc : nv - nc] = [n_box[c.id][0] for c in problem.classes]
    relaxation.hi[nv - 2 * nc : nv - nc] = [n_box[c.id][1] for c in problem.classes]
    sol = solve_lp(relaxation)
    if sol.status == "unbounded":
        return INF
    if sol.status != "optimal":
        raise PlannerError(f"relaxation LP returned {sol.status}")
    return float(sol.objective)


# Relative slack on a relaxation bound for the LP's float error, added before
# the bound is quantised like a utility.  It must stay well below
# UTILITY_TIE_TOL, or a bound that ties the incumbent would never prune.
BOUND_SLACK = 1e-12


def _bound_level(bound: float) -> int:
    """A finite bound quantised like the utility in ``_plan_sort_key``."""
    return round((bound + BOUND_SLACK * (1.0 + abs(bound))) / UTILITY_TIE_TOL)


# ---------------------------------------------------------------------------
# Piece spans inside a leaf


def _span_rows(problem: PlanningProblem, agg_hi: np.ndarray):
    """Rows bounding a class on a span [i0, i1] of its pieces, each built once.

    Returns ``rows(k, i0, i1)`` for class index k: (block, rhs, t_lo) over
    the class's own columns [its flows' x_f | t_k].  On X_k = sum_f x_f in
    [lo, hi] = [x_lo(i0), min(x_hi(i1), agg_hi_k)], each segment of U_k's
    concave envelope gives t_k - a*X_k <= b, two rows keep X_k in the interval
    (the lower one only when lo > 0), and t_lo bounds t_k below without
    cutting the envelope.  An interval that agg_hi_k empties shrinks to lo,
    where the capacity rows decide.
    """

    @functools.cache
    def rows(k: int, i0: int, i1: int):
        c = problem.classes[k]
        nx, pieces = len(problem.flows[c.id]), c.utility.pieces
        lo = pieces[i0].x_lo
        hi = max(lo, min(pieces[i1].x_hi, float(agg_hi[k])))
        env = _upper_concave_envelope(c.utility, lo, hi)
        block = np.zeros((len(env) + 1 + (lo > 0), nx + 1))
        rhs = np.empty(len(block))
        for r, (a, b) in enumerate(env):
            block[r, :nx], block[r, nx], rhs[r] = -a, 1.0, b
        block[len(env), :nx], rhs[len(env)] = 1.0, hi
        if lo > 0:
            block[-1, :nx], rhs[-1] = -1.0, -lo
        t_lo = min(0.0, *(min(a * lo + b, a * hi + b) for a, b in env))
        return block, rhs, t_lo

    return rows


def _span_bound(
    problem: PlanningProblem,
    n: dict[str, int],
    scalable: list[TrafficClass],
    span_rows,
):
    """A leaf's span-box bound, as a function of the box.

    ``n`` fixes the general classes' sessions; a box holds one piece span
    (i0, i1) for each class with n_k >= 1, in problem order.  Its bound is
    one LP over the active flows' x_f and one t_k per box class: the capacity
    rows sum n_k*x_f <= C_l, each class's ``span_rows`` for its span, and the
    objective sum n_k*t_k plus the scalable classes' linear utility at their
    maximum sessions.  ``bound(box)`` returns the LP's (optimum, point), or
    (-INF, None) if the box is infeasible.  ``bound(box, parent, j)``, for a
    box that narrows only class j's span of the box whose result is
    ``parent``, returns ``parent`` itself when its point satisfies class j's
    new rows: the box's LP is the parent's restricted, so it has the same
    optimum.
    """
    n_full = n | {c.id: c.max_sessions for c in scalable}
    sessions = np.array([n_full.get(c.id, 0) for c in problem.classes])
    on = sessions[problem.flow_class] >= 1
    col_class = problem.flow_class[on]
    branch = [k for k, c in enumerate(problem.classes) if n.get(c.id, 0) >= 1]
    starts = np.searchsorted(col_class, branch)
    ends = np.searchsorted(col_class, branch, side="right")
    nx, nt = len(col_class), len(branch)

    incidence = problem.incidence[:, on]
    used = incidence.any(axis=1).nonzero()[0]
    capacity = incidence[used] * sessions[col_class]
    cap_rhs = [problem.topology.links[i].capacity_mbps for i in used]
    cvec = np.zeros(nx + nt)
    for c in scalable:
        cvec[:nx][col_class == problem.classes.index(c)] = c.max_sessions * c.utility.pieces[0].a
    cvec[nx:] = sessions[branch]

    def bound(box, parent=None, j=None) -> tuple[float, np.ndarray | None]:
        if parent is not None:
            block, rhs, _ = span_rows(branch[j], *box[j])
            x, t = parent[1][starts[j] : ends[j]], parent[1][nx + j]
            if np.all(block[:, :-1] @ x + block[:, -1] * t <= rhs + FEAS_TOL):
                return parent
        blocks = [span_rows(k, *span) for k, span in zip(branch, box)]
        a = np.zeros((len(used) + sum(len(rhs) for _, rhs, _ in blocks), nx + nt))
        rhs = np.empty(len(a))
        lo = np.zeros(nx + nt)
        a[: len(used), :nx], rhs[: len(used)] = capacity, cap_rhs
        r = len(used)
        for j, ((block, b, t_lo), s, e) in enumerate(zip(blocks, starts, ends)):
            h = len(b)
            a[r : r + h, s:e], a[r : r + h, nx + j], rhs[r : r + h] = block[:, :-1], block[:, -1], b
            lo[nx + j] = t_lo
            r += h
        sol = solve_lp(LinearProgram(cvec, a, rhs, lo=lo))
        if sol.status == "infeasible":
            return -INF, None
        if sol.status != "optimal":
            raise PlannerError(f"span LP returned {sol.status}")
        return float(sol.objective), sol.x

    return bound


def _leaf_plan(
    problem: PlanningProblem,
    n: dict[str, int],
    scalable: list[TrafficClass],
    span_rows,
    inc_level: float,
) -> Plan | None:
    """The leaf's best candidate: the smallest (``_plan_sort_key``, piece tuple).

    The search runs best-first over boxes of piece spans (``_span_bound``),
    splitting the widest span at its middle, the smallest class index among
    equals.  A box whose spans are all single pieces is a candidate, solved
    by ``inner_lp`` with no bound LP.  A box is dropped only when its bound
    level is below the best so far, the higher of ``inc_level`` and the
    leaf's best candidate, so every candidate that could tie the winner is
    solved.  Returns None if no candidate is feasible.
    """
    active = [c for c in problem.classes if n.get(c.id, 0) >= 1]
    bound = None  # built when the first box needs it
    best: tuple | None = None  # (sort key, piece tuple, plan)

    def level() -> float:
        return inc_level if best is None else max(inc_level, -best[0][0])

    def solve(box) -> None:
        nonlocal best
        pieces = tuple(i0 for i0, _ in box)
        plan = _candidate_plan(problem, n, {c.id: p for c, p in zip(active, pieces)}, scalable)
        if plan is not None:
            key = (_plan_sort_key(plan, problem), pieces)
            if best is None or key < best[:2]:
                best = (*key, plan)

    root = tuple((0, len(c.utility.pieces) - 1) for c in active)
    heap = [(-INF, 0, root, None)]
    counter = itertools.count(1)
    while heap:
        _, _, box, result = heapq.heappop(heap)
        if result is not None and _bound_level(result[0]) < level():
            continue
        if all(i0 == i1 for i0, i1 in box):
            solve(box)
            continue
        j = max(range(len(box)), key=lambda j: (box[j][1] - box[j][0], -j))
        i0, i1 = box[j]
        mid = (i0 + i1) // 2
        for sub in ((i0, mid), (mid + 1, i1)):
            child = box[:j] + (sub,) + box[j + 1 :]
            if all(lo == hi for lo, hi in child):
                solve(child)
                continue
            bound = bound or _span_bound(problem, n, scalable, span_rows)
            sub_result = bound(child, result, j)
            if sub_result[0] != -INF and _bound_level(sub_result[0]) >= level():
                heapq.heappush(heap, (-sub_result[0], next(counter), child, sub_result))
    return None if best is None else best[2]


def solve_plan(problem: PlanningProblem, config: PlannerConfig | None = None) -> Plan:
    """Exact solve of the admission + rate problem; deterministic tie-breaks.

    Classes whose utility is linear through the origin ride along at their
    maximum session count.  The others are searched best-first over boxes of
    session counts (Land & Doig), each box bounded by its perspective
    relaxation; a box narrowed to one session vector is a leaf whose utility
    pieces are searched exactly by ``_leaf_plan``.  The root box is expanded
    unconditionally, so it gets no relaxation LP.  Equal-utility candidates
    resolve to the smallest total session count, then the lexicographically
    smallest session vector by class id, then the lexicographically smallest
    rate vector by flow id.

    A box is dropped when pushed, and again when popped, if its bound
    quantised as in ``_plan_sort_key`` cannot beat the incumbent's utility
    and no leaf in it can win the tie: its sum(n_lo) exceeds the incumbent's
    session total, or equals it with no scalable class and a lower corner
    (the only leaf with that total) sorting at or after the incumbent's
    session vector.  Equal bounds pop smallest sum(n_lo) first, so the
    fewest-session incumbent appears before a tied band is searched.  A
    search stopped by ``config.bb_node_limit`` returns its incumbent labelled
    "best-found", with ``gap`` the largest open bound above its utility; the
    span boxes inside a leaf are not nodes.
    """
    config = config or PlannerConfig()
    scalable = [
        c
        for c in problem.classes
        if c.utility.is_linear_through_origin() and c.max_sessions >= 1
    ]
    scalable_ids = {c.id for c in scalable}
    general = [c for c in problem.classes if c.id not in scalable_ids]
    relaxation = span_rows = None
    if general:
        agg_hi = _class_rate_caps(problem)
        relaxation, span_rows = _perspective_lp(problem, agg_hi), _span_rows(problem, agg_hi)
    root = {c.id: (0, c.max_sessions) for c in problem.classes}
    by_id = sorted(c.id for c in problem.classes)

    incumbent = _zero_plan(problem)
    inc_key = _plan_sort_key(incumbent, problem)

    def dominated(bound: float, lo_sum: int, box) -> bool:
        """No leaf in the box can sort before the incumbent."""
        if bound == INF:
            return False
        level = _bound_level(bound)
        if level != -inc_key[0]:
            return level < -inc_key[0]
        if lo_sum != inc_key[1]:
            return lo_sum > inc_key[1]
        return not scalable and tuple(box[k][0] for k in by_id) >= inc_key[2]

    counter = itertools.count()
    heap = [(-INF, 0, next(counter), root)]
    nodes = 0
    while heap:
        neg_bound, lo_sum, _, box = heapq.heappop(heap)
        if dominated(-neg_bound, lo_sum, box):
            continue
        nodes += 1
        if nodes > config.bb_node_limit:
            # Popped best-first, this box holds the largest open bound.
            incumbent.optimality = "best-found"
            incumbent.gap = max(-neg_bound - incumbent.utility, 0.0)
            return incumbent
        wide = [c.id for c in general if box[c.id][1] > box[c.id][0]]
        if not wide:
            nvals = {c.id: box[c.id][0] for c in general}
            plan = _leaf_plan(problem, nvals, scalable, span_rows, -inc_key[0])
            if plan is not None:
                key = _plan_sort_key(plan, problem)
                if key < inc_key:
                    incumbent, inc_key = plan, key
            continue
        # Split the widest class, the smallest id among equals.
        cid = min(wide, key=lambda k: (box[k][0] - box[k][1], k))
        nl, nu = box[cid]
        mid = (nl + nu) // 2
        for sub in ((nl, mid), (mid + 1, nu)):
            child = dict(box)
            child[cid] = sub
            child_lo = lo_sum + sub[0] - nl
            b = mccormick_bound(problem, child, relaxation=relaxation)
            if not dominated(b, child_lo, child):
                heapq.heappush(heap, (-b, child_lo, next(counter), child))
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
