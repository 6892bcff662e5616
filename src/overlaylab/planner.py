"""Offline rate planner: joint session admission and multipath rate selection.

The planning problem maximizes sum_k n_k U_k(sum_f x_kf) over integer session
counts n and per-session flow rates x, subject to per-link capacity
sum n_k x_kf <= C_l.  With piecewise-linear utilities this is a bilinear
program; fixing n and one utility piece per class leaves a plain LP, so the
solver enumerates (n, piece) candidates exactly when the candidate count fits
a budget and otherwise falls back to best-first branch-and-bound over n-boxes
with a McCormick-relaxation bound.

Classes whose utility is linear through the origin are handled by the exact
substitution z = n*x, which removes their session count from the problem; they
are reported with the minimal session count consistent with their rates.
"""
from __future__ import annotations

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
    Piece,
    PiecewiseLinearUtility,
    Topology,
    TrafficClass,
    cumulative_utility,
)

FEAS_TOL = 1e-7
KKT_TOL = 1e-6


class PlannerError(RuntimeError):
    pass


@dataclass
class PlanningProblem:
    """Estimated topology plus traffic classes and their candidate flows."""

    topology: Topology
    classes: list[TrafficClass]
    flows: dict[str, list[Flow]]  # class id -> flows

    def __post_init__(self):
        by_id = {c.id: c for c in self.classes}
        if len(by_id) != len(self.classes):
            raise ModelError("duplicate class id")
        for k, fl in self.flows.items():
            if k not in by_id:
                raise ModelError(f"flows for unknown class {k!r}")
            for f in fl:
                if f.class_id != k:
                    raise ModelError(f"flow {f.id!r} listed under wrong class")
                f.validate(self.topology, by_id[k])
        for c in self.classes:
            self.flows.setdefault(c.id, [])

    def cls(self, k: str) -> TrafficClass:
        for c in self.classes:
            if c.id == k:
                return c
        raise ModelError(f"unknown class id {k!r}")

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
        return Plan(
            n={k: int(v) for k, v in obj["n"].items()},
            rates={k: float(v) for k, v in obj["rates"].items()},
            duals={k: float(v) for k, v in obj["duals"].items()},
            utility=float(obj["utility"]),
            optimality=obj["optimality"],
        )


@dataclass
class PlannerConfig:
    enumeration_budget: int = 1_000_000
    bb_node_limit: int = 20_000


@dataclass
class SegmentAssignment:
    """Chosen utility piece index per enumerated class."""

    pieces: dict[str, int]


# ---------------------------------------------------------------------------
# inner LP


def _link_order(problem: PlanningProblem) -> list[str]:
    return [ln.id for ln in problem.topology.links]


def _route_incidence(problem: PlanningProblem, flows: list[Flow]):
    """Capacity rows of the links the flows use, in topology order.

    Returns the used link positions in ``problem.topology.links`` and, for
    every (link, flow) pair on a route, its row among them and the flow's
    position in ``flows``.  A route never repeats a link, so no pair repeats.
    """
    links = problem.topology.links
    position = {ln.id: i for i, ln in enumerate(links)}
    pair_link = np.array([position[lid] for f in flows for lid in f.route], dtype=int)
    pair_flow = np.repeat(np.arange(len(flows)), [len(f.route) for f in flows])
    in_use = np.zeros(len(links), dtype=bool)
    in_use[pair_link] = True
    row_of_link = np.cumsum(in_use) - 1
    return in_use.nonzero()[0], row_of_link[pair_link], pair_flow


def inner_lp(
    problem: PlanningProblem,
    n: dict[str, int],
    seg: SegmentAssignment,
) -> tuple[LpSolution | None, list[Flow], dict[str, float]]:
    """LP over per-session flow rates at fixed sessions and utility pieces.

    Capacity rows are written as sum n_k x_kf <= C_l, so the raw row dual is
    the per-link capacity dual used by the weight mapping.  Returns the
    solution, the active flows (classes with n >= 1), and the dual map.
    Classes on a zero-slope piece are pinned to the piece's lower end.
    """
    active = [c for c in problem.classes if n.get(c.id, 0) >= 1]
    flows = [f for c in active for f in problem.flows[c.id]]
    links = _link_order(problem)
    nf = len(flows)
    if nf == 0:
        return None, flows, {}

    # Column range of each active class: flows are grouped by class.
    sizes = [len(problem.flows[c.id]) for c in active]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    sessions = np.repeat([n[c.id] for c in active], sizes)

    used, pair_row, pair_flow = _route_incidence(problem, flows)
    # Each active class adds a lower-end row, an upper-end row, both or neither.
    pieces = [c.utility.pieces[seg.pieces.get(c.id, 0)] for c in active]
    lower = [p.x_lo > 0 or p.a == 0 for p in pieces]
    upper = [p.a == 0 or p.x_hi != INF for p in pieces]
    a = np.zeros((len(used) + sum(lower) + sum(upper), nf))
    rhs = np.empty(len(a))
    a[pair_row, pair_flow] = sessions[pair_flow]
    rhs[: len(used)] = [problem.topology.links[i].capacity_mbps for i in used]

    cvec = np.zeros(nf)
    r = len(used)
    for c, piece, lo_row, hi_row, j0, j1 in zip(active, pieces, lower, upper, starts, ends):
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
    duals = {lid: 0.0 for lid in links}
    for i, li in enumerate(used):
        duals[links[li]] = float(sol.duals[i])
    return sol, flows, duals


def _candidate_plan(
    problem: PlanningProblem,
    n: dict[str, int],
    seg: SegmentAssignment,
    scalable: list[TrafficClass],
) -> Plan | None:
    """Evaluate one (n, piece) candidate; scalable classes ride along at n=N."""
    n_full = dict(n)
    for c in scalable:
        n_full[c.id] = c.max_sessions
    sol, flows, duals = inner_lp(problem, n_full, seg)
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
        agg = sum(rates[f.id] for f in problem.flows[c.id])
        if agg > FEAS_TOL and c.max_sessions >= 1:
            n_out[c.id] = 1
            for f in problem.flows[c.id]:
                rates[f.id] *= c.max_sessions
        else:
            n_out[c.id] = 0
            for f in problem.flows[c.id]:
                rates[f.id] = 0.0
    for c in problem.classes:
        if n_out.get(c.id, 0) == 0:
            for f in problem.flows[c.id]:
                rates[f.id] = 0.0
    if not duals:
        duals = {lid: 0.0 for lid in _link_order(problem)}
    # Score with the true utility of the reported point (a piece's linear form
    # can exceed the utility at a jump boundary, which belongs to the piece
    # below it).
    utility = 0.0
    for c in problem.classes:
        nk = n_out.get(c.id, 0)
        if nk >= 1:
            agg = sum(rates[f.id] for f in problem.flows[c.id])
            utility += nk * c.utility.value(agg)
    return Plan(n_out, rates, duals, utility, "proved-optimal")


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
        duals={lid: 0.0 for lid in _link_order(problem)},
        utility=0.0,
        optimality="proved-optimal",
    )


def solve_plan(problem: PlanningProblem, config: PlannerConfig | None = None) -> Plan:
    """Exact solve of the admission + rate problem; deterministic tie-breaks.

    Equal-utility candidates resolve to the smallest total session count, then
    the lexicographically smallest session vector by class id, then the
    lexicographically smallest rate vector by flow id.
    """
    config = config or PlannerConfig()
    scalable = [
        c
        for c in problem.classes
        if c.utility.is_linear_through_origin() and c.max_sessions >= 1
    ]
    scalable_ids = {c.id for c in scalable}
    general = [c for c in problem.classes if c.id not in scalable_ids]

    count = 1
    for c in general:
        count *= 1 + c.max_sessions * len(c.utility.pieces)
        if count > config.enumeration_budget:
            break

    if count <= config.enumeration_budget:
        best = _enumerate(problem, general, scalable)
        best.optimality = "proved-optimal"
        return best
    return _branch_and_bound(problem, general, scalable, config)


def _enumerate(problem, general, scalable) -> Plan:
    per_class: list[list[tuple[str, int, int]]] = []
    for c in general:
        opts = [(c.id, 0, 0)]
        for nk in range(1, c.max_sessions + 1):
            for pi in range(len(c.utility.pieces)):
                opts.append((c.id, nk, pi))
        per_class.append(opts)

    best: Plan | None = None
    best_key = None
    for combo in itertools.product(*per_class) if per_class else [()]:
        n = {cid: nk for cid, nk, _ in combo}
        seg = SegmentAssignment({cid: pi for cid, nk, pi in combo if nk >= 1})
        plan = _candidate_plan(problem, n, seg, scalable)
        if plan is None:
            continue
        key = _plan_sort_key(plan, problem)
        if best is None or key < best_key:
            best, best_key = plan, key
    if best is None:
        return _zero_plan(problem)
    if best.utility < 0.0:
        zero = _zero_plan(problem)
        if _plan_sort_key(zero, problem) < best_key:
            return zero
    return best


# ---------------------------------------------------------------------------
# McCormick relaxation and branch-and-bound


def _upper_concave_envelope(u: PiecewiseLinearUtility, x_lo: float, x_hi: float):
    """Linear pieces (slope, intercept) of the concave envelope of U on a box."""
    xs: list[float] = [x_lo]
    for p in u.pieces:
        for bp in (p.x_lo, p.x_hi):
            if x_lo < bp < x_hi and math.isfinite(bp):
                xs.append(bp)
    if math.isfinite(x_hi):
        xs.append(x_hi)
    xs = sorted(set(xs))
    pts = []
    for x in xs:
        # Use the larger one-sided value so jumps are enveloped from above.
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
    # Beyond the last hull point continue with the final utility slope.
    if not math.isfinite(x_hi):
        tail = u.pieces[-1]
        segs.append((tail.a, tail.b))
    return segs


def default_rate_boxes(problem: PlanningProblem) -> dict[str, tuple[float, float]]:
    """Finite per-flow rate intervals implied by route capacities."""
    out = {}
    for c in problem.classes:
        for f in problem.flows[c.id]:
            cap = min(problem.topology.link(l).capacity_mbps for l in f.route)
            out[f.id] = (0.0, cap)
    return out


def mccormick_bound(
    problem: PlanningProblem,
    n_box: dict[str, tuple[int, int]],
    x_box: dict[str, tuple[float, float]] | None = None,
) -> float:
    """Upper bound on achievable utility over a box of session counts.

    Bilinear terms z = n*x are replaced by their McCormick envelopes and each
    utility by its concave envelope over the box, all inside one LP.
    """
    x_box = x_box or default_rate_boxes(problem)
    classes = problem.classes
    flows = problem.all_flows()
    nf = len(flows)
    nc = len(classes)
    for c in classes:
        if n_box[c.id][0] > n_box[c.id][1]:
            raise PlannerError(f"empty session box for class {c.id!r}")

    # variables: [x_f (nf) | z_f (nf) | n_k (nc) | u_k (nc) | t_k (nc)]
    nv = 2 * nf + 3 * nc
    sizes = [len(problem.flows[c.id]) for c in classes]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # Integer session bounds, so that -0 is 0 rather than -0.0 in the rows.
    nl_k = np.array([n_box[c.id][0] for c in classes], dtype=np.int64)
    nu_k = np.array([n_box[c.id][1] for c in classes], dtype=np.int64)
    flow_class = np.repeat(np.arange(nc), sizes)
    nl, nu = nl_k[flow_class], nu_k[flow_class]
    xl = np.array([x_box[f.id][0] for f in flows], dtype=float)
    xu = np.array([x_box[f.id][1] for f in flows], dtype=float)
    jx = np.arange(nf)
    jz = nf + jx
    jn = 2 * nf + flow_class

    lo = np.zeros(nv)
    hi = np.full(nv, INF)
    lo[jx], hi[jx] = xl, xu
    lo[2 * nf : 2 * nf + nc], hi[2 * nf : 2 * nf + nc] = nl_k, nu_k

    # Per class: the concave-envelope rows of u_k, then two rows for t = n*u.
    agg_hi = [sum(x_box[f.id][1] for f in problem.flows[c.id]) for c in classes]
    envs = [_upper_concave_envelope(c.utility, 0.0, h) for c, h in zip(classes, agg_hi)]

    used, pair_row, pair_flow = _route_incidence(problem, flows)
    n_rows = 4 * nf + len(used) + sum(len(env) + 2 for env in envs)
    a = np.zeros((n_rows, nv))
    rhs = np.empty(n_rows)

    # Four McCormick rows per flow, in flow order:
    #   z >= nl*x + xl*n - nl*xl   and   z >= nu*x + xu*n - nu*xu
    #   z <= nu*x + xl*n - nu*xl   and   z <= nl*x + xu*n - nl*xu
    mc = a[: 4 * nf].reshape(nf, 4, nv)  # view: [flow, row of the four, column]
    mc[jx, :, jz] = (-1.0, -1.0, 1.0, 1.0)
    mc[jx, :, jx] = np.array([nl, nu, -nu, -nl]).T
    mc[jx, :, jn] = np.array([xl, xu, -xl, -xu]).T
    rhs[: 4 * nf] = np.array([nl * xl, nu * xu, -nu * xl, -nl * xu]).T.ravel()

    # Capacity rows on the z (aggregate-rate) columns.
    r = 4 * nf
    a[r + pair_row, nf + pair_flow] = 1.0
    rhs[r : r + len(used)] = [problem.topology.links[i].capacity_mbps for i in used]
    r += len(used)

    for k, (c, env, j0, j1) in enumerate(zip(classes, envs, starts, ends)):
        nl_c, nu_c = n_box[c.id]
        ju, jn_c, jt = 2 * nf + nc + k, 2 * nf + k, 2 * nf + 2 * nc + k
        # u_k <= concave envelope of U_k(aggregate rate) over the box
        for slope, intercept in env:
            a[r, ju] = 1.0
            a[r, j0:j1] = -slope
            rhs[r] = intercept
            r += 1
        u_lo = c.utility.value(0.0)
        u_hi = max(b + s * agg_hi[k] for s, b in env) if env else u_lo
        lo_u = min(u_lo, 0.0)
        lo[ju] = lo_u
        hi[ju] = u_hi
        # t = n*u via McCormick over [nl,nu] x [lo_u, u_hi]
        for nk, uk in ((nu_c, lo_u), (nl_c, u_hi)):
            a[r, jt], a[r, ju], a[r, jn_c] = 1.0, -nk, -uk
            rhs[r] = -nk * uk
            r += 1
        lo[jt] = min(nl_c * lo_u, nu_c * lo_u, nl_c * u_hi, nu_c * u_hi, 0.0)

    cvec = np.zeros(nv)
    cvec[2 * nf + 2 * nc :] = 1.0

    sol = solve_lp(LinearProgram(cvec, a, rhs, lo=lo, hi=hi))
    if sol.status == "unbounded":
        return INF
    if sol.status != "optimal":
        raise PlannerError(f"relaxation LP returned {sol.status}")
    return float(sol.objective)


def _branch_and_bound(problem, general, scalable, config: PlannerConfig) -> Plan:
    """Best-first search over session-count boxes for the enumerated classes."""
    x_box = default_rate_boxes(problem)
    root = {c.id: (0, c.max_sessions) for c in problem.classes}

    incumbent = _zero_plan(problem)
    inc_key = _plan_sort_key(incumbent, problem)

    def leaf(nvals: dict[str, int]) -> Plan | None:
        per_class = []
        for c in general:
            if nvals[c.id] == 0:
                per_class.append([(c.id, 0, 0)])
            else:
                per_class.append(
                    [(c.id, nvals[c.id], pi) for pi in range(len(c.utility.pieces))]
                )
        best, best_key = None, None
        for combo in itertools.product(*per_class) if per_class else [()]:
            n = {cid: nk for cid, nk, _ in combo}
            seg = SegmentAssignment({cid: pi for cid, nk, pi in combo if nk >= 1})
            plan = _candidate_plan(problem, n, seg, scalable)
            if plan is None:
                continue
            key = _plan_sort_key(plan, problem)
            if best is None or key < best_key:
                best, best_key = plan, key
        return best

    counter = itertools.count()
    bound0 = mccormick_bound(problem, root, x_box)
    heap = [(-bound0, next(counter), root)]
    nodes = 0
    exhausted = True
    while heap:
        neg_bound, _, box = heapq.heappop(heap)
        # Keep nodes whose bound merely ties the incumbent: a tied candidate
        # can still win on the session-count and rate tie-breaks.
        if -neg_bound < incumbent.utility - 1e-9:
            continue
        nodes += 1
        if nodes > config.bb_node_limit:
            exhausted = False
            break
        wide = [
            (c.id, box[c.id][1] - box[c.id][0])
            for c in general
            if box[c.id][1] > box[c.id][0]
        ]
        if not wide:
            plan = leaf({c.id: box[c.id][0] for c in general})
            if plan is not None:
                key = _plan_sort_key(plan, problem)
                if key < inc_key:
                    incumbent, inc_key = plan, key
            continue
        wide.sort(key=lambda t: (-t[1], t[0]))
        cid = wide[0][0]
        nl, nu = box[cid]
        mid = (nl + nu) // 2
        for sub in ((nl, mid), (mid + 1, nu)):
            child = dict(box)
            child[cid] = sub
            b = mccormick_bound(problem, child, x_box)
            if b >= incumbent.utility - 1e-9:
                heapq.heappush(heap, (-b, next(counter), child))
    incumbent.optimality = "proved-optimal" if exhausted else "best-found"
    return incumbent


# ---------------------------------------------------------------------------
# KKT residual checking


@dataclass
class KktReport:
    feasibility: float
    dual_sign: float
    complementary_slackness: float
    gradient: float
    skipped_flows: list[tuple[str, str]] = field(default_factory=list)

    def max_residual(self) -> float:
        return _worst(
            [self.feasibility, self.dual_sign, self.complementary_slackness, self.gradient]
        )

    def ok(self, tol: float = KKT_TOL) -> bool:
        return self.max_residual() <= tol


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
    loads: dict[str, float] = {lid: 0.0 for lid in _link_order(problem)}
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
