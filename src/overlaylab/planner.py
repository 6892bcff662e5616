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
is bounded by the perspective relaxation (Gunluk & Linderoth), written as the
convex hull of the per-piece perspectives: with z = n*x, each class's
sessions are weights at the ends of its utility pieces, valued by each
piece's own line.  The relaxation is one LP per solve whose rows never
change; a box only sets its bounds, so each bound LP is solved by dual
simplex from the optimal basis of its nearest solved ancestor
(``_perspective_lp``, ``mccormick_bound``).  Boxes that cannot
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

import heapq
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace

import numpy as np

from .lp import LinearProgram, LpSolution, LpSolverError, solve_lp
from .model import (
    INF,
    Flow,
    ModelError,
    Topology,
    TrafficClass,
    check_sessions,
    cumulative_utility,
    json_number,
    json_object,
    read_only,
)

FEAS_TOL = 1e-7
KKT_TOL = 1e-6


@dataclass(frozen=True)
class PlanningProblem:
    """Estimated topology plus traffic classes and their candidate flows.

    A problem is frozen, with ``classes`` stored as a tuple and ``flows`` as a
    read-only mapping from each class id, in class order, to a tuple; neither
    is the caller's container.  The flow layout shared by the planner's LPs,
    the KKT check and the simulator is built once, read-only and outside the
    dataclass fields: ``link_ids`` in topology order, ``capacity`` (the link
    capacities in that order), ``flow_class`` (each flow's class index, in
    ``all_flows()`` order) and the 0/1 link-by-flow ``incidence`` of the routes.
    """

    topology: Topology
    classes: tuple[TrafficClass, ...]
    flows: Mapping[str, tuple[Flow, ...]]  # class id -> flows

    def __post_init__(self):
        # The dataclass is frozen, so attributes are set through object.__setattr__.
        object.__setattr__(self, "classes", tuple(self.classes))
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
        by_class = read_only({k: tuple(self.flows.get(k, ())) for k in by_id})
        object.__setattr__(self, "flows", by_class)
        object.__setattr__(self, "link_ids", tuple(ln.id for ln in self.topology.links))
        capacity = np.array([ln.capacity_mbps for ln in self.topology.links], dtype=float)
        row = {lid: i for i, lid in enumerate(self.link_ids)}
        flows = self.all_flows()
        flow_class = np.repeat(np.arange(len(self.classes)), [len(fl) for fl in self.flows.values()])
        incidence = np.zeros((len(self.link_ids), len(flows)))
        cols = np.repeat(np.arange(len(flows)), [len(f.route) for f in flows])
        incidence[[row[lid] for f in flows for lid in f.route], cols] = 1.0
        for name, table in (("capacity", capacity), ("flow_class", flow_class), ("incidence", incidence)):
            table.flags.writeable = False
            object.__setattr__(self, name, table)

    def all_flows(self) -> list[Flow]:
        return [f for fl in self.flows.values() for f in fl]


@dataclass(frozen=True)
class Plan:
    """Planner output: admitted sessions, per-session flow rates, link duals.

    A plan is frozen, and ``n``, ``rates`` and ``duals`` are read-only copies
    of the caller's dicts, so a plan checked once (``check_plan_ids``, a
    scenario's ``pinned_plan``) stays as checked; a variant is built with
    ``dataclasses.replace``.
    """

    n: Mapping[str, int]
    rates: Mapping[str, float]  # flow id -> per-session rate
    duals: Mapping[str, float]  # link id -> capacity dual
    utility: float
    optimality: str  # "proved-optimal" | "best-found"
    # Largest open relaxation bound minus utility when the search stopped
    # early; 0 when proved.  Not part of the plan's JSON or equality.
    gap: float = field(default=0.0, compare=False)

    def __post_init__(self):
        for name in ("n", "rates", "duals"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

    def aggregate_rates(self, problem: PlanningProblem) -> dict[str, float]:
        return {k: sum(self.rates.get(f.id, 0.0) for f in fl) for k, fl in problem.flows.items()}

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


@dataclass(frozen=True)
class PlannerConfig:
    """The search's settings; frozen like the problem it searches."""

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
    rhs[: len(used)] = problem.capacity[used]

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
    # Every class in class order, which ``cumulative_utility`` sums in.
    n_out = {c.id: c.max_sessions if c in scalable else n.get(c.id, 0) for c in problem.classes}
    sol, flows, duals = inner_lp(problem, n_out, pieces)
    if sol is not None and sol.status != "optimal":
        return None
    rates: dict[str, float] = {f.id: 0.0 for f in problem.all_flows()}
    if sol is not None:
        for j, f in enumerate(flows):
            rates[f.id] = max(0.0, float(sol.x[j]))

    # Minimal-session reporting for scalable classes: n*U(z/n) is n-invariant
    # for linear-through-origin U, so collapse to one session (or zero).
    for c in scalable:
        n_out[c.id] = int(sum(rates[f.id] for f in problem.flows[c.id]) > FEAS_TOL)
        # Any other class at n = 0 had no LP column, so its rates are already 0.0.
        for f in problem.flows[c.id]:
            rates[f.id] *= c.max_sessions if n_out[c.id] else 0.0
    # Score with the true utility of the reported point (a piece's linear form
    # can exceed the utility at a jump boundary, which belongs to the piece
    # below it).
    agg = {k: sum(rates[f.id] for f in fl) for k, fl in problem.flows.items()}
    utility = cumulative_utility(problem.classes, n_out, agg)
    return Plan(n_out, rates, duals or {lid: 0.0 for lid in problem.link_ids}, utility, "proved-optimal")


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


def default_rate_boxes(problem: PlanningProblem) -> dict[str, tuple[float, float]]:
    """Finite per-flow rate intervals implied by route capacities."""
    caps = np.where(problem.incidence > 0, problem.capacity[:, None], INF).min(axis=0, initial=INF)
    return {f.id: (0.0, float(cap)) for f, cap in zip(problem.all_flows(), caps)}


def _perspective_lp(problem: PlanningProblem):
    """The perspective relaxation of a box: ``(program, holds)``.

    A box gives each class, in problem order, a session range and a span of
    utility pieces, (n_lo, n_hi, i0, i1).  The relaxation is one program per
    problem whose objective and rows never change; a box only sets its
    bounds.  Its columns are [z_f (nf) | n_k (nc) | mu_j], z_f = n_k*x_f
    being a flow's aggregate rate.  Each class has two weight columns mu_j
    per piece it can reach, at the piece's ends X_j = x_lo and
    min(x_hi, agg_hi_k), agg_hi_k being the class's ``default_rate_boxes``
    summed; a piece starting past agg_hi_k has none.  The rows are the
    capacity rows on z and, per class, sum_f z_f = sum_j X_j*mu_j and
    sum_j mu_j = n_k, each as two <= rows, and the objective is
    sum_j U_j*mu_j with U_j the piece's own line at X_j.  Any n_k sessions
    at a rate x on a piece are mu = n_k split between the piece's ends, so
    this is the convex hull of the per-piece perspectives (Balas 1979; Ceria
    & Soares 1999): each piece is valued by its own closure, which also
    takes the right-hand value at an upward jump.  The box's session range
    bounds n_k, and every mu_j of a piece outside its span is fixed at 0
    (the others are at most n_hi).  ``program(box)`` is that program under
    the box's bounds.  ``holds(x, k, entry)`` tells whether the point x of
    another box's program, which differs from this box only in class k,
    is, up to moving class k's weight between its pieces, a point of this
    one: n_k is in range, and any weight off the span can move onto it at
    no loss, its sessions' mean rate and worth lying under the span's
    envelope.
    """
    classes, flow_class = problem.classes, problem.flow_class
    nf, nc = len(flow_class), len(classes)
    x_box = default_rate_boxes(problem)
    agg_hi = np.bincount(flow_class, [x_box[f.id][1] for f in problem.all_flows()], minlength=nc)
    ends = [
        (k, i, x, p.a * x + p.b)
        for k, c in enumerate(classes)
        for i, p in enumerate(c.utility.pieces)
        if p.x_lo <= agg_hi[k]
        for x in (p.x_lo, min(p.x_hi, float(agg_hi[k])))
    ]
    owner, piece, at, value = (np.array(col) for col in zip(*ends))
    mu = nf + nc + np.arange(len(ends))
    w = np.searchsorted(owner, np.arange(nc + 1))  # class k's weights: mu[w[k] : w[k + 1]]
    # Per class: sum_f z_f - sum_j X_j mu_j, and sum_j mu_j - n_k.
    rate = np.zeros((nc, mu[-1] + 1))
    rate[flow_class, np.arange(nf)] = 1.0
    rate[owner, mu] = -at
    count = np.zeros_like(rate)
    count[owner, mu] = 1.0
    count[np.arange(nc), nf + np.arange(nc)] = -1.0
    used = problem.incidence.any(axis=1).nonzero()[0]
    capacity_rows = np.zeros((len(used), len(rate[0])))
    capacity_rows[:, :nf] = problem.incidence[used]
    c = np.zeros(len(rate[0]))
    c[mu] = value
    relaxation = LinearProgram(
        c,
        np.concatenate([capacity_rows, rate, -rate, count, -count]),
        np.concatenate([problem.capacity[used], np.zeros(4 * nc)]),
    )

    def program(box) -> LinearProgram:
        n_lo, n_hi, i0, i1 = np.array(box).reshape(nc, 4).T
        lo, hi = np.zeros(len(c)), np.full(len(c), INF)
        lo[nf : nf + nc], hi[nf : nf + nc] = n_lo, n_hi
        hi[mu] = np.where((i0[owner] <= piece) & (piece <= i1[owner]), n_hi[owner], 0)
        return relaxation.with_bounds(lo, hi)

    def holds(x: np.ndarray, k: int, entry) -> bool:
        n_lo, n_hi, i0, i1 = entry
        nk = x[nf + k]
        if not n_lo - FEAS_TOL <= nk <= n_hi + FEAS_TOL:
            return False
        j = slice(w[k], w[k + 1])
        inside = (i0 <= piece[j]) & (piece[j] <= i1)
        weights = x[mu[j]]
        if np.all(weights[~inside] <= FEAS_TOL):
            return True
        if nk <= FEAS_TOL:
            return False
        # Weight off the span may still be moved onto it: the class's n_k
        # sessions at their mean rate r, worth t, fit under the upper
        # envelope of the span's weight points at r.
        r, t = weights @ at[j] / nk, weights @ value[j]
        X, U = at[j][inside], value[j][inside]
        left, right = X <= r + 1e-12, X >= r - 1e-12
        if not (left.any() and right.any()):
            return False
        xa, ua = X[left, None], U[left, None]
        width = X[right] - xa
        step = np.divide(r - xa, width, out=np.zeros_like(width), where=width > 1e-12)
        return bool(nk * (ua + step * (U[right] - ua)).max() >= t - FEAS_TOL)

    return program, holds


# Relative slack on a relaxation bound for the LP's float error.  It must
# stay well below UTILITY_TIE_TOL, or a bound that ties the incumbent would
# never prune.
BOUND_SLACK = 1e-12


def mccormick_bound(program: LinearProgram, basis: np.ndarray | None = None):
    """A box's bound on utility, the relaxation point and the basis that attain it.

    ``program`` is the box's ``_perspective_lp`` program and ``basis`` an
    optimal basis of another box's, which ``solve_lp`` starts from by dual
    simplex.  The LP's optimum is raised by ``BOUND_SLACK`` so that its
    float error cannot leave the bound below a candidate of the box.  An
    infeasible program gives (-INF, None, None): the box holds no
    candidate.  The relaxation is bounded (each column has a finite upper
    bound or a capacity row), so any other status raises ``LpSolverError``.
    The name is kept from the McCormick relaxation this replaced
    (``tests/mccormick_ref.py``), which is never tighter.
    """
    sol = solve_lp(program, basis)
    if sol.status == "infeasible":
        return -INF, None, None
    if sol.status != "optimal":
        raise LpSolverError(f"perspective relaxation is {sol.status}")
    bound = float(sol.objective)
    return bound + BOUND_SLACK * (1.0 + abs(bound)), sol.x, sol.basis


def _bound_level(bound: float) -> float:
    """A bound quantised like the utility in ``_plan_sort_key``; INF stays INF."""
    return INF if bound == INF else round(bound / UTILITY_TIE_TOL)


def solve_plan(problem: PlanningProblem, config: PlannerConfig | None = None) -> Plan:
    """Exact solve of the admission + rate problem; deterministic tie-breaks.

    Classes whose utility is linear through the origin ride along at their
    maximum session count.  The others are searched best-first (Land &
    Doig) over boxes that give each class a session range and a piece span,
    each box bounded by ``mccormick_bound`` on its ``_perspective_lp``
    program.  The root's program is solved cold; every other bound LP starts
    from the optimal basis of the box's nearest solved ancestor, which its
    heap entry carries as column ids, and is solved by dual simplex.  The
    widest session range splits first, the smallest class id among equals;
    once every count is fixed, the widest span of a class with sessions
    splits, the smallest class index among equals.  A box with fixed counts
    and one piece per class with sessions is a candidate, solved by
    ``inner_lp`` once it is popped; it is bounded when pushed like any other
    box, so a candidate whose bound cannot win is never solved.  A child
    takes its parent's bound, point and basis without an LP when the
    parent's relaxation point ``holds`` in the child's program, whose
    optimum it then is.
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
    The heap orders boxes by that quantised bound, so float noise in a bound
    cannot reorder them, and equal bounds pop smallest sum(n_lo) first, so
    the fewest-session incumbent appears before a tied band is searched.
    Every expanded box counts toward ``config.bb_node_limit``; a search
    stopped there returns its incumbent labelled "best-found", with ``gap``
    the largest open bound above its utility, both quantised.
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
    bound, point, basis = INF, None, None
    if branch(root) is not None:
        bound, point, basis = mccormick_bound(program(root))
    heap = [(-_bound_level(bound), 0, next(counter), bound, root, point, basis)]
    nodes = 0
    while heap:
        _, lo_sum, _, parent_bound, box, point, basis = heapq.heappop(heap)
        if dominated(parent_bound, lo_sum, box):
            continue
        nodes += 1
        if nodes > config.bb_node_limit:
            # Popped best-first, this box holds the largest open bound level.
            # The gap in tie-tolerance steps: 0 when the bound ties the utility.
            steps = _bound_level(parent_bound) + inc_key[0][0]
            return replace(incumbent, optimality="best-found", gap=max(steps, 0) * UTILITY_TIE_TOL)
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
            bound, x, child_basis = parent_bound, point, basis
            if point is None or not holds(point, k, child[k]):
                bound, x, child_basis = mccormick_bound(program(child), basis)
            if bound != -INF and not dominated(bound, child_lo, child):
                level = -_bound_level(bound)
                heapq.heappush(heap, (level, child_lo, next(counter), bound, child, x, child_basis))
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
    """Largest residual, floored at +0.0; NaN if any residual is NaN."""
    # Adding +0.0 turns a -0.0 maximum into +0.0 and keeps NaN.
    return float(np.max(np.array(residuals, dtype=float), initial=0.0)) + 0.0


def check_plan_ids(problem: PlanningProblem, plan: Plan) -> None:
    """A ``ModelError`` if ``plan`` names a link, flow or class that ``problem`` lacks."""
    for kind, keys, known in (
        ("link", plan.duals, set(problem.link_ids)),
        ("flow", plan.rates, {f.id for f in problem.all_flows()}),
        ("class", plan.n, {c.id for c in problem.classes}),
    ):
        for key in keys:
            if key not in known:
                raise ModelError(f"plan references unknown {kind} {key!r}")


def check_kkt(problem: PlanningProblem, plan: Plan) -> KktReport:
    """Residuals of the stationarity and feasibility conditions for a plan.

    The rate-gradient condition is checked per positive-rate flow against the
    subgradient interval of the class utility at its aggregate rate; session
    counts are integers, so no gradient condition is checked for them.  A NaN
    anywhere in the plan makes the residual it enters NaN, which fails ``ok``.
    """
    flows, flow_class = problem.all_flows(), problem.flow_class
    nk = np.array([plan.n.get(c.id, 0) for c in problem.classes])
    n = nk[flow_class]
    rates = np.array([plan.rates.get(f.id, 0.0) for f in flows])
    lam = np.array([plan.duals.get(lid, 0.0) for lid in problem.link_ids])
    over = problem.incidence @ (n * rates) - problem.capacity
    feas = [*over, *(nk - [c.max_sessions for c in problem.classes]), *-nk]
    feas += [-r for r in plan.rates.values()]

    # Each class's utility slope interval at its aggregate rate.  It is NaN for
    # a class without sessions, whose flows are skipped, and for one whose
    # aggregate is not finite, whose flows are all checked and read NaN.
    agg = plan.aggregate_rates(problem)
    slopes = np.array([
        c.utility.slope_range(agg[c.id]) if nk[k] and math.isfinite(agg[c.id]) else (math.nan,) * 2
        for k, c in enumerate(problem.classes)
    ]).reshape(-1, 2)
    lo, hi = n * slopes[flow_class].T
    val = n * (problem.incidence.T @ lam)
    checked = (n != 0) & ((rates > FEAS_TOL) | np.isnan(lo))
    grad = [*(lo - val)[checked], *(val - hi)[checked]]
    skipped = [
        (f.id, "zero rate" if nf else "class admits no sessions")
        for f, nf, check in zip(flows, n, checked)
        if not check
    ]
    return KktReport(_worst(feas), _worst(-lam), _worst(abs(lam * over)), _worst(grad), skipped)
