"""An exact MILP for the planning problem, kept as a test oracle (needs scipy).

``milp_utility`` solves the admission and rate problem with HiGHS through
``scipy.optimize.milp``; it shares no code with the planner's search or LP.
For each class k, session count m in 1..N_k and utility piece i there is one
binary y (at most one per class) and one aggregate rate z_f for each flow f
of k, the m sessions' rate on that route.  The combination's total
Z = sum_f z_f lies in [m*x_lo, m*x_hi] when y = 1 and is 0 otherwise, the
last piece being capped by the class's route capacities; it earns
a_i*Z + m*b_i*y, which is m*U(Z/m) on the piece.  Each link's capacity row
sums z_f over every combination of every flow that crosses it.

Pieces are half-open, (x_lo, x_hi], but the MILP's intervals are closed: at
an upward jump it could claim the piece's right-hand limit at x_lo, which no
plan reaches.  So every piece after the first starts at x_lo + 1e-9, and the
MILP and the planner agree only to within a small relative tolerance.  A MILP
returns a utility, not the planner's tie-broken plan, so only the utility and,
by a second solve (``milp_min_sessions``), the fewest sessions that reach it
are compared; ``enum_ref`` stays the oracle for plan bytes.
"""
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array, csr_array, vstack

from overlaylab.model import INF
from overlaylab.planner import PlanningProblem, default_rate_boxes

HALF_OPEN_EPS = 1e-9


def milp_utility(problem: PlanningProblem) -> float:
    cost, _, a, row_lo, row_hi, upper, integrality = _model(problem)
    return -_solve(-cost, a, row_lo, row_hi, upper, integrality).fun


def milp_min_sessions(problem: PlanningProblem, utility_floor: float) -> int:
    """The fewest sessions, summed over classes, that reach ``utility_floor``.

    The same model with the utility as a row, cost . v >= ``utility_floor``,
    and the session count as the objective.  A class whose utility is linear
    through the origin earns the same at any count, so the planner's rule
    for such a class (all its sessions) is not this minimum.
    """
    cost, sessions, a, row_lo, row_hi, upper, integrality = _model(problem)
    a = vstack([a, csr_array(cost[None, :])])
    res = _solve(sessions, a, [*row_lo, utility_floor], [*row_hi, INF], upper, integrality)
    return round(res.fun)


def _model(problem):
    """(utility per variable, sessions per variable, rows, row bounds, upper bounds, integrality)."""
    x_box = default_rate_boxes(problem)
    link_row = {lid: r for r, lid in enumerate(problem.link_ids)}
    n_links = len(link_row)
    cost, sessions, upper, binaries = [], [], [], []  # per variable; the binaries' columns
    entries = []  # (row, column, value)
    row_lo, row_hi = [0.0] * n_links, [ln.capacity_mbps for ln in problem.topology.links]
    for c in problem.classes:
        flows = problem.flows[c.id]
        agg_hi = sum(x_box[f.id][1] for f in flows)
        pick = len(row_lo)  # sum of the class's binaries <= 1
        row_lo.append(0.0)
        row_hi.append(1.0)
        for m in range(1, c.max_sessions + 1):
            for i, p in enumerate(c.utility.pieces):
                y = len(cost)
                binaries.append(y)
                cost.append(m * p.b)
                sessions.append(m)
                upper.append(1.0)
                entries.append((pick, y, 1.0))
                lo = m * (p.x_lo + (HALF_OPEN_EPS if i else 0.0))
                hi = min(m * p.x_hi, agg_hi) if p.x_hi != INF else agg_hi
                lo_row, hi_row = len(row_lo), len(row_lo) + 1
                row_lo += [-INF, -INF]  # lo*y - Z <= 0 and Z - hi*y <= 0
                row_hi += [0.0, 0.0]
                entries += [(lo_row, y, lo), (hi_row, y, -hi)]
                for f in flows:
                    z = len(cost)
                    cost.append(p.a)
                    sessions.append(0)
                    upper.append(x_box[f.id][1])
                    entries += [(lo_row, z, -1.0), (hi_row, z, 1.0)]
                    entries += [(link_row[lid], z, 1.0) for lid in f.route]
    rows, cols, vals = zip(*entries)
    a = coo_array((vals, (rows, cols)), shape=(len(row_lo), len(cost))).tocsr()
    integrality = np.zeros(len(cost))
    integrality[binaries] = 1
    return np.array(cost), np.array(sessions, dtype=float), a, row_lo, row_hi, upper, integrality


def _solve(objective, a, row_lo, row_hi, upper, integrality):
    res = milp(
        objective,
        integrality=integrality,
        bounds=Bounds(np.zeros(len(objective)), np.array(upper)),
        constraints=LinearConstraint(a, row_lo, row_hi),
        options={"mip_rel_gap": 1e-9},
    )
    if not res.success:
        raise AssertionError(f"MILP failed: {res.message}")
    return res
