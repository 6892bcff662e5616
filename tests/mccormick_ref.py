"""The planner's previous McCormick relaxation, kept as a reference.

``mccormick_ref`` bounds the achievable utility over a box of session counts
by an LP over per-session rates x, aggregate rates z = n*x, session counts n,
utilities u and products t = n*u: each bilinear term is replaced by its
McCormick envelope and each utility by its concave envelope over the rate
box.  ``overlaylab.planner.mccormick_bound`` now uses the perspective
reformulation instead, which must never be looser than this bound.  The
concave envelope, ``_upper_concave_envelope``, is kept here with it.  The
program this builds also pins the LP kernel against the dense reference
kernel in ``tests/test_lp_oracle.py``.
"""
import numpy as np

from overlaylab.lp import LinearProgram, solve_lp
from overlaylab.model import INF, PiecewiseLinearUtility
from overlaylab.planner import PlanningProblem, default_rate_boxes


class McCormickRefError(RuntimeError):
    """An empty session box or a relaxation that is not optimal."""


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


def mccormick_ref(
    problem: PlanningProblem,
    n_box: dict[str, tuple[int, int]],
    x_box: dict[str, tuple[float, float]] | None = None,
) -> float:
    x_box = x_box or default_rate_boxes(problem)
    classes = problem.classes
    flows = problem.all_flows()
    nf = len(flows)
    nc = len(classes)
    for c in classes:
        if n_box[c.id][0] > n_box[c.id][1]:
            raise McCormickRefError(f"empty session box for class {c.id!r}")

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

    used = problem.incidence.any(axis=1).nonzero()[0]  # links some route uses
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
    a[r : r + len(used), nf : 2 * nf] = problem.incidence[used]
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
        raise McCormickRefError(f"relaxation LP returned {sol.status}")
    return float(sol.objective)
