"""Bounded-variable linear programming with dual extraction.

Maximizes c.x subject to A x <= b and per-variable bounds, returning both the
primal optimum and the duals of the inequality rows.  The implementation is a
two-phase simplex on a condensed dense tableau: it stores only the nonbasic
columns and the right-hand side, since each basic column is a unit vector.
On each pivot the entering and leaving columns swap places, and a full-length
reduced-cost row keeps pricing in terms of column ids.  The pivot path is the
one a full tableau takes: every pivot choice, and every stored entry's
arithmetic, is the same.  Desk-scale instances do not justify sparse
machinery.

Pricing uses Dantzig's rule with index tie-breaks for speed, and switches to
Bland's rule after a run of degenerate pivots so cycling cannot occur.  The
pivot sequence is a pure function of the input, so repeated solves of the same
program give bit-identical answers.  An optimal answer is verified before it
is returned: primal feasibility, dual sign and dual feasibility, the duality
gap, and complementary slackness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INF = math.inf

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
STALL_LIMIT = 200  # degenerate pivots before falling back to Bland's rule
MAX_ITERATIONS = 50_000  # pivots over both phases before LpSolverError


class LpInputError(ValueError):
    """Malformed program: NaN/Inf coefficients or inconsistent shapes."""


class LpSolverError(RuntimeError):
    """The solver could not certify an answer (iteration cap, drift)."""


@dataclass
class LinearProgram:
    """maximize c.x  s.t.  A x <= b,  lo <= x <= hi (hi may be +inf)."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lo: np.ndarray | None = None
    hi: np.ndarray | None = None

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.a = np.asarray(self.a, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if self.a.ndim != 2:
            raise LpInputError("A must be 2-D")
        m, n = self.a.shape
        if self.c.shape != (n,) or self.b.shape != (m,):
            raise LpInputError("inconsistent dimensions")
        self.lo = np.zeros(n) if self.lo is None else np.asarray(self.lo, dtype=float)
        self.hi = np.full(n, INF) if self.hi is None else np.asarray(self.hi, dtype=float)
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            raise LpInputError("inconsistent bound dimensions")
        for arr in (self.c, self.a, self.b):
            if not np.all(np.isfinite(arr)):
                raise LpInputError("NaN or Inf in program data")
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise LpInputError("NaN in bounds")
        if np.any(self.lo > self.hi):
            raise LpInputError("lo > hi for some variable")
        if not np.all(np.isfinite(self.lo)):
            raise LpInputError("lower bounds must be finite")


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None  # y_i >= 0 per inequality row
    iterations: int = 0


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve the program; optimal solutions carry row duals.

    A variable with lo == hi is a constant: it moves to the right-hand side
    and the simplex never sees its column.  Raises LpSolverError instead of
    returning a silently wrong answer when the ``MAX_ITERATIONS`` cap is hit
    or the final tableau fails verification.
    """
    m = len(lp.b)

    # Shift lower bounds to zero and fold finite upper bounds into extra rows,
    # so internally the problem is max c.x', A' x' <= b', x' >= 0 over the
    # free variables.
    shift = lp.lo
    b_rows = lp.b - lp.a @ shift
    free = lp.lo < lp.hi
    c, a_rows, hi = (lp.c, lp.a, lp.hi) if free.all() else (lp.c[free], lp.a[:, free], lp.hi[free])
    ub_idx = np.flatnonzero(np.isfinite(hi))
    if len(ub_idx):
        ub_a = np.zeros((len(ub_idx), len(c)))
        ub_a[np.arange(len(ub_idx)), ub_idx] = 1.0
        a_rows = np.vstack([a_rows, ub_a])
        b_rows = np.concatenate([b_rows, hi[ub_idx] - shift[free][ub_idx]])

    status, x_shifted, y_all, iters = _simplex(c, a_rows, b_rows, MAX_ITERATIONS)
    if status != "optimal":
        return LpSolution(status=status, iterations=iters)

    x = shift.copy()
    x[free] += x_shifted
    duals = y_all[:m]
    reduced = c - y_all @ a_rows  # includes upper-bound rows in the price
    objective = float(lp.c @ x)

    _verify(lp, x, reduced, objective, y_all, b_rows)
    return LpSolution("optimal", x, objective, duals, iters)


def _verify(lp, x, reduced, objective, y_all, b_rows):
    scale = 1.0 + max(
        float(np.max(np.abs(lp.b), initial=0.0)), float(np.max(np.abs(x), initial=0.0))
    )
    slack = lp.b - lp.a @ x
    if np.min(slack, initial=0.0) < -FEAS_TOL * scale:
        raise LpSolverError("primal feasibility lost in final tableau")
    if np.min(y_all, initial=0.0) < -FEAS_TOL:
        raise LpSolverError("negative dual in final tableau")
    # Dual feasibility: no structural column of the internal program may still
    # price in (its slack columns price at -y, checked just above).
    if np.max(reduced, initial=0.0) > FEAS_TOL * scale:
        raise LpSolverError("dual feasibility violated: a column has positive reduced cost")
    gap = abs(objective - float(y_all @ b_rows) - float(lp.c @ lp.lo))
    if gap > FEAS_TOL * (1.0 + abs(objective)) + FEAS_TOL:
        raise LpSolverError(f"strong duality gap {gap:g} exceeds tolerance")
    cs = np.abs(y_all[: len(lp.b)] * slack)
    if np.max(cs, initial=0.0) > FEAS_TOL * scale * 10:
        raise LpSolverError("complementary slackness violated in final tableau")


def _simplex(c, a, b, max_iterations):
    """Two-phase simplex for max c.x, A x <= b, x >= 0 on a condensed tableau.

    Column ids follow the full layout [structural (n) | slacks (m) |
    artificials (n_art)], but the tableau stores only the nonbasic columns
    and the right-hand side: a basic column is a unit vector and carries no
    information.  ``ids`` maps a stored position to its column id (the rhs
    is id ``total``) and ``pos`` maps an id back (-1 while basic).  The
    reduced-cost row ``z`` stays full length, indexed by id, so every pricing
    and tie-break decision is the one the full tableau makes.
    """
    m, n = a.shape
    # Flip rows with negative rhs and give them artificial variables.
    neg = b < 0
    a = a.copy()
    b = b.copy()
    a[neg] *= -1.0
    b[neg] *= -1.0
    neg_rows = np.flatnonzero(neg)
    n_art = len(neg_rows)
    total = n + m + n_art
    if total == 0:  # no variable and no row: the empty program
        return "optimal", np.zeros(0), np.zeros(0), 0

    # Each flipped row starts with its artificial basic; every other row with
    # its slack.  The nonbasic columns are the structurals and the flipped
    # rows' slacks, which enter with -1 (it was  a.x - s = b  originally).
    basis = n + np.arange(m)
    basis[neg_rows] = n + m + np.arange(n_art)
    cols = np.concatenate([np.arange(n), n + neg_rows])
    width = n + n_art
    T = np.zeros((m, width + 1))
    T[:, :n] = a
    T[neg_rows, n + np.arange(n_art)] = -1.0
    T[:, -1] = b
    ids = np.append(cols, total)  # id of every stored column, rhs last
    pos = np.full(total, -1)
    pos[cols] = np.arange(width)

    iters = 0

    def run_phase(obj, blocked, iters):
        """Price with obj over unblocked columns; pivot until optimal."""
        z = _price(obj, T, ids, basis, total)
        stall = 0
        last_obj = -INF
        while True:
            red = -z[:total]
            red[blocked] = -INF
            if stall < STALL_LIMIT:
                col = int(red.argmax())
                if red[col] <= PIVOT_TOL:
                    return z, iters, True
            else:  # Bland: first improving index
                improving = (red > PIVOT_TOL).nonzero()[0]
                if len(improving) == 0:
                    return z, iters, True
                col = int(improving[0])
            p = pos[col]
            colvec = T[:, p]
            mask = colvec > PIVOT_TOL
            if not mask.any():
                return z, iters, False  # unbounded in this phase
            ratios = np.divide(T[:, -1], colvec, out=np.full(m, INF), where=mask)
            best = ratios.min()
            # deterministic tie-break: smallest basis column id among ties
            ties = (ratios <= best + 1e-12).nonzero()[0]
            row = int(ties[basis[ties].argmin()])
            _swap(T, basis, ids, pos, row, col)
            z[ids] -= z[col] * T[row]
            z[col] = 0.0  # exact after pivot
            iters += 1
            if iters > max_iterations:
                raise LpSolverError("simplex iteration cap exceeded")
            cur = float(z[-1])
            if cur <= last_obj + 1e-12:
                stall += 1
            else:
                stall = 0
            last_obj = cur

    blocked = np.zeros(total, dtype=bool)
    if n_art:
        phase1 = np.zeros(total)
        phase1[n + m :] = -1.0  # maximize -(sum of artificials)
        z1, iters, _ = run_phase(phase1, blocked, iters)
        if float(z1[-1]) < -FEAS_TOL:
            return "infeasible", None, None, iters
        # Drive any artificial still in the basis out (degenerate rows): the
        # entering column is the lowest structural or slack id whose entry in
        # the row clears the pivot tolerance.
        for i in range(m):
            if basis[i] >= n + m:
                row_vals = np.abs(T[i, :-1])
                cand = np.flatnonzero((ids[:-1] < n + m) & (row_vals > PIVOT_TOL))
                if len(cand):
                    _swap(T, basis, ids, pos, i, int(np.min(ids[cand])))
        blocked[n + m :] = True

    obj = np.zeros(total)
    obj[:n] = c
    z2, iters, bounded = run_phase(obj, blocked, iters)
    if not bounded:
        return "unbounded", None, None, iters

    x = np.zeros(total)
    x[basis] = T[:, -1]
    # Row duals: the z-row entry at each slack column equals the dual of the
    # original row (the slack column carries the flip sign, so no adjustment).
    y = z2[n : n + m].copy()
    y[np.abs(y) < PIVOT_TOL] = 0.0
    np.maximum(y, 0.0, out=y)
    return "optimal", x[:n], y, iters


def _price(obj, T, ids, basis, total):
    """Reduced-cost row obj_B.T - obj over every column id and the rhs.

    The product is taken on the full-width tableau, basic unit columns
    included, so that each entry is summed in the same order, and so rounded
    the same way, as a full tableau would sum it.
    """
    m = T.shape[0]
    full = np.zeros((m, total + 1))
    full[:, ids] = T
    full[np.arange(m), basis] = 1.0
    z = obj[basis] @ full
    z[:total] -= obj
    return z


def _swap(T, basis, ids, pos, row, col):
    """Pivot column id ``col`` into the basis at ``row``.

    The entering column leaves the stored set and the leaving column, the
    unit vector e_row until now, takes its stored position.  Every stored
    entry gets the arithmetic the full tableau pivot gives it.
    """
    p = pos[col]
    leaving = basis[row]
    piv = T[row, p]
    factors = T[:, p].copy()
    factors[row] = 0.0
    T[:, p] = 0.0
    T[row, p] = 1.0
    T[row] /= piv
    # Rows with a zero factor would only subtract zeros.
    nz = factors.nonzero()[0]
    T[nz] -= factors[nz, None] * T[row]
    basis[row] = col
    ids[p] = leaving
    pos[leaving] = p
    pos[col] = -1
