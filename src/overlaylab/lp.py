"""Bounded-variable linear programming with dual extraction.

Maximizes c.x subject to A x <= b and per-variable bounds, returning both the
primal optimum and the duals of the inequality rows.  A cold solve is a
two-phase simplex on a dense tableau, whose pivots skip the rows with a zero
factor.  Desk-scale instances do not justify sparse machinery.

Pricing uses Dantzig's rule with index tie-breaks for speed, and switches to
Bland's rule after a run of degenerate pivots so cycling cannot occur.  The
pivot sequence is a pure function of the input, so repeated solves of the same
program give bit-identical answers.

An optimal answer also reports its basis, as column ids of the program.  A
program that differs from an earlier one only in tighter bounds can start
from that basis, which keeps the dual feasibility of the earlier optimum,
and a revised bounded dual simplex restores primal feasibility.  It keeps
B^-1 rather than a tableau: a pivot forms one row of B^-1 [A I] and one
column B^-1 a_q, and updates B^-1 by a rank-1 step.  Upper bounds are not
rows there: a nonbasic variable sits at either of its bounds, so tighter
bounds change only the right-hand side.  The leaving row is chosen by dual
steepest edge, and Bland's rule takes over after a run of degenerate
pivots.  A start that does not fit, or an answer that fails verification,
falls back to a cold solve.

Every optimal answer, cold or warm, is verified before it is returned, and
the checks do not depend on how the basis was reached: x, the duals and the
objective are finite, x satisfies A x <= b, the duals are nonnegative and
price no column in (a column at its upper bound through the dual of that
bound, as the cold solve's bound rows do), the duality gap closes and the
slackness is complementary.  Each check fails on NaN.
"""
from __future__ import annotations

import copy
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
        for arr in (self.c, self.a, self.b):
            if not np.all(np.isfinite(arr)):
                raise LpInputError("NaN or Inf in program data")
        self.lo, self.hi = _checked_bounds(self.lo, self.hi, n)

    def with_bounds(self, lo, hi) -> "LinearProgram":
        """This program's objective and rows, checked once, under other bounds."""
        out = copy.copy(self)
        out.lo, out.hi = _checked_bounds(lo, hi, len(self.c))
        return out


def _checked_bounds(lo, hi, n):
    lo = np.zeros(n) if lo is None else np.asarray(lo, dtype=float)
    hi = np.full(n, INF) if hi is None else np.asarray(hi, dtype=float)
    if lo.shape != (n,) or hi.shape != (n,):
        raise LpInputError("inconsistent bound dimensions")
    if not (np.isfinite(lo).all() and (lo <= hi).all()):  # NaN fails both
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise LpInputError("NaN in bounds")
        if (lo > hi).any():
            raise LpInputError("lo > hi for some variable")
        raise LpInputError("lower bounds must be finite")
    return lo, hi


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None = None
    objective: float | None = None
    duals: np.ndarray | None = None  # y_i >= 0 per inequality row
    iterations: int = 0
    # The optimal basis as column ids (see ``solve_lp``); None when an
    # artificial column is left in it.
    basis: np.ndarray | None = None


def solve_lp(lp: LinearProgram, basis: np.ndarray | None = None) -> LpSolution:
    """Solve the program; optimal solutions carry row duals and their basis.

    Column ids count the variables (n), then the slacks of the m rows.  A
    basis lists the m basic ids, then the variables that are nonbasic at
    their upper bound; every other variable is nonbasic at its lower bound.
    Given ``basis``, optimal for a program with the same objective and rows
    whose bounds were no tighter, the solve starts there by dual simplex and
    ``iterations`` counts its pivots.  A basis that does not fit this
    program, that is singular, whose final basis is not dual feasible, or
    whose answer fails verification is dropped for a cold solve.  Raises
    LpSolverError instead of returning a silently wrong answer when the
    ``MAX_ITERATIONS`` cap is hit or the final tableau fails verification.
    """
    if basis is not None:
        try:
            sol = _warm(lp, np.asarray(basis))
        except LpSolverError:
            sol = None
        if sol is not None:
            return sol
    return _cold(lp)


def _cold(lp):
    m, n = lp.a.shape
    # Shift lower bounds to zero and fold finite upper bounds into extra rows,
    # so internally the problem is max c.x', A' x' <= b', x' >= 0.
    shift = lp.lo
    b_rows = lp.b - lp.a @ shift
    a_rows = lp.a
    ub_idx = np.flatnonzero(np.isfinite(lp.hi))
    if len(ub_idx):
        ub_a = np.zeros((len(ub_idx), n))
        ub_a[np.arange(len(ub_idx)), ub_idx] = 1.0
        a_rows = np.vstack([a_rows, ub_a])
        b_rows = np.concatenate([b_rows, lp.hi[ub_idx] - shift[ub_idx]])

    status, x_shifted, y_all, iters, final = _simplex(lp.c, a_rows, b_rows, MAX_ITERATIONS)
    if status != "optimal":
        return LpSolution(status=status, iterations=iters)

    x = shift + x_shifted
    duals = y_all[:m]
    reduced = lp.c - y_all @ a_rows  # includes upper-bound rows in the price
    objective = float(lp.c @ x)

    _verify(lp, x, reduced, objective, y_all, b_rows)
    basis = None
    if final is not None:
        # Internal ids as program ids, the upper-bound slack of variable j as
        # -1 - j.  A variable whose upper-bound slack is nonbasic is basic at
        # that bound internally, and nonbasic at its upper bound here.
        ids = np.concatenate([np.arange(n + m), -1 - ub_idx])[final]
        upper = np.zeros(n + m, dtype=bool)
        upper[ub_idx] = True
        upper[-1 - ids[ids < 0]] = False
        basic = ids[ids >= 0]
        basis = np.concatenate([basic[~upper[basic]], upper.nonzero()[0]])
    return LpSolution("optimal", x, objective, duals, iters, basis)


def _warm(lp, basis):
    """The program solved by dual simplex from ``basis``; None if it does not fit."""
    m, n = lp.a.shape
    span = np.concatenate([lp.hi - lp.lo, np.full(m, INF)])  # range of every column id
    start, upper = basis[:m], basis[m:]
    fits = len(start) == m and basis.dtype.kind in "iu" and np.all((basis >= 0) & (basis < n + m))
    if not fits or np.bincount(basis, minlength=n + m).max(initial=0) > 1:
        return None  # ids out of range, or listed twice
    if not np.isfinite(span[upper]).all():
        return None
    upper = upper[span[upper] > 0]  # a fixed column sits at its lower bound
    b_shifted = lp.b - lp.a @ lp.lo
    rhs = b_shifted - lp.a[:, upper] @ span[upper]
    result = _dual_simplex(lp.c, lp.a, rhs, start, upper, span, MAX_ITERATIONS)
    if result is None:
        return None
    status, x_shifted, y, iters, final = result
    if status != "optimal":
        return LpSolution(status=status, iterations=iters)

    x = lp.lo + x_shifted[:n]
    # A column at its upper bound that still prices in pays the dual of
    # that bound: the upper bounds are rows of the price, as cold.
    reduced = lp.c - y @ lp.a
    fin = np.isfinite(lp.hi)
    ub_duals = np.maximum(reduced[fin], 0.0)
    reduced[fin] -= ub_duals
    objective = float(lp.c @ x)
    b_rows = np.concatenate([b_shifted, span[:n][fin]])
    _verify(lp, x, reduced, objective, np.concatenate([y, ub_duals]), b_rows)
    return LpSolution("optimal", x, objective, y, iters, final)


def _verify(lp, x, reduced, objective, y_all, b_rows):
    # Each test is written so that a NaN fails it.
    if not (math.isfinite(objective) and np.isfinite(x).all() and np.isfinite(y_all).all()):
        raise LpSolverError("non-finite value in final tableau")
    scale = 1.0 + max(float(np.abs(lp.b).max(initial=0.0)), float(np.abs(x).max(initial=0.0)))
    slack = lp.b - lp.a @ x
    if not slack.min(initial=0.0) >= -FEAS_TOL * scale:
        raise LpSolverError("primal feasibility lost in final tableau")
    if not y_all.min(initial=0.0) >= -FEAS_TOL:
        raise LpSolverError("negative dual in final tableau")
    # Dual feasibility: no structural column of the internal program may still
    # price in (its slack columns price at -y, checked just above).
    if not reduced.max(initial=0.0) <= FEAS_TOL * scale:
        raise LpSolverError("dual feasibility violated: a column has positive reduced cost")
    gap = abs(objective - float(y_all @ b_rows) - float(lp.c @ lp.lo))
    if not gap <= FEAS_TOL * (1.0 + abs(objective)) + FEAS_TOL:
        raise LpSolverError(f"strong duality gap {gap:g} exceeds tolerance")
    cs = np.abs(y_all[: len(lp.b)] * slack)
    if not cs.max(initial=0.0) <= FEAS_TOL * scale * 10:
        raise LpSolverError("complementary slackness violated in final tableau")


def _simplex(c, a, b, max_iterations):
    """Two-phase dense tableau simplex for max c.x, A x <= b, x >= 0.

    The tableau's columns are [structural (n) | slacks (m) | artificials
    (n_art)], then the right-hand side.  Returns (status, x, y, pivots,
    basis), the basis None while an artificial is in it.
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
        return "optimal", np.zeros(0), np.zeros(0), 0, np.zeros(0, dtype=int)

    T = np.zeros((m, total + 1))
    T[:, :n] = a
    T[np.arange(m), n + np.arange(m)] = 1.0
    # A flipped row's slack enters with -1 (it was  a.x - s = b  originally),
    # and the row starts with its artificial basic; every other row with its
    # slack.
    T[neg_rows, n + neg_rows] = -1.0
    T[neg_rows, n + m + np.arange(n_art)] = 1.0
    T[:, -1] = b
    basis = n + np.arange(m)
    basis[neg_rows] = n + m + np.arange(n_art)

    iters = 0
    # Work buffers shared by both phases: reduced costs, ratios, ratio mask.
    red, ratios, mask = np.empty(total), np.empty(m), np.empty(m, dtype=bool)

    def run_phase(obj, blocked, iters):
        """Price with obj over unblocked columns; pivot until optimal."""
        z = obj[basis] @ T
        z[:total] -= obj
        shield = np.where(blocked, -INF, 0.0)  # shield - z prices the unblocked columns
        stall = 0
        last_obj = -INF
        while True:
            np.subtract(shield, z[:total], out=red)
            if stall < STALL_LIMIT:
                col = int(red.argmax())
                if red[col] <= PIVOT_TOL:
                    return z, iters, True
            else:  # Bland: first improving index
                improving = (red > PIVOT_TOL).nonzero()[0]
                if len(improving) == 0:
                    return z, iters, True
                col = int(improving[0])
            colvec = T[:, col]
            np.greater(colvec, PIVOT_TOL, out=mask)
            if not mask.any():
                return z, iters, False  # unbounded in this phase
            ratios.fill(INF)
            np.divide(T[:, -1], colvec, out=ratios, where=mask)
            # deterministic tie-break: smallest basis column id among ties
            ties = (ratios <= ratios.min() + 1e-12).nonzero()[0]
            row = int(ties[0]) if len(ties) == 1 else int(ties[basis[ties].argmin()])
            _pivot(T, row, col)
            z -= z[col] * T[row]
            z[col] = 0.0  # exact after pivot
            basis[row] = col
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
            return "infeasible", None, None, iters, None
        # Drive any artificial still in the basis out (degenerate rows): the
        # entering column is the lowest structural or slack id whose entry in
        # the row clears the pivot tolerance.
        for i in range(m):
            if basis[i] >= n + m:
                row_vals = np.abs(T[i, : n + m])
                cand = (row_vals > PIVOT_TOL).nonzero()[0]
                if len(cand):
                    _pivot(T, i, int(cand[0]))
                    basis[i] = int(cand[0])
        blocked[n + m :] = True

    obj = np.zeros(total)
    obj[:n] = c
    z2, iters, bounded = run_phase(obj, blocked, iters)
    if not bounded:
        return "unbounded", None, None, iters, None

    x = np.zeros(total)
    x[basis] = T[:, -1]
    # Row duals: the z-row entry at each slack column equals the dual of the
    # original row (the slack column carries the flip sign, so no adjustment).
    y = z2[n : n + m].copy()
    y[np.abs(y) < PIVOT_TOL] = 0.0
    np.maximum(y, 0.0, out=y)
    return "optimal", x[:n], y, iters, (basis if basis.max(initial=0) < n + m else None)


def _pivot(T, row, col):
    """Pivot the tableau on entry (row, col).

    A row whose factor is 0 would only subtract zeros, so it is skipped.
    """
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    nz = factors.nonzero()[0]
    T[nz] -= np.multiply.outer(factors[nz], T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _dual_simplex(c, a, b, start, upper, span, max_iterations):
    """Revised bounded dual simplex for max c.x, A x + s = b, 0 <= (x, s) <= span.

    ``start`` holds the m basic column ids and ``upper`` the nonbasic ones
    at their upper bound, whose part of the rhs ``b`` already carries; every
    other column is at 0.  The basic values are B^-1 b.  The leaving row is
    the one whose bound violation is largest over the norm of its row of
    B^-1 (dual steepest edge; the lowest basic id under Bland's rule), and
    it leaves at the bound it violates.  The entering column has the
    smallest dual ratio and the largest pivot among ties; a column with no
    range never enters.  A violated row that no column can move proves the
    program infeasible.  Returns (status, column values, row duals, pivots,
    basis), or None when ``start`` is singular or the final basis is not
    dual feasible.
    """
    m, n = a.shape
    # B is factorised through the rows whose slack is nonbasic: a basic
    # slack is a unit column, so those rows form a system A_SS over the
    # basic structurals, and the rows of the basic slacks, placed after
    # them, follow by substitution.  With C the basic structurals' entries
    # in those rows, B^-1 = [[A_SS^-1, 0], [-C A_SS^-1, I]].
    cols, slack_rows = start[start < n], start[start >= n] - n
    system = np.ones(m, dtype=bool)
    system[slack_rows] = False
    try:
        inverse = np.linalg.inv(a[system][:, cols])
    except np.linalg.LinAlgError:
        return None
    q = len(cols)
    basis = np.concatenate([cols, n + slack_rows])
    binv = np.zeros((m, m))
    binv[:q, system] = inverse
    binv[q:, system] = -a[slack_rows][:, cols] @ inverse
    binv[np.arange(q, m), slack_rows] = 1.0
    if not np.isfinite(binv).all():
        return None
    top = span[basis]
    # By column id: the reduced costs (a slack's is its row's dual), and
    # the side a column may move to: -1 up from its lower bound, +1 down
    # from its upper, 0 while basic or for a column with no range.
    y = c[cols] @ binv[:q]
    d = np.concatenate([y @ a - c, y])
    d[basis] = 0.0
    side = np.where(span > 0, -1.0, 0.0)
    side[upper] = 1.0
    side[basis] = 0.0

    iters = 0
    stall = 0
    while True:
        value = binv @ b
        violation = np.maximum(value - top, -value)
        bad = (violation > FEAS_TOL).nonzero()[0]
        if len(bad) == 0:
            break
        if len(bad) == 1 or stall >= STALL_LIMIT:  # Bland: the lowest basic id
            row = int(bad[basis[bad].argmin()])
        else:
            norms = np.square(binv[bad]).sum(axis=1)
            row = int(bad[np.argmax(np.square(violation[bad]) / norms)])
        # The pivot row of B^-1 [A I]; a basic column's entry is exact.
        alpha = np.concatenate([binv[row] @ a, binv[row]])
        leaving = int(basis[row])
        alpha[basis] = 0.0
        alpha[leaving] = 1.0
        # Below its lower bound the basic column must rise: a column at its
        # lower bound with a negative entry, or at its upper with a positive.
        rises = bool(value[row] < 0)
        entries = alpha if rises else -alpha
        cand = (entries * side > PIVOT_TOL).nonzero()[0]
        if len(cand) == 0:
            return "infeasible", None, None, iters, None
        ratios = np.abs(d[cand] / entries[cand])
        least = ratios.min()
        ties = cand[ratios <= least + 1e-12]
        col = int(ties[np.abs(entries[ties]).argmax()])
        stall = stall + 1 if least <= 1e-12 else 0
        d -= d[col] / alpha[col] * alpha
        d[col] = 0.0
        entering = binv @ a[:, col] if col < n else binv[:, col - n].copy()
        binv[row] /= entering[row]
        entering[row] = 0.0
        binv -= np.multiply.outer(entering, binv[row])
        # Only a structural has a finite upper bound, so only a structural
        # enters from it or leaves at it.
        if side[col] > 0:  # its range moves from the rhs into its basic value
            b = b + a[:, col] * span[col]
        side[col] = 0.0
        if not rises:  # the leaving column stops at its upper bound
            b = b - a[:, leaving] * span[leaving]
        if span[leaving] > 0:
            side[leaving] = -1.0 if rises else 1.0
        basis[row] = col
        top[row] = span[col]
        iters += 1
        if iters > max_iterations:
            raise LpSolverError("simplex iteration cap exceeded")

    if np.max(side * d, initial=0.0) > FEAS_TOL:
        return None  # not dual feasible: the start was not, or float error
    upper = (side > 0).nonzero()[0]
    x = np.zeros(n + m)
    x[upper] = span[upper]
    x[basis] = value
    y = d[n:]
    y[np.abs(y) < PIVOT_TOL] = 0.0
    np.maximum(y, 0.0, out=y)
    return "optimal", x, y, iters, np.concatenate([basis, upper])
