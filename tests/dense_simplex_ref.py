"""Dense two-phase tableau simplex, kept as the reference for ``overlaylab.lp``.

This is a frozen copy of the cold kernel, which ``lp._simplex`` must match.
The package kernel adds only what cannot change an answer: it returns its
basis, solves the empty program, and skips the rows a pivot would subtract
zeros from.  Both must take the same pivots, so the tests compare their
answers with ``==``, not with a tolerance.
"""
import numpy as np

from overlaylab.lp import FEAS_TOL, INF, PIVOT_TOL, STALL_LIMIT, LpSolverError


def _simplex(c, a, b, max_iterations):
    """Two-phase tableau simplex for max c.x, A x <= b, x >= 0."""
    m, n = a.shape
    # Flip rows with negative rhs and give them artificial variables.
    neg = b < 0
    a = a.copy()
    b = b.copy()
    a[neg] *= -1.0
    b[neg] *= -1.0
    n_art = int(np.count_nonzero(neg))

    # Column layout: [structural (n) | slacks (m) | artificials (n_art)]
    total = n + m + n_art
    T = np.zeros((m, total + 1))
    T[:, :n] = a
    T[:, n : n + m] = np.eye(m)
    # A flipped row's slack enters with -1 (it was  a.x - s = b  originally).
    for i in np.flatnonzero(neg):
        T[i, n + i] = -1.0
    art_cols = {}
    j = n + m
    for i in np.flatnonzero(neg):
        T[i, j] = 1.0
        art_cols[i] = j
        j += 1
    T[:, -1] = b
    basis = np.empty(m, dtype=int)
    for i in range(m):
        basis[i] = art_cols.get(i, n + i)

    iters = 0

    def run_phase(obj, allowed, iters):
        """Price with obj over allowed columns; pivot until optimal."""
        z = obj[basis] @ T - _embed(obj, total + 1)
        stall = 0
        last_obj = -INF
        while True:
            red = -z[:total]
            red[~allowed] = -INF
            if stall < STALL_LIMIT:
                col = int(np.argmax(red))
                if red[col] <= PIVOT_TOL:
                    return z, iters, True
            else:  # Bland: first improving index
                pos = np.flatnonzero(red > PIVOT_TOL)
                if len(pos) == 0:
                    return z, iters, True
                col = int(pos[0])
            colvec = T[:, col]
            mask = colvec > PIVOT_TOL
            if not mask.any():
                return z, iters, False  # unbounded in this phase
            ratios = np.full(m, INF)
            ratios[mask] = T[mask, -1] / colvec[mask]
            best = np.min(ratios)
            # deterministic tie-break: smallest basis column id among ties
            ties = np.flatnonzero(ratios <= best + 1e-12)
            row = int(ties[np.argmin(basis[ties])])
            _pivot(T, row, col)
            z = z - z[col] * T[row]
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

    allowed = np.ones(total, dtype=bool)
    if n_art:
        phase1 = np.zeros(total)
        phase1[n + m :] = -1.0  # maximize -(sum of artificials)
        z1, iters, ok = run_phase(phase1, allowed, iters)
        if float(z1[-1]) < -FEAS_TOL:
            return "infeasible", None, None, iters
        # Drive any artificial still in the basis out (degenerate rows).
        for i in range(m):
            if basis[i] >= n + m:
                row_vals = np.abs(T[i, : n + m])
                cand = np.flatnonzero(row_vals > PIVOT_TOL)
                if len(cand):
                    _pivot(T, i, int(cand[0]))
                    basis[i] = int(cand[0])
        allowed[n + m :] = False

    obj = np.zeros(total)
    obj[:n] = c
    z2, iters, bounded = run_phase(obj, allowed, iters)
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


def _embed(obj, width):
    out = np.zeros(width)
    out[: len(obj)] = obj
    return out


def _pivot(T, row, col):
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0
