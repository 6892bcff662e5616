"""Simplex solver tests against an independent vertex-enumeration oracle."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from overlaylab.lp import (
    FEAS_TOL,
    LinearProgram,
    LpInputError,
    LpSolverError,
    _verify,
    solve_lp,
)


def oracle_max(c, a, b, hi):
    """Maximum of c.x over {A x <= b, 0 <= x <= hi} by vertex enumeration.

    Every vertex of the (bounded) polytope is the intersection of n active
    constraints drawn from the rows of A, x_j = 0, and x_j = hi_j.
    """
    c, a, b, hi = map(np.asarray, (c, a, b, hi))
    m, n = a.shape
    rows = [(*a[i], b[i]) for i in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = -1.0
        rows.append((*e, 0.0))  # -x_j <= 0
        e2 = np.zeros(n)
        e2[j] = 1.0
        rows.append((*e2, hi[j]))
    best = None
    for combo in itertools.combinations(rows, n):
        A = np.array([r[:-1] for r in combo])
        rhs = np.array([r[-1] for r in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, rhs)
        if np.all(a @ x <= b + 1e-8) and np.all(x >= -1e-8) and np.all(x <= hi + 1e-8):
            v = float(c @ x)
            if best is None or v > best:
                best = v
    return best


def test_single_variable():
    sol = solve_lp(LinearProgram(c=[2.0], a=[[1.0]], b=[5.0]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(10.0)
    assert sol.duals[0] == pytest.approx(2.0)


def test_unbounded_detected():
    sol = solve_lp(LinearProgram(c=[1.0], a=[[-1.0]], b=[0.0]))
    assert sol.status == "unbounded"


def test_infeasible_detected():
    sol = solve_lp(LinearProgram(c=[1.0], a=[[1.0], [-1.0]], b=[1.0, -2.0]))
    assert sol.status == "infeasible"


def test_upper_bounds_respected():
    sol = solve_lp(LinearProgram(c=[1.0, 1.0], a=[[1.0, 1.0]], b=[10.0], hi=[3.0, 4.0]))
    assert sol.objective == pytest.approx(7.0)


def test_lower_bound_shift():
    sol = solve_lp(
        LinearProgram(c=[-1.0], a=[[1.0]], b=[10.0], lo=[2.0], hi=[8.0])
    )
    assert sol.x[0] == pytest.approx(2.0)


@pytest.mark.parametrize("cap, status", [(10.0, "optimal"), (4.0, "infeasible")])
def test_fixed_variables_solve_as_substituted_by_hand(cap, status):
    # x1 = 3 and x3 = 2 have lo == hi.  The same program with those columns
    # moved to the right-hand side by hand gives the same answer; the data are
    # small dyadic numbers, so both sides are exact and compare with ==.
    c = np.array([1.0, 2.0, 2.0, 3.0])
    a = np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 1.0, 2.0, 1.0], [-1.0, 0.0, 0.0, 1.0]])
    b = np.array([cap, 12.0, 1.0])
    lo, hi = np.array([0.0, 3.0, 1.0, 2.0]), np.array([math.inf, 3.0, 5.0, 2.0])
    sol = solve_lp(LinearProgram(c, a, b, lo, hi))
    free, fixed = [0, 2], [1, 3]
    hand = solve_lp(
        LinearProgram(c[free], a[:, free], b - a[:, fixed] @ lo[fixed], lo[free], hi[free])
    )
    assert sol.status == hand.status == status
    if status == "optimal":
        assert sol.objective == hand.objective + c[fixed] @ lo[fixed] == 22.5
        assert list(sol.x[free]) == list(hand.x) == [3.5, 3.5]
        assert list(sol.x[fixed]) == [3.0, 2.0]
        assert list(sol.duals) == list(hand.duals) == [1.0, 0.5, 0.0]


def test_rejects_nan():
    with pytest.raises(LpInputError):
        LinearProgram(c=[math.nan], a=[[1.0]], b=[1.0])


def test_duals_price_capacity():
    # max 2x + y  s.t. x + y <= 4, x <= 3
    sol = solve_lp(LinearProgram(c=[2.0, 1.0], a=[[1.0, 1.0], [1.0, 0.0]], b=[4.0, 3.0]))
    assert sol.objective == pytest.approx(7.0)
    assert sol.duals == pytest.approx([1.0, 1.0])


def test_degenerate_ties_resolved():
    # Many redundant rows through the optimum; Bland fallback must not cycle.
    a = [[1.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]]
    b = [2.0, 2.0, 3.0, 1.0, 1.5]
    sol = solve_lp(LinearProgram(c=[1.0, 1.0], a=a, b=b))
    assert sol.objective == pytest.approx(3.0)


def test_verify_rejects_dual_infeasible_certificate():
    # max x1 + x2  s.t.  x1 <= 1, x2 <= 1, at x = (1, 1).  y = (2, 0) is
    # nonnegative, closes the duality gap (2 = 2) and is complementary to the
    # zero slacks, but prices x2 at 1 - 0 > 0, so it certifies nothing.
    prog = LinearProgram(c=[1.0, 1.0], a=[[1.0, 0.0], [0.0, 1.0]], b=[1.0, 1.0])
    x = np.array([1.0, 1.0])

    def verify(y):
        _verify(prog, x, prog.c - y @ prog.a, 2.0, y, prog.b)

    verify(np.array([1.0, 1.0]))
    with pytest.raises(LpSolverError, match="dual feasibility"):
        verify(np.array([2.0, 0.0]))


@pytest.mark.parametrize(
    "x, y", [((math.nan, 0.0), (1.0,)), ((2.0, 0.0), (math.nan,)), ((math.nan, 0.0), (math.nan,))]
)
def test_verify_rejects_nan_point_or_duals(x, y):
    # max x1 + x2  s.t.  x1 + x2 <= 2: (2, 0) with y = 1 is optimal.  Every
    # check of the form min(...) < -tol is false on NaN, so each must be
    # written to fail instead.
    prog = LinearProgram(c=[1.0, 1.0], a=[[1.0, 1.0]], b=[2.0])
    x, y = np.array(x), np.array(y)
    _verify(prog, np.array([2.0, 0.0]), prog.c - np.ones(1) @ prog.a, 2.0, np.ones(1), prog.b)
    with pytest.raises(LpSolverError):
        _verify(prog, x, prog.c - y @ prog.a, float(prog.c @ x), y, prog.b)


@st.composite
def bounded_lps(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))
    fl = st.floats(0.0, 5.0, allow_nan=False)
    c = [draw(fl) for _ in range(n)]
    a = [[draw(fl) for _ in range(n)] for _ in range(m)]
    b = [draw(st.floats(0.5, 10.0)) for _ in range(m)]
    hi = [draw(st.floats(0.5, 10.0)) for _ in range(n)]
    return c, a, b, hi


@settings(max_examples=80, deadline=None)
@given(bounded_lps())
def test_matches_vertex_enumeration_oracle(prog):
    c, a, b, hi = prog
    sol = solve_lp(LinearProgram(c=c, a=np.array(a), b=b, hi=hi))
    assert sol.status == "optimal"
    expected = oracle_max(c, np.array(a), b, hi)
    assert sol.objective == pytest.approx(expected, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(bounded_lps(), st.floats(0.1, 10.0))
def test_row_scaling_scales_duals_inversely(prog, s):
    c, a, b, hi = prog
    base = solve_lp(LinearProgram(c=c, a=np.array(a), b=b, hi=hi))
    a2 = np.array(a, dtype=float)
    a2[0] *= s
    b2 = list(b)
    b2[0] *= s
    scaled = solve_lp(LinearProgram(c=c, a=a2, b=b2, hi=hi))
    assert scaled.objective == pytest.approx(base.objective, abs=1e-6)
    # The scaled row's shadow price shrinks by the same factor.  Duals can be
    # degenerate, so compare the priced-out constraint value instead.
    assert scaled.duals[0] * s * b[0] + sum(
        scaled.duals[i] * b[i] for i in range(1, len(b))
    ) <= base.objective + 1e-5


def test_feasibility_of_reported_point():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m, n = rng.integers(1, 5), rng.integers(1, 5)
        a = rng.uniform(0, 3, (m, n))
        b = rng.uniform(1, 10, m)
        c = rng.uniform(0, 2, n)
        hi = rng.uniform(1, 10, n)
        sol = solve_lp(LinearProgram(c=c, a=a, b=b, hi=hi))
        assert sol.status == "optimal"
        assert np.all(a @ sol.x <= b + FEAS_TOL)
        assert np.all(sol.x >= -FEAS_TOL) and np.all(sol.x <= hi + FEAS_TOL)
        # Strong duality: objective equals y.b plus the upper-bound rents.
        rent = sum(
            max(0.0, float(c[j] - sol.duals @ a[:, j])) * hi[j] for j in range(n)
        )
        assert sol.objective == pytest.approx(float(sol.duals @ b) + rent, abs=1e-6)
