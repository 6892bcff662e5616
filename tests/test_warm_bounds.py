"""Warm-started bound LPs against cold solves of the same programs.

``solve_plan`` solves the root box's relaxation cold and every other box's
by dual simplex from the optimal basis of its nearest solved ancestor.  A
warm answer must be the one a cold ``solve_lp`` of the same program gives:
the same status, and the objective within 1e-9 relative.  No warm bound may
exceed the McCormick bound (``mccormick_ref``) of the box's session ranges.
"""
import numpy as np
import pytest

from mccormick_ref import mccormick_ref
from overlaylab import lp, planner
from overlaylab.lp import LinearProgram, solve_lp
from overlaylab.planner import _perspective_lp, mccormick_bound, solve_plan
from test_leaf_spans import BTN
from test_planner import U_A, single_link
from test_planner_oracle import ABILENE, threshold_problem, triangle_threshold

INSTANCES = {
    **{f"triangle-N{n}": (lambda n=n: triangle_threshold(n)) for n in (20, 26, 34)},
    **{f"abilene-k{k}": (lambda k=k: threshold_problem(ABILENE, k, 2, k)) for k in range(2, 9)},
    "btn-k8": lambda: threshold_problem(BTN, 8, 2, 8),
}


def assert_same_answer(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert abs(warm.objective - cold.objective) <= 1e-9 * (1.0 + abs(cold.objective))


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_every_warm_bound_equals_a_cold_solve(monkeypatch, name):
    problem = INSTANCES[name]()
    nf, nc = len(problem.flow_class), len(problem.classes)
    warm = []

    def recording(program, basis=None):
        sol = solve_lp(program, basis)
        if basis is not None:
            warm.append((program, sol))
        return sol

    monkeypatch.setattr(planner, "solve_lp", recording)
    solve_plan(problem)
    assert warm
    reference = {}
    for program, sol in warm:
        assert_same_answer(sol, solve_lp(program))
        if sol.status != "optimal":
            continue
        sessions = slice(nf, nf + nc)
        n_box = tuple(zip(program.lo[sessions].astype(int), program.hi[sessions].astype(int)))
        if n_box not in reference:
            by_id = dict(zip((c.id for c in problem.classes), n_box))
            reference[n_box] = mccormick_ref(problem, by_id)
        assert sol.objective <= reference[n_box] + 1e-9, n_box


def test_a_split_that_empties_the_box_is_infeasible_warm():
    # At 2 sessions on a 1 Mbps link, pieces 1 and 2 (rates of 0.8 and up)
    # cannot be reached: that span child is infeasible.
    problem = single_link(cap=1.0, utility=U_A, max_sessions=2)
    program, _ = _perspective_lp(problem)
    bound, _, basis = mccormick_bound(program([(0, 2, 0, 2)]))
    assert bound > 0 and basis is not None
    child = program([(2, 2, 1, 2)])
    sol = solve_lp(child, basis)
    assert sol.status == solve_lp(child).status == "infeasible"
    assert mccormick_bound(child, basis) == (-np.inf, None, None)


def test_a_degenerate_dual_pivot_keeps_the_objective():
    # max x1 + x2 + x3  s.t.  x1 + x2 + x3 <= 2, x <= 1.5: every reduced cost
    # is 0 at the optimum.  Halving the basic variable's upper bound makes it
    # leave at that bound; the column entering in its place has dual ratio 0,
    # so the pivot is degenerate and the bound stays 2.
    parent = LinearProgram([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [2.0], hi=[1.5, 1.5, 1.5])
    root = solve_lp(parent)
    basic = root.basis[0]
    hi = parent.hi.copy()
    hi[basic] = root.x[basic] / 2
    child = parent.with_bounds(parent.lo, hi)
    sol = solve_lp(child, root.basis)
    assert sol.iterations == 1
    assert sol.x[basic] == hi[basic]
    assert sol.objective == solve_lp(child).objective == root.objective == 2.0


def test_a_reused_bound_warm_starts_its_children_from_the_solved_ancestor():
    # The root's point lies in the child k0 in [0, 10], which takes the root's
    # bound with no LP; the grandchild k0 in [0, 5] is solved from the root's
    # basis, its nearest solved ancestor.
    problem = triangle_threshold(20)
    program, holds = _perspective_lp(problem)
    root = [(0, 20, 0, 2)] * 3
    _, point, basis = mccormick_bound(program(root))
    child, grandchild = [(0, 10, 0, 2), *root[1:]], [(0, 5, 0, 2), *root[1:]]
    assert holds(point, 0, child[0]) and not holds(point, 0, grandchild[0])
    sol = solve_lp(program(grandchild), basis)
    assert_same_answer(sol, solve_lp(program(grandchild)))
    assert sol.iterations < solve_lp(program(grandchild)).iterations


def test_a_basis_that_does_not_fit_is_solved_cold(monkeypatch):
    parent = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [2.0], hi=[1.5, 1.5])
    cold = solve_lp(parent)
    calls = []
    monkeypatch.setattr(lp, "_cold", lambda prog: calls.append(1) or cold)
    # The row's slack (id 2) listed at an upper bound, which a slack lacks.
    assert solve_lp(parent, np.array([0, 1, 2])) is cold
    assert calls == [1]


def test_a_start_that_is_already_feasible_returns_without_a_pivot(monkeypatch):
    program = LinearProgram([1.0, 1.0, 1.0], [[1.0, 1.0, 1.0]], [2.0], hi=[1.5, 1.5, 1.5])
    cold = solve_lp(program)
    monkeypatch.setattr(lp, "_cold", lambda prog: pytest.fail("solved cold"))
    sol = solve_lp(program, cold.basis)
    assert sol.iterations == 0
    assert sol.objective == cold.objective == 2.0
    assert np.array_equal(sol.x, cold.x)


def test_a_singular_start_is_solved_cold(monkeypatch):
    # Both structurals basic over rows that are multiples of each other.
    program = LinearProgram([1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], [2.0, 4.0])
    cold = solve_lp(program)
    calls = []
    monkeypatch.setattr(lp, "_cold", lambda prog: calls.append(1) or cold)
    assert solve_lp(program, np.array([0, 1])) is cold
    assert calls == [1]
