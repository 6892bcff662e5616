"""The package's cold simplex kernel against its frozen reference.

``dense_simplex_ref`` is the frozen copy of the dense tableau kernel that
``lp._simplex`` must match.  Both take the same pivots, so status, point,
duals and pivot count must agree exactly: arrays with ``np.array_equal`` and
scalars with ``==``, never with a tolerance.
"""
import numpy as np
import pytest

import dense_simplex_ref
from mccormick_ref import mccormick_ref
from overlaylab import lp
from overlaylab.model import Flow, PiecewiseLinearUtility, TrafficClass, enumerate_paths
from overlaylab.planner import (
    PlanningProblem,
    default_rate_boxes,
    inner_lp,
    solve_plan,
)
from overlaylab.scenarios import add_sites, build_paper_scenario, load_bundled_topology

MAX_ITERATIONS = 50_000
# The kernel under test, captured at import: ``_record_programs`` patches
# ``lp._simplex``, and comparing through the patch would record every
# comparison as a new program.
SIMPLEX = lp._simplex


def assert_same_answer(c, a, b):
    got = SIMPLEX(c, a, b, MAX_ITERATIONS)
    want = dense_simplex_ref._simplex(c, a, b, MAX_ITERATIONS)
    assert got[0] == want[0]
    assert got[3] == want[3]
    for g, w in zip(got[1:3], want[1:3]):
        if w is None:
            assert g is None
        else:
            assert np.array_equal(g, w)
    return got[0]


def random_program(rng):
    """Small integer data, so that ratio ties and degenerate pivots are common."""
    m, n = rng.integers(1, 9), rng.integers(1, 9)
    a = rng.integers(-2, 4, (m, n)).astype(float)
    a[rng.random((m, n)) < 0.3] = 0.0
    b = rng.integers(-2, 8, m).astype(float)
    c = rng.integers(-1, 4, n).astype(float)
    return c, a, b


def test_random_programs_match_dense_kernel():
    rng = np.random.default_rng(20240)
    statuses = {}
    phase1 = 0
    for _ in range(600):
        c, a, b = random_program(rng)
        status = assert_same_answer(c, a, b)
        statuses[status] = statuses.get(status, 0) + 1
        phase1 += bool(np.any(b < 0))
    # The draw covers every outcome and the two-phase path.
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    assert min(statuses.values()) >= 20
    assert phase1 >= 100


def test_random_programs_match_dense_kernel_under_bland(monkeypatch):
    # Switch to Bland's rule after two non-improving pivots in both kernels.
    monkeypatch.setattr(lp, "STALL_LIMIT", 2)
    monkeypatch.setattr(dense_simplex_ref, "STALL_LIMIT", 2)
    rng = np.random.default_rng(7)
    for _ in range(300):
        assert_same_answer(*random_program(rng))


def test_random_float_programs_match_dense_kernel():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m, n = rng.integers(2, 25), rng.integers(2, 25)
        a = rng.uniform(-1.0, 3.0, (m, n)) * (rng.random((m, n)) < 0.4)
        b = rng.uniform(-1.0, 10.0, m)
        c = rng.uniform(-0.5, 2.0, n)
        assert_same_answer(c, a, b)


THRESHOLD = PiecewiseLinearUtility.from_points(
    [(0.0, 0.0, 0.0), (0.8, 0.1, 0.0), (1.2, 0.005, 0.114)]
)


def threshold_problem(topology, pairs, n_max):
    classes = [
        TrafficClass(f"k{i}", a, b, n_max, THRESHOLD) for i, (a, b) in enumerate(pairs)
    ]
    flows = {
        c.id: [
            Flow(f"{c.id}:{j}", c.id, route)
            for j, route in enumerate(enumerate_paths(topology, c.src, c.dst, 2))
        ]
        for c in classes
    }
    return PlanningProblem(topology, classes, flows)


TRIANGLE = threshold_problem(
    build_paper_scenario("triangle-basic").topology, [("A", "C"), ("B", "C"), ("A", "B")], 8
)
ABILENE = threshold_problem(
    add_sites(load_bundled_topology("abilene"), uplink_mbps=30.0, core_mbps=10.0),
    [("s-Denver", "s-Chicago"), ("s-Seattle", "s-Houston"), ("s-NewYork", "s-LosAngeles")],
    2,
)

# (problem, session box, McCormick bound computed by the dense kernel)
MCCORMICK_CASES = [
    (TRIANGLE, ((0, 8), (0, 8), (0, 8)), 4.439037323037325),
    (TRIANGLE, ((0, 4), (5, 8), (2, 2)), 2.0300000000000002),
    (TRIANGLE, ((3, 3), (8, 8), (1, 1)), 1.4930000000000003),
    (ABILENE, ((0, 2), (0, 2), (0, 2)), 3.6318798459563575),
    (ABILENE, ((1, 2), (0, 0), (2, 2)), 0.6810000000000003),
    (ABILENE, ((2, 2), (1, 1), (0, 1)), 1.046926108374385),
]

# (problem, sessions, utility piece per class)
INNER_CASES = [
    (TRIANGLE, (1, 2, 0), (1, 0, 0)),
    (TRIANGLE, (8, 3, 5), (2, 1, 0)),
    (TRIANGLE, (2, 2, 2), (1, 2, 1)),
    (ABILENE, (1, 1, 1), (2, 1, 0)),
    (ABILENE, (2, 0, 1), (1, 0, 2)),
    (ABILENE, (2, 2, 2), (0, 1, 1)),
]


def _record_programs(monkeypatch):
    programs = []

    def recording(c, a, b, max_iterations):
        programs.append((c.copy(), a.copy(), b.copy()))
        return SIMPLEX(c, a, b, max_iterations)

    monkeypatch.setattr(lp, "_simplex", recording)
    return programs


@pytest.mark.parametrize("problem, box, expected", MCCORMICK_CASES)
def test_mccormick_programs_match_dense_kernel(monkeypatch, problem, box, expected):
    programs = _record_programs(monkeypatch)
    n_box = {c.id: nb for c, nb in zip(problem.classes, box)}
    bound = mccormick_ref(problem, n_box, default_rate_boxes(problem))
    assert bound == expected
    (program,) = programs
    assert assert_same_answer(*program) == "optimal"


@pytest.mark.parametrize("problem, sessions, pieces", INNER_CASES)
def test_inner_programs_match_dense_kernel(monkeypatch, problem, sessions, pieces):
    programs = _record_programs(monkeypatch)
    n = {c.id: nk for c, nk in zip(problem.classes, sessions)}
    inner_lp(problem, n, {c.id: p for c, p in zip(problem.classes, pieces)})
    (program,) = programs
    assert_same_answer(*program)


def test_every_cold_program_of_a_btn_plan_matches_dense_kernel(monkeypatch):
    # The programs the kernel meets in a real solve: the root relaxation and
    # every inner LP of eight threshold classes over BTN with sites.
    # Imported here: test_planner_oracle imports this module.
    from test_leaf_spans import BTN
    from test_planner_oracle import threshold_problem as planner_threshold_problem

    programs = _record_programs(monkeypatch)
    solve_plan(planner_threshold_problem(BTN, 8, 2, 8))
    count = len(programs)
    assert count >= 20
    for program in programs[:count]:
        assert_same_answer(*program)
    assert len(programs) == count  # comparing records nothing
