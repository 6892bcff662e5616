"""The planner's utility against an exact MILP at five to twelve classes.

``enum_ref`` checks plans byte for byte but cannot go past about three
classes; branching on piece spans changes which piece combinations are solved, so
this checks the optimum at scale with HiGHS (``milp_ref.py``).  The MILP
starts every piece after the first 1e-9 above its half-open lower end, so
utilities are compared to within 1e-6 relative, not exactly.  The instances
are fixed: a MILP at Abilene k = 8, N = 5 can take over ten seconds, and
these each take well under half a second.  At ten and twelve classes the
planner's cost varies severalfold with the class pairs, so those seeds are
ones the planner proves in about a second or less.

A second MILP (``milp_min_sessions``) checks the session tie-break on the
``SEEDED`` instances: the fewest sessions that reach U* - 1e-6 (1 + U*) must
be the plan's session total.  Listing every session vector whose MILP
utility lies within 1e-6 of U* found exactly one on each of them, every
class at its maximum count, so no near-tie lies within the MILP's
``HALF_OPEN_EPS`` fuzz.  ``TIGHT`` gives the check a real tie band: its
core links are so thin that classes compete for sessions, and vectors with
10 and with 11 sessions tie at U*, still within 1e-6 of it when the MILP's
fuzz is 1e-5 instead of 1e-9.  The triangle tie band is kept to utilities only:
among its many tied vectors are some 3.8e-10 and 8.6e-10 below U*, inside
that fuzz, where the MILP cannot tell a tie from a loss.
"""
import pytest

pytest.importorskip("scipy")

from milp_ref import milp_min_sessions, milp_utility  # noqa: E402
from overlaylab.planner import solve_plan  # noqa: E402
from overlaylab.scenarios import add_sites, load_bundled_topology  # noqa: E402
from test_leaf_spans import BTN  # noqa: E402
from test_planner_oracle import ABILENE, threshold_problem, triangle_threshold  # noqa: E402

# (topology, classes k, sessions N, seed of the class pairs)
SEEDED = [
    ("abilene", 5, 2, 520), ("abilene", 5, 3, 531), ("abilene", 5, 4, 540),
    ("abilene", 6, 2, 621), ("abilene", 6, 3, 630), ("abilene", 6, 4, 640),
    ("abilene", 7, 2, 721), ("abilene", 7, 3, 730), ("abilene", 8, 4, 841),
    ("abilene", 10, 2, 1021), ("abilene", 12, 2, 1224),
    ("btn", 5, 2, 521), ("btn", 5, 3, 530), ("btn", 5, 4, 540),
    ("btn", 6, 2, 620), ("btn", 6, 3, 630), ("btn", 6, 4, 640),
    ("btn", 7, 2, 720), ("btn", 7, 2, 721), ("btn", 8, 2, 820), ("btn", 8, 2, 821),
    ("btn", 8, 3, 830),
]


# Abilene with 2.4 Mbps core links: classes compete for sessions.
TIGHT = add_sites(load_bundled_topology("abilene"), uplink_mbps=4.8, core_mbps=2.4)


def assert_matches_milp(problem):
    plan = solve_plan(problem)
    assert plan.optimality == "proved-optimal"
    assert plan.utility == pytest.approx(milp_utility(problem), rel=1e-6, abs=1e-9)
    return plan


@pytest.mark.parametrize("name, k, n_max, seed", SEEDED)
def test_seeded_threshold_instances_match_milp(name, k, n_max, seed):
    topology = {"abilene": ABILENE, "btn": BTN}[name]
    assert_matches_milp(threshold_problem(topology, k, n_max, seed))


@pytest.mark.parametrize("name, k, n_max, seed", SEEDED)
def test_seeded_threshold_instances_take_the_fewest_sessions(name, k, n_max, seed):
    problem = threshold_problem({"abilene": ABILENE, "btn": BTN}[name], k, n_max, seed)
    plan = solve_plan(problem)
    floor = plan.utility - 1e-6 * (1.0 + plan.utility)
    assert milp_min_sessions(problem, floor) == sum(plan.n.values())


@pytest.mark.parametrize("n_max", [20, 26, 34])
def test_triangle_tie_band_matches_milp(n_max):
    assert assert_matches_milp(triangle_threshold(n_max)).utility == pytest.approx(2.5)


def test_five_class_abilene_matches_milp():
    # threshold_problem draws its pairs as the bench's _pairs(Random(0), ...) does.
    problem = threshold_problem(ABILENE, 5, 3, 0)
    assert assert_matches_milp(problem).utility == pytest.approx(1.96)


def test_tight_instance_takes_the_fewest_sessions_of_its_tie_band():
    # Within 1e-6 of U* = 1.2 lie (3, 1, 3, 3), (3, 2, 3, 2) and (3, 3, 3, 1)
    # with 10 sessions, (3, 2, 3, 3) and (3, 3, 3, 2) with 11, and, only
    # through the MILP's fuzz, (3, 3, 3, 3): at a fuzz of 1e-5 it reaches 1.086.
    problem = threshold_problem(TIGHT, 4, 3, 2)
    plan = assert_matches_milp(problem)
    floor = plan.utility - 1e-6 * (1.0 + plan.utility)
    assert sum(plan.n.values()) == milp_min_sessions(problem, floor) == 10
