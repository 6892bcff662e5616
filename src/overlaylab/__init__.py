"""Desk-scale lab for mission-utility overlay planning and rate control.

The package covers the full pipeline: an exact planner for session counts and
per-path rates under link capacities, extraction of capacity shadow prices,
mapping of the plan onto weighted proportionally-fair transport controllers,
and a deterministic fluid simulator with fixed-rate and unit-weight baselines.
"""
from .model import (
    ModelError,
    Link,
    Topology,
    Piece,
    PiecewiseLinearUtility,
    TrafficClass,
    Flow,
    cumulative_utility,
    enumerate_paths,
    sample_random_paths,
)
from .lp import LpSolverError, LpSolution, solve_lp
from .planner import (
    PlannerConfig,
    PlanningProblem,
    Plan,
    KktReport,
    solve_plan,
    check_kkt,
    KKT_TOL,
)
from .weights import (
    WeightError,
    TransportConfig,
    compute_weights,
)
from .sim import Simulator, Event, SimTrace, RATE_FLOOR, DEFAULT_DT
from .scenarios import (
    ScenarioError,
    Scenario,
    ExperimentResult,
    PAPER_SCENARIOS,
    parse_graphml,
    load_bundled_topology,
    add_sites,
    build_paper_scenario,
    run_experiment,
    hop_study,
    random_path_study,
    robustness_sweep,
    demand_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "ModelError",
    "Link",
    "Topology",
    "Piece",
    "PiecewiseLinearUtility",
    "TrafficClass",
    "Flow",
    "cumulative_utility",
    "enumerate_paths",
    "sample_random_paths",
    "LpSolverError",
    "LpSolution",
    "solve_lp",
    "PlannerConfig",
    "PlanningProblem",
    "Plan",
    "KktReport",
    "solve_plan",
    "check_kkt",
    "KKT_TOL",
    "WeightError",
    "TransportConfig",
    "compute_weights",
    "Simulator",
    "Event",
    "SimTrace",
    "RATE_FLOOR",
    "DEFAULT_DT",
    "ScenarioError",
    "Scenario",
    "ExperimentResult",
    "PAPER_SCENARIOS",
    "parse_graphml",
    "load_bundled_topology",
    "add_sites",
    "build_paper_scenario",
    "run_experiment",
    "hop_study",
    "random_path_study",
    "robustness_sweep",
    "demand_sweep",
    "__version__",
]
