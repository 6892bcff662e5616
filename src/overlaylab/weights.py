"""Mapping from plan duals to transport-layer controller weights.

At a plan that satisfies the KKT conditions with only capacity constraints
active, the weight

    w_f = n_k * (sum of link duals along f's route) * A_f

makes the planned per-session rates a fixed point of the weighted
proportionally-fair controllers, so the transport layer holds the plan without
further coordination.  ``planner.check_kkt``'s gradient residual certifies
that the route's price lies in the class's utility subgradient, so a weight
built here is n_k * dU_k * A_f at any plan that passes the check.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

from .model import ModelError, check_sessions, read_only
from .planner import FEAS_TOL, Plan, PlanningProblem

DEFAULT_GAIN = 0.001


class WeightError(ValueError):
    pass


@dataclass(frozen=True)
class TransportConfig:
    """Per-flow controller weights plus session counts and the tuned gain.

    A library object only: it has no JSON form, and scenarios and the CLI
    build it from a plan with ``compute_weights``.  The simulator divides
    ``gain`` by the largest weight it runs with (``Simulator.gain_norm``).
    Weights are finite and >= 0, session counts follow ``check_sessions``,
    and the gain is finite and >= 0; gain 0 holds every rate fixed.  A config
    is frozen, and ``weights`` and ``sessions`` are read-only copies of the
    caller's dicts, so no edit can undo the check; the baselines and sweeps
    build their variants with ``dataclasses.replace``, which checks again.
    """

    weights: Mapping[str, float]  # flow id -> weight
    sessions: Mapping[str, int]  # class id -> session count
    gain: float = DEFAULT_GAIN

    def __post_init__(self):
        for name in ("weights", "sessions"):
            object.__setattr__(self, name, read_only(getattr(self, name)))
        for fid, w in self.weights.items():
            if not (math.isfinite(w) and w >= 0):
                raise ModelError(f"config weight of flow {fid!r} must be finite and >= 0, got {w!r}")
        for k, n in self.sessions.items():
            check_sessions(n, f"config class {k!r}")
        if not (math.isfinite(self.gain) and self.gain >= 0):
            raise ModelError(f"config gain must be finite and >= 0, got {self.gain!r}")


def compute_weights(
    problem: PlanningProblem, plan: Plan, gain: float = DEFAULT_GAIN
) -> TransportConfig:
    """Build the transport configuration for a plan.

    Every positive-rate flow must cross at least one positively-priced link;
    otherwise its weight would be zero and the controller could not hold the
    planned rate, so that is reported as an error rather than silently mapped.
    A weight that overflows to inf fails the config's own weight rule, a
    ``ModelError`` that names the flow.
    """
    weights: dict[str, float] = {}
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        for f in problem.flows[c.id]:
            rate = plan.rates.get(f.id, 0.0)
            if nk == 0 or rate <= FEAS_TOL:
                weights[f.id] = 0.0
                continue
            # A walk of the route, not ``incidence.T @ duals``: this sum's bits
            # reach every weight and so every trace byte.
            lam_sum = 0.0
            for lid in f.route:
                if lid not in plan.duals:
                    raise WeightError(f"flow {f.id!r}: no dual for link {lid!r}")
                lam_sum += plan.duals[lid]
            if not lam_sum > FEAS_TOL:  # also catches a NaN price
                raise WeightError(
                    f"flow {f.id!r} has positive rate but dual price {lam_sum} along "
                    f"its route; the plan does not pin it"
                )
            weights[f.id] = nk * lam_sum * rate
    sessions = {c.id: plan.n.get(c.id, 0) for c in problem.classes}
    return TransportConfig(weights, sessions, gain)
