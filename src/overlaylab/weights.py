"""Mapping from plan duals to transport-layer controller weights.

At a plan that satisfies the KKT conditions with only capacity constraints
active, the weight

    w_f = n_k * (sum of link duals along f's route) * A_f

makes the planned per-session rates a fixed point of the weighted
proportionally-fair controllers, so the transport layer holds the plan without
further coordination.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .planner import FEAS_TOL, Plan, PlanningProblem, _worst

DEFAULT_GAIN = 0.001


class WeightError(ValueError):
    pass


@dataclass
class TransportConfig:
    """Per-flow controller weights plus session counts and the tuned gain.

    The simulator divides ``gain`` by the largest weight it runs with
    (``Simulator.gain_norm``).
    """

    weights: dict[str, float]  # flow id -> weight
    sessions: dict[str, int]  # class id -> session count
    gain: float = DEFAULT_GAIN

    def to_json_dict(self) -> dict:
        return {
            "weights": {k: self.weights[k] for k in sorted(self.weights)},
            "sessions": {k: self.sessions[k] for k in sorted(self.sessions)},
            "gain": self.gain,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(obj: dict) -> "TransportConfig":
        return TransportConfig(
            weights={k: float(v) for k, v in obj["weights"].items()},
            sessions={k: int(v) for k, v in obj["sessions"].items()},
            gain=float(obj["gain"]),
        )


def compute_weights(
    problem: PlanningProblem, plan: Plan, gain: float = DEFAULT_GAIN
) -> TransportConfig:
    """Build the transport configuration for a plan.

    Every positive-rate flow must cross at least one positively-priced link;
    otherwise its weight would be zero and the controller could not hold the
    planned rate, so that is reported as an error rather than silently mapped.
    """
    weights: dict[str, float] = {}
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        for f in problem.flows[c.id]:
            rate = plan.rates.get(f.id, 0.0)
            if nk == 0 or rate <= FEAS_TOL:
                weights[f.id] = 0.0
                continue
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
            if not math.isfinite(weights[f.id]):
                raise WeightError(f"flow {f.id!r}: non-finite weight {weights[f.id]}")
    sessions = {c.id: plan.n.get(c.id, 0) for c in problem.classes}
    return TransportConfig(weights, sessions, gain)


@dataclass
class GradientMatchReport:
    """Per-flow check that w_f / A_f lies in the utility subgradient scaled by n."""

    max_residual: float
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def ok(self, tol: float = 1e-6) -> bool:
        return self.max_residual <= tol


def check_gradient_match(
    problem: PlanningProblem, plan: Plan, config: TransportConfig
) -> GradientMatchReport:
    """Verify w_f = n_k * dU_k * A_f against the subgradient at the plan point.

    Flows with zero planned rate are skipped (their equilibrium is the floor,
    not a utility stationary point) and listed in the report.  A NaN weight,
    rate or session count makes the residual NaN, which fails ``ok``.
    """
    agg = plan.aggregate_rates(problem)
    residuals: list[float] = []
    skipped: list[tuple[str, str]] = []
    for c in problem.classes:
        nk = plan.n.get(c.id, 0)
        for f in problem.flows[c.id]:
            rate = plan.rates.get(f.id, 0.0)
            if nk == 0 or rate <= FEAS_TOL:
                skipped.append((f.id, "zero rate"))
                continue
            if f.id not in config.weights:
                raise WeightError(f"flow {f.id!r}: missing weight")
            if not math.isfinite(agg[c.id]):
                residuals.append(math.nan)
                continue
            lo, hi = c.utility.slope_range(agg[c.id])
            w = config.weights[f.id]
            residuals += [nk * lo * rate - w, w - nk * hi * rate]
    return GradientMatchReport(_worst(residuals), skipped)
