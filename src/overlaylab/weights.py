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

from .planner import FEAS_TOL, Plan, PlanningProblem

DEFAULT_GAIN = 0.001


class WeightError(ValueError):
    pass


@dataclass
class TransportConfig:
    """Per-flow controller weights plus session counts and the tuned gain."""

    weights: dict[str, float]  # flow id -> weight
    sessions: dict[str, int]  # class id -> session count
    gain: float = DEFAULT_GAIN
    gain_norm: float = DEFAULT_GAIN

    def to_json_dict(self) -> dict:
        return {
            "weights": {k: self.weights[k] for k in sorted(self.weights)},
            "sessions": {k: self.sessions[k] for k in sorted(self.sessions)},
            "gain": self.gain,
            "gain_norm": self.gain_norm,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json_dict(obj: dict) -> "TransportConfig":
        return TransportConfig(
            weights={k: float(v) for k, v in obj["weights"].items()},
            sessions={k: int(v) for k, v in obj["sessions"].items()},
            gain=float(obj["gain"]),
            gain_norm=float(obj["gain_norm"]),
        )


def compute_weights(
    problem: PlanningProblem, plan: Plan, gain: float = DEFAULT_GAIN
) -> TransportConfig:
    """Build the transport configuration for a plan.

    Every positive-rate flow must cross at least one positively-priced link;
    otherwise its weight would be zero and the controller could not hold the
    planned rate, so that is reported as an error rather than silently mapped.
    The gain is normalized by the largest weight (left as-is when every weight
    is zero) to keep step sizes comparable across plans.
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
    w_max = max(weights.values(), default=0.0)
    gain_norm = gain / w_max if w_max > 0 else gain
    sessions = {c.id: plan.n.get(c.id, 0) for c in problem.classes}
    return TransportConfig(weights, sessions, gain, gain_norm)


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
    not a utility stationary point) and listed in the report.
    """
    agg = plan.aggregate_rates(problem)
    worst = 0.0
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
            lo, hi = c.utility.slope_range(agg[c.id])
            w = config.weights[f.id]
            lo_w, hi_w = nk * lo * rate, nk * hi * rate
            if w < lo_w:
                worst = max(worst, lo_w - w)
            elif w > hi_w:
                worst = max(worst, w - hi_w)
    return GradientMatchReport(worst, skipped)
