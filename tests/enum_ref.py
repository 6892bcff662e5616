"""The planner's previous exhaustive search, kept as the reference for
``overlaylab.planner.solve_plan``.

``enum_ref`` evaluates every (session vector, utility piece) candidate of the
classes that are not linear through the origin with the planner's own inner
LP and keeps the smallest ``_plan_sort_key``; it prunes nothing.  Its cost is
the product over classes of 1 + N_k * pieces_k inner LPs, so it is only for
small instances.  Branch-and-bound must return the same plan, duals and
labels included, so the tests compare with ``==`` and on ``to_json()`` bytes.
"""
import itertools

from overlaylab.model import INF
from overlaylab.planner import (
    Plan,
    PlanningProblem,
    _candidate_plan,
    _plan_sort_key,
)


def enum_ref(problem: PlanningProblem) -> Plan:
    scalable = [
        c
        for c in problem.classes
        if c.utility.is_linear_through_origin() and c.max_sessions >= 1
    ]
    scalable_ids = {c.id for c in scalable}
    general = [c for c in problem.classes if c.id not in scalable_ids]
    best = _enumerate(problem, general, scalable)
    return best


def _enumerate(problem, general, scalable) -> Plan:
    best: Plan | None = None
    best_key = None
    for _, plan in _candidates(problem, general, scalable):
        key = _plan_sort_key(plan, problem)
        if best is None or key < best_key:
            best, best_key = plan, key
    if best is None:
        return _candidate_plan(problem, {}, {}, [])
    if best.utility < 0.0:
        zero = _candidate_plan(problem, {}, {}, [])
        if _plan_sort_key(zero, problem) < best_key:
            return zero
    return best


def _candidates(problem, general, scalable):
    """Every feasible (session vector of ``general``, plan) candidate."""
    per_class: list[list[tuple[str, int, int]]] = []
    for c in general:
        opts = [(c.id, 0, 0)]
        for nk in range(1, c.max_sessions + 1):
            for pi in range(len(c.utility.pieces)):
                opts.append((c.id, nk, pi))
        per_class.append(opts)

    for combo in itertools.product(*per_class) if per_class else [()]:
        n = {cid: nk for cid, nk, _ in combo}
        pieces = {cid: pi for cid, nk, pi in combo if nk >= 1}
        plan = _candidate_plan(problem, n, pieces, scalable)
        if plan is not None:
            yield tuple(nk for _, nk, _ in combo), plan


def leaf_utilities(problem: PlanningProblem) -> dict[tuple[int, ...], float]:
    """Best utility at each session vector, for a problem with no class
    linear through the origin; vectors follow ``problem.classes``."""
    best: dict[tuple[int, ...], float] = {}
    for n, plan in _candidates(problem, problem.classes, []):
        best[n] = max(best.get(n, -INF), plan.utility)
    return best

