"""Deterministic fluid simulator for weighted proportionally-fair transport.

Each flow emits fluid at its send rate x_f; the delivered fraction nudges the
rate up by ``gain_norm * w_f`` per unit mass and the lost fraction sheds
``gain_norm * x_f`` per unit mass, giving the multiplicative dynamics

    dx_f/dt = gain_norm * x_f * ((1 - p_f) * w_f - p_f * x_f)

where p_f is the route loss probability and ``gain_norm`` is the gain over
the largest weight (the gain itself if every weight is 0).  Links drop the
excess fraction of their offered load, ``p_l = max(y_l - C_l, 0) / max(y_l,
C_l)``; every capacity C_l is > 0 (``Link`` and ``set_capacity`` check it), so
the denominator never vanishes and an unsaturated link loses nothing.  Route
loss composes independently across links.  Integration is explicit Euler on a
fixed step; everything is vectorized over flows with a link-by-flow incidence
matrix, and a run is a pure function of its inputs.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .model import Topology, cumulative_utility
from .planner import PlanningProblem
from .weights import TransportConfig

RATE_FLOOR = 0.001
DEFAULT_DT = 0.01
CONVERGENCE_WINDOW = 1.0  # seconds of simulated time
CONVERGENCE_REL = 0.001

# The step's constants as 0-d arrays, which numpy broadcasts faster than floats.
_ZERO, _ONE, _MAX_LOSS, _RATE_FLOOR = map(np.array, (0.0, 1.0, 1.0 - 1e-12, RATE_FLOOR))


@dataclass
class SimEvent:
    """A timed change applied to the running simulation."""

    t: float
    kind: str  # "set-capacity" | "set-sessions" | "install-config"
    payload: dict

    def __post_init__(self):
        if self.kind not in ("set-capacity", "set-sessions", "install-config"):
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass
class SimTrace:
    """Sampled time series; one row per (sample time, flow)."""

    times: list[float] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    converged_at: float | None = None

    CSV_HEADER = (
        "t,flow_id,send_rate_mbps,goodput_mbps,class_id,class_goodput_mbps,utility"
    )

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(self.CSV_HEADER + "\n")
        buf.writelines(map(_CSV_ROW.__mod__, self.rows))
        return buf.getvalue()

    def final_goodputs(self) -> dict[str, float]:
        if not self.times:
            return {}
        t_last = self.times[-1]
        return {r[1]: r[3] for r in self.rows if r[0] == t_last and r[1]}

    def final_send_rates(self) -> dict[str, float]:
        if not self.times:
            return {}
        t_last = self.times[-1]
        return {r[1]: r[2] for r in self.rows if r[0] == t_last and r[1]}

    def final_class_goodputs(self) -> dict[str, float]:
        if not self.times:
            return {}
        t_last = self.times[-1]
        return {r[4]: r[5] for r in self.rows if r[0] == t_last and r[4]}

    def final_utility(self) -> float:
        if not self.times:
            return 0.0
        t_last = self.times[-1]
        for r in self.rows:
            if r[0] == t_last:
                return r[6]
        return 0.0


def _fmt(x: float) -> str:
    """Stable decimal formatting so identical runs emit identical bytes."""
    return f"{x:.9g}"


# One trace row; "%.9g" formats a float exactly as ``_fmt`` does.
_CSV_ROW = "%.9g,%s,%.9g,%.9g,%s,%.9g,%.9g\n"


class Simulator:
    """Fluid network with one controller per flow.

    ``mode`` selects the controller family: ``"weighted"`` uses the installed
    per-flow weights, ``"unit"`` forces every weight to 1, and ``"fixed"``
    pins send rates at their initial values (an open-loop sender whose goodput
    still suffers route loss).
    """

    def __init__(
        self,
        problem: PlanningProblem,
        config: TransportConfig,
        truth: Topology | None = None,
        mode: str = "weighted",
        dt: float = DEFAULT_DT,
        initial_rates: dict[str, float] | None = None,
    ):
        if mode not in ("weighted", "unit", "fixed"):
            raise ValueError(f"unknown mode {mode!r}")
        self.problem = problem
        self.mode = mode
        self.dt = float(dt)
        self.truth = truth if truth is not None else problem.topology
        self.flows = problem.all_flows()
        self._flow_ids = [f.id for f in self.flows]
        self._class_ids = [f.class_id for f in self.flows]
        cidx = {c.id: k for k, c in enumerate(problem.classes)}
        self._class_idx = np.array([cidx[c] for c in self._class_ids], dtype=np.intp)
        self._class_first = {c: j for j, c in reversed(list(enumerate(self._class_ids)))}
        self.link_ids = [ln.id for ln in self.truth.links]
        self._lidx = {lid: i for i, lid in enumerate(self.link_ids)}
        nf = len(self.flows)
        nl = len(self.link_ids)
        self.incidence = np.zeros((nl, nf))
        for j, f in enumerate(self.flows):
            for lid in f.route:
                self.incidence[self._lidx[lid], j] = 1.0
        self.capacity = np.array(
            [self.truth.link(lid).capacity_mbps for lid in self.link_ids]
        )
        self.t = 0.0
        self.x = np.full(nf, RATE_FLOOR)
        if initial_rates:
            for j, f in enumerate(self.flows):
                if f.id in initial_rates:
                    self.x[j] = max(RATE_FLOOR, initial_rates[f.id])
        self.install_config(config, reset_rates=False)

    # -- configuration ----------------------------------------------------

    def install_config(self, config: TransportConfig, reset_rates: bool = True) -> None:
        """Adopt new weights and session counts; optionally restart from the floor."""
        self.config = config
        self.w = np.array([config.weights.get(f.id, 0.0) for f in self.flows])
        self.n = np.array(
            [float(config.sessions.get(f.class_id, 0)) for f in self.flows]
        )
        if self.mode == "unit":
            self.w = np.ones_like(self.w)
        w_max = float(self.w.max()) if self.w.size else 0.0
        self.gain_norm = config.gain / w_max if w_max > 0 else config.gain
        if reset_rates:
            self.x = np.full(len(self.flows), RATE_FLOOR)

    def set_capacity(self, lid: str, capacity_mbps: float) -> None:
        if not (capacity_mbps > 0):
            raise ValueError(f"capacity must be > 0, got {capacity_mbps}")
        self.capacity[self._lidx[lid]] = capacity_mbps

    def set_sessions(self, class_id: str, n: int) -> None:
        if n < 0:
            raise ValueError("session count must be >= 0")
        for j, f in enumerate(self.flows):
            if f.class_id == class_id:
                self.n[j] = float(n)

    # -- dynamics ---------------------------------------------------------

    def link_loss(self) -> np.ndarray:
        y = np.dot(self.incidence, np.multiply(self.n, self.x))
        p = np.subtract(y, self.capacity)
        np.maximum(p, _ZERO, out=p)
        return np.divide(p, np.maximum(y, self.capacity, out=y), p)

    def path_success(self) -> np.ndarray:
        p = self.link_loss()
        np.minimum(p, _MAX_LOSS, out=p)
        np.log1p(np.negative(p, p), p)
        s = np.dot(self.incidence.T, p)
        return np.exp(s, s)

    def step(self) -> None:
        # Fixed-rate senders keep their rates, so they need no loss pass.  The
        # rest computes dx = gain_norm * x * (succ * w - loss * x) and
        # x = max(RATE_FLOOR, x + dt * dx) operation by operation in reused buffers.
        if self.mode != "fixed":
            x = self.x
            succ = self.path_success()
            loss = np.subtract(_ONE, succ)
            np.subtract(np.multiply(succ, self.w, succ), np.multiply(loss, x, loss), succ)
            dx = np.multiply(self.gain_norm, x)
            np.multiply(dx, succ, dx)
            np.multiply(self.dt, dx, dx)
            np.add(x, dx, dx)
            self.x = np.maximum(dx, _RATE_FLOOR, out=dx)
        self.t += self.dt

    def goodputs(self) -> np.ndarray:
        """Per-session goodput per flow: send rate times route success."""
        return self.x * self.path_success()

    def utility(self) -> float:
        classes, first, n = self.problem.classes, self._class_first, self.n.tolist()
        sessions = {c.id: int(round(n[first[c.id]])) if c.id in first else 0 for c in classes}
        # bincount adds in flow order, as a running sum per class would.
        good = np.bincount(self._class_idx, weights=self.goodputs()).tolist()
        return cumulative_utility(classes, sessions, {c.id: g for c, g in zip(classes, good)})

    # -- runs -------------------------------------------------------------

    def run(
        self,
        duration: float | None = None,
        events: list[SimEvent] | None = None,
        sample_every: float = 1.0,
        stop_on_convergence: bool = False,
        max_time: float = 10_000.0,
    ) -> SimTrace:
        """Advance the simulation, applying events and sampling the trace.

        With ``stop_on_convergence`` the run ends once every send rate has
        changed by less than 0.1% over one simulated second (and all events
        have fired), or at ``max_time``.
        """
        events = sorted(events or [], key=lambda e: e.t)
        trace = SimTrace()
        horizon = self.t + duration if duration is not None else max_time
        ei = 0
        window = max(1, int(round(CONVERGENCE_WINDOW / self.dt)))
        sample_steps = max(1, int(round(sample_every / self.dt)))
        steps = 0
        self._sample(trace)
        ref = self.x.copy()
        end, n_events = horizon - 1e-12, len(events)
        while self.t < end:
            while ei < n_events and events[ei].t <= self.t + 1e-12:
                self._apply(events[ei])
                ref = self.x.copy()
                steps = 0
                ei += 1
            self.step()
            steps += 1
            if steps % sample_steps == 0:
                self._sample(trace)
            if steps % window == 0:
                if (
                    stop_on_convergence
                    and ei >= n_events
                    # Strict: the max-weight flow's loss-free growth is exactly
                    # 0.1%/s (gain_norm * w_max = gain), so <= would fire mid-ramp.
                    and np.all(np.abs(self.x - ref) < CONVERGENCE_REL * np.maximum(ref, RATE_FLOOR))
                ):
                    trace.converged_at = self.t
                    break
                ref = self.x.copy()
        if steps % sample_steps != 0:
            self._sample(trace)
        return trace

    def _apply(self, ev: SimEvent) -> None:
        if ev.kind == "set-capacity":
            self.set_capacity(ev.payload["link"], ev.payload["capacity_mbps"])
        elif ev.kind == "set-sessions":
            self.set_sessions(ev.payload["class"], ev.payload["n"])
        else:
            cfg = ev.payload["config"]
            self.install_config(cfg, reset_rates=ev.payload.get("reset_rates", False))
            if "rates" in ev.payload:
                # Abrupt switch to the new plan's starting rates.
                for j, f in enumerate(self.flows):
                    if f.id in ev.payload["rates"]:
                        self.x[j] = max(RATE_FLOOR, ev.payload["rates"][f.id])

    def _sample(self, trace: SimTrace) -> None:
        good = self.goodputs()
        session_good = self.n * good
        # One float per class, shared by that class's rows.
        cg = np.bincount(self._class_idx, weights=session_good).tolist()
        util = self.utility()
        t = round(self.t, 9)
        trace.times.append(t)
        trace.rows.extend(zip(repeat(t), self._flow_ids, self.x.tolist(), good.tolist(),
                              self._class_ids, map(cg.__getitem__, self._class_idx.tolist()),
                              repeat(util)))
        # Summary row: aggregate (session-weighted) send rate and goodput.
        total_send = float(np.sum(self.n * self.x))
        total_good = float(np.sum(session_good))
        trace.rows.append((t, "", total_send, total_good, "", total_good, util))


def run_to_equilibrium(
    problem: PlanningProblem,
    config: TransportConfig,
    truth: Topology | None = None,
    mode: str = "weighted",
    dt: float = DEFAULT_DT,
    max_time: float = 10_000.0,
    initial_rates: dict[str, float] | None = None,
) -> SimTrace:
    """Convenience wrapper: simulate until send rates settle."""
    sim = Simulator(problem, config, truth=truth, mode=mode, dt=dt,
                    initial_rates=initial_rates)
    return sim.run(stop_on_convergence=True, max_time=max_time)
