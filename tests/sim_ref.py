"""The fluid simulator as it was before its lean per-step and per-sample
rewrite, kept as the reference for ``overlaylab.sim``.

``RefSimulator`` is the previous ``Simulator`` with its dead attributes
removed; ``to_csv`` and ``phase_utilities`` are the previous trace writer and
``run_experiment``'s previous phase means.  The rewrite must produce the same
bits, so the tests compare arrays with ``np.array_equal`` and text with
``==``, never with a tolerance.
"""
import io

import numpy as np

from overlaylab.model import cumulative_utility
from overlaylab.sim import CONVERGENCE_REL, CONVERGENCE_WINDOW, DEFAULT_DT, RATE_FLOOR, SimTrace


class RefSimulator:
    def __init__(self, problem, config, truth=None, mode="weighted", dt=DEFAULT_DT, initial_rates=None):
        if mode not in ("weighted", "unit", "fixed"):
            raise ValueError(f"unknown mode {mode!r}")
        self.problem = problem
        self.mode = mode
        self.dt = float(dt)
        self.truth = truth if truth is not None else problem.topology
        self.flows = problem.all_flows()
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
        self._fixed_rates = self.x.copy()

    def install_config(self, config, reset_rates=True):
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
            if self.mode == "fixed":
                self._fixed_rates = self.x.copy()

    def set_capacity(self, lid, capacity_mbps):
        if not (capacity_mbps > 0):
            raise ValueError(f"capacity must be > 0, got {capacity_mbps}")
        self.capacity[self._lidx[lid]] = capacity_mbps

    def set_sessions(self, class_id, n):
        if n < 0:
            raise ValueError("session count must be >= 0")
        for j, f in enumerate(self.flows):
            if f.class_id == class_id:
                self.n[j] = float(n)

    def link_loss(self):
        y = self.incidence @ (self.n * self.x)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where(y > self.capacity, (y - self.capacity) / np.maximum(y, 1e-300), 0.0)
        return p

    def path_success(self):
        p = self.link_loss()
        return np.exp(self.incidence.T @ np.log1p(-np.minimum(p, 1.0 - 1e-12)))

    def step(self):
        succ = self.path_success()
        loss = 1.0 - succ
        if self.mode == "fixed":
            self.x = self._fixed_rates.copy()
        else:
            dx = self.gain_norm * self.x * (succ * self.w - loss * self.x)
            self.x = np.maximum(RATE_FLOOR, self.x + self.dt * dx)
        self.t += self.dt

    def goodputs(self):
        return self.x * self.path_success()

    def utility(self):
        good = self.goodputs()
        per_session = {}
        for j, f in enumerate(self.flows):
            per_session[f.class_id] = per_session.get(f.class_id, 0.0) + float(good[j])
        n = {}
        for c in self.problem.classes:
            idxs = [j for j, f in enumerate(self.flows) if f.class_id == c.id]
            n[c.id] = int(round(self.n[idxs[0]])) if idxs else 0
        return cumulative_utility(self.problem.classes, n, per_session)

    def run(self, duration=None, events=None, sample_every=1.0, stop_on_convergence=False, max_time=10_000.0):
        events = sorted(events or [], key=lambda e: e.t)
        trace = SimTrace()
        horizon = self.t + duration if duration is not None else max_time
        ei = 0
        window = max(1, int(round(CONVERGENCE_WINDOW / self.dt)))
        sample_steps = max(1, int(round(sample_every / self.dt)))
        steps = 0
        self._sample(trace)
        ref = self.x.copy()
        while self.t < horizon - 1e-12:
            while ei < len(events) and events[ei].t <= self.t + 1e-12:
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
                    and ei >= len(events)
                    and np.all(np.abs(self.x - ref) < CONVERGENCE_REL * np.maximum(ref, RATE_FLOOR))
                ):
                    trace.converged_at = self.t
                    break
                ref = self.x.copy()
        if steps % sample_steps != 0:
            self._sample(trace)
        return trace

    def _apply(self, ev):
        if ev.kind == "set-capacity":
            self.set_capacity(ev.payload["link"], ev.payload["capacity_mbps"])
        elif ev.kind == "set-sessions":
            self.set_sessions(ev.payload["class"], ev.payload["n"])
        else:
            cfg = ev.payload["config"]
            self.install_config(cfg, reset_rates=ev.payload.get("reset_rates", False))
            if "rates" in ev.payload:
                for j, f in enumerate(self.flows):
                    if f.id in ev.payload["rates"]:
                        self.x[j] = max(RATE_FLOOR, ev.payload["rates"][f.id])
                if self.mode == "fixed":
                    self._fixed_rates = self.x.copy()

    def _sample(self, trace):
        good = self.goodputs()
        cg = {}
        for j, f in enumerate(self.flows):
            cg[f.class_id] = cg.get(f.class_id, 0.0) + float(self.n[j] * good[j])
        util = self.utility()
        t = round(self.t, 9)
        trace.times.append(t)
        for j, f in enumerate(self.flows):
            trace.rows.append(
                (t, f.id, float(self.x[j]), float(good[j]), f.class_id, cg[f.class_id], util)
            )
        total_send = float(np.sum(self.n * self.x))
        total_good = float(np.sum(self.n * good))
        trace.rows.append((t, "", total_send, total_good, "", total_good, util))


def _fmt(x):
    return f"{x:.9g}"


def to_csv(trace):
    buf = io.StringIO()
    buf.write(SimTrace.CSV_HEADER + "\n")
    for row in trace.rows:
        t, fid, send, good, cid, cgood, util = row
        buf.write(
            f"{_fmt(t)},{fid},{_fmt(send)},{_fmt(good)},{cid},"
            f"{_fmt(cgood)},{_fmt(util)}\n"
        )
    return buf.getvalue()


def phase_utilities(trace, cut_times, duration):
    """Mean utility per phase, the phases cut at ``cut_times``; one scan of
    the rows per phase."""
    summary = [(r, r[0]) for r in trace.rows if r[1] == ""]
    cuts = sorted({0.0, duration} | set(cut_times))
    out = []
    for a, b in zip(cuts, cuts[1:]):
        utils = [r[6] for r, t in summary if a <= t < b or (b == duration and t == b)]
        out.append((a, b, sum(utils) / len(utils) if utils else 0.0))
    return out
