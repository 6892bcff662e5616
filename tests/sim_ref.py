"""The fluid simulator as it was before its lean per-step and per-sample
rewrite, kept as the reference for ``overlaylab.sim``.

``RefSimulator`` is the previous ``Simulator`` with its dead attributes and
options removed, and with the simulator's clock: its own loop takes one step
at a time and counts whole steps from the run's start by the same rule.  It
writes the previous ``SimTrace``, a list of row tuples, which has
the ``utility`` and ``final_goodputs`` accessors ``run_experiment`` reads.
``to_csv`` is the previous trace writer, and ``phase_utilities`` gives the
phase means ``run_experiment`` must give, grouping the samples by the time of
the last applied event that the reference's own loop records for each.  The
rewrite must produce the same bits, so the tests compare arrays with
``np.array_equal`` and text with ``==``, never with a tolerance.
"""
import io
import math

import numpy as np

from overlaylab.model import cumulative_utility
from overlaylab.sim import DEFAULT_DT, RATE_FLOOR


class SimTrace:
    """One row per (sample time, flow) plus one aggregate row per sample."""

    CSV_HEADER = "t,flow_id,send_rate_mbps,goodput_mbps,class_id,class_goodput_mbps,utility"

    def __init__(self):
        self.times = []
        self.since = []  # per sample, the time of the last event applied before it, or the start
        self.rows = []

    @property
    def utility(self):
        return [r[6] for r in self.rows if r[1] == ""]

    def final_goodputs(self):
        if not self.times:
            return {}
        t_last = self.times[-1]
        return {r[1]: r[3] for r in self.rows if r[0] == t_last and r[1]}


class RefSimulator:
    def __init__(self, problem, config, mode="weighted", dt=DEFAULT_DT, initial_rates=None):
        if mode not in ("weighted", "unit", "fixed"):
            raise ValueError(f"unknown mode {mode!r}")
        self.problem = problem
        self.mode = mode
        self.dt = float(dt)
        self.flows = problem.all_flows()
        self.link_ids = [ln.id for ln in problem.topology.links]
        self._lidx = {lid: i for i, lid in enumerate(self.link_ids)}
        nf = len(self.flows)
        nl = len(self.link_ids)
        self.incidence = np.zeros((nl, nf))
        for j, f in enumerate(self.flows):
            for lid in f.route:
                self.incidence[self._lidx[lid], j] = 1.0
        self.capacity = np.array(
            [problem.topology.link(lid).capacity_mbps for lid in self.link_ids]
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
        # Sessions per class: a class without flows has no entry in ``n``.
        self.sessions = {c.id: config.sessions.get(c.id, 0) for c in self.problem.classes}
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
        self.sessions[class_id] = n
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
            n[c.id] = int(round(self.n[idxs[0]])) if idxs else self.sessions[c.id]
        return cumulative_utility(self.problem.classes, n, per_session)

    def run(self, duration, events=None, sample_every=1.0):
        events = sorted(events or [], key=lambda e: e.t)
        trace = SimTrace()
        t0, i = self.t, 0
        since = t0

        def steps(span):
            # The least n with n * dt >= span, where an n that is an integer to 6 decimals is that integer.
            return max(0, math.ceil(round(span / self.dt, 6)))

        total = steps(duration)
        # A cadence at or past the duration samples only the start and the horizon.
        sample_steps = int(round(sample_every / self.dt, 6)) if sample_every < duration else total + 1
        self._sample(trace, since)
        while i < total:
            while events and steps(events[0].t - t0) <= i:
                since = events[0].t
                self._apply(events.pop(0))
            self.step()
            i += 1
            self.t = t0 + i * self.dt
            if i % sample_steps == 0:
                self._sample(trace, since)
        if i % sample_steps != 0:
            self._sample(trace, since)
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

    def _sample(self, trace, since):
        good = self.goodputs()
        cg = {}
        for j, f in enumerate(self.flows):
            cg[f.class_id] = cg.get(f.class_id, 0.0) + float(self.n[j] * good[j])
        util = self.utility()
        t = round(self.t, 9)
        trace.times.append(t)
        trace.since.append(since)
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
    """Mean utility per phase, the phases cut at ``cut_times``: a phase holds
    the samples whose last applied event (or the start) is its own start, so
    a sample at an event's time counts in the phase that ends there.  One
    scan of the samples per phase."""
    cuts = sorted({0.0, duration} | set(cut_times))
    out = []
    for a, b in zip(cuts, cuts[1:]):
        utils = [u for since, u in zip(trace.since, trace.utility) if since == a]
        out.append((a, b, sum(utils) / len(utils) if utils else 0.0))
    return out
