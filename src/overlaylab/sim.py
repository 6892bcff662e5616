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
fixed step; everything is vectorized over flows with the problem's link-by-flow
``incidence`` (``PlanningProblem`` builds the flow layout once), and a run is a
pure function of its inputs.  ``Event`` is the one timed change, shared with
the scenario engine; ``SimTrace`` stores per sample.

There is one step of 15 ufunc calls and 2 sums, over a leading batch axis of
B runs of one flow layout.  A ``Simulator`` steps a batch of one over its
``_wx`` (weights row, rates row), so one multiply forms ``[succ; loss] * [w;
x]``; the loss is kept negated as ``(C - m) / m`` with ``m = max(y, C)``.
``run_batch`` steps event-free runs that share a layout, a dt and a clock
together.  The link and route sums are stacked ``np.matmul(incidence[None],
v[..., None])`` and ``np.matmul(incidence.T[None], p[..., None])``, which
keep each run's per-run ``np.dot`` bits in any batch; ``v @ incidence.T``
and ``einsum`` do not.  A batch of one calls the bound ``incidence.dot`` on
1-D views: the same bits, cheaper per call.

A run has one clock: whole steps counted from its start t0, read as
``t0 + i * dt`` after step i.  A span S takes ``_steps(S, dt)`` steps, the
least n with n * dt >= S, where an S / dt that is an integer to 6 decimals
counts as that integer.  So a run of duration D takes ``_steps(D, dt)``
steps, and an event at t is applied after ``_steps(t - t0, dt)`` steps, when
the clock first reads t or later; one due at the horizon or later is not
applied.  Samples and convergence windows count the same steps from the
start, so an event on the grid lands on time and the samples stay on the
grid.  A sample at an event's step reads the state before the event,
and ``SimTrace.since`` keeps the time of the event before it (or t0).
``run`` takes each free stretch (the steps up to the next sample, window
test, due event or horizon) in one ``step(k)``, and ``run_batch`` its whole
horizon in one; neither calls ``Simulator.step``.

A sample keeps only state; ``run`` ends with every sample's goodputs from
one batched ``success`` over the samples, stacked once and then dropped, and
``to_csv`` writes a sample through one ``%`` template.

The installed ``TransportConfig`` is the whole controller; the unit-weight
and fixed-rate (gain 0) baselines are configs too.

A step is a pure function of the rates, weights, sessions, capacities,
``gain_norm`` and dt.  So once one step returns the rates bit for bit
unchanged (``np.array_equal``, no tolerance), every later step would too
until an event changes an input: the run is at an exact fixed point.
``Simulator.run`` checks for that once per convergence window and, while it
holds, only advances the clock; sample times, samples and event firing keep
the bits of a run that steps to the horizon.  The run is frozen while its
``fixed_at`` is set, and any applied event clears it; ``SimTrace.fixed_at``
records when the run last froze.
"""
from __future__ import annotations

import io
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, repeat

import numpy as np

from .model import check_capacity, check_sessions, cumulative_utility, read_only
from .planner import PlanningProblem
from .weights import TransportConfig

RATE_FLOOR = 0.001
DEFAULT_DT = 0.01
CONVERGENCE_WINDOW = 1.0  # seconds of simulated time

# The step's constants as 0-d arrays, which numpy broadcasts faster than floats.
_ZERO, _ONE, _NEG_MAX_LOSS, _RATE_FLOOR = map(np.array, (0.0, 1.0, -(1.0 - 1e-12), RATE_FLOOR))


@dataclass(frozen=True)
class Event:
    """A timed change to the network or its controllers.

    A run from t0 applies the event after ``_steps(t - t0, dt)`` steps, when
    its clock first reads t or later: an event off the step grid lands on the
    next step, and one due at the horizon or later is not applied.

    An event is checked once, on construction, and is frozen: ``payload`` is
    a read-only copy of the caller's dict, and so is an install's ``rates``,
    so no edit can undo the check.  The simulator still checks each value
    against its own network as it applies it (an unknown link, class or flow).

    Payloads (a key the kind does not read is an error): ``set-capacity``
    {"link", "capacity_mbps": finite and > 0}; ``set-sessions`` {"class",
    "n": int >= 0}; ``install-config`` {"config": TransportConfig, optional
    "rates": flow id -> finite rate, lifted to ``RATE_FLOOR``, so a rate at or
    below it restarts the flow}; ``rerun-planner`` {optional "knowledge":
    "current-truth" | "stale"} re-plans mid-run, and ``run_experiment`` turns
    it into an ``install-config`` (the simulator rejects a re-plan, and a
    ``Scenario`` an install).
    """

    t: float
    kind: str
    payload: Mapping = field(default_factory=dict)

    # Each kind with the payload keys it requires and those it may also read.
    KINDS = {"set-capacity": (("link", "capacity_mbps"), ()), "set-sessions": (("class", "n"), ()),
             "install-config": (("config",), ("rates",)), "rerun-planner": ((), ("knowledge",))}

    def __post_init__(self):
        if not isinstance(self.payload, Mapping):
            raise ValueError(f"{self.kind} event at t={self.t} needs a mapping payload, "
                             f"got {type(self.payload).__name__}")
        # The dataclass is frozen, so the payload's copy is set through object.__setattr__.
        object.__setattr__(self, "payload", p := read_only(self.payload))
        if not (math.isfinite(self.t) and self.t >= 0):
            raise ValueError(f"event time must be finite and >= 0, got {self.t}")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        required, optional = self.KINDS[self.kind]
        missing = [k for k in required if k not in p]
        if missing:
            raise ValueError(f"{self.kind} payload lacks {', '.join(missing)}")
        unread = [repr(k) for k in p if k not in required + optional]
        if unread:
            raise ValueError(f"{self.kind} payload has unread key(s) {', '.join(unread)}")
        if self.kind == "set-capacity":
            check_capacity(p["capacity_mbps"], f"set-capacity event at t={self.t}")
        if self.kind == "set-sessions":
            check_sessions(p["n"], "set-sessions")
        if self.kind == "install-config":
            if not isinstance(p["config"], TransportConfig):
                raise ValueError("install-config requires a TransportConfig")
            if "rates" in p:
                object.__setattr__(self, "payload", p := read_only(p | {"rates": read_only(p["rates"])}))
            _check_rates(p.get("rates", {}), "install-config")
        knowledge = p.get("knowledge", "current-truth")
        if self.kind == "rerun-planner" and knowledge not in ("current-truth", "stale"):
            raise ValueError("rerun-planner knowledge must be current-truth|stale")


def _check_rates(rates: Mapping[str, float], owner: str) -> None:
    """Every given rate must be finite; one below ``RATE_FLOOR`` is lifted to it."""
    for fid, rate in rates.items():
        if not math.isfinite(rate):
            raise ValueError(f"{owner} rate of flow {fid!r} must be finite, got {rate!r}")


@dataclass(eq=False)
class SimTrace:
    """Sampled time series, one entry per sample.

    Flow and class ids are stored once.  Each sample keeps its time and
    utility, and a row each of ``send`` rates, per-session goodputs (``good``)
    and per-flow ``sessions``; ``rows`` expands them into one tuple per
    (sample, flow) plus one aggregate row per sample.

    ``since`` holds, per sample, the time of the last event the run applied
    before taking it, or the run's start t0 before any event.  A sample at an
    event's step reads the state before that event, so its ``since`` is the
    event before; ``run_experiment`` puts each sample in the phase that
    opens at its ``since``.  It is not part of the CSV.
    """

    flow_ids: list[str]
    class_ids: list[str]
    class_idx: np.ndarray  # per flow, the index of its class
    times: list[float]
    send: np.ndarray  # (samples, flows), as are ``good`` and ``sessions``
    good: np.ndarray
    sessions: np.ndarray
    utility: list[float]
    since: list[float]
    # Simulated time at which the run last reached an exact fixed point, or
    # None if it ends off one; not part of the CSV.
    fixed_at: float | None = None

    CSV_HEADER = "t,flow_id,send_rate_mbps,goodput_mbps,class_id,class_goodput_mbps,utility"

    @property
    def rows(self) -> list[tuple]:
        rows, cidx = [], self.class_idx.tolist()
        for t, x, good, cg, total_send, total_good, util in self._samples():
            rows += zip(repeat(t), self.flow_ids, x, good, self.class_ids, map(cg.__getitem__, cidx), repeat(util))
            # Summary row: aggregate (session-weighted) send rate and goodput.
            rows.append((t, "", total_send, total_good, "", total_good, util))
        return rows

    def _samples(self):
        """Per sample: t, rates, goodputs, class goodputs, totals and utility."""
        session_good = self.sessions * self.good
        # Contiguous rows, so each total adds as np.sum of its sample does.
        totals = ((self.sessions * self.send).sum(axis=1), session_good.sum(axis=1))
        class_good = _class_sums(session_good, self.class_idx, int(self.class_idx.max(initial=-1)) + 1)
        for t, *arrays, util in zip(self.times, self.send, self.good, class_good, *totals, self.utility):
            yield t, *(a.tolist() for a in arrays), util

    def to_csv(self) -> str:
        # ``rows`` with each float as "%.9g", the package's one float format
        # (``study_csv`` uses it too).  A sample is one template: each flow's
        # row with its ids ("%" escaped) filled in, then the summary row.
        template = "".join("%s," + f.replace("%", "%%") + ",%.9g,%.9g," + c.replace("%", "%%") + ",%s"
                           for f, c in zip(self.flow_ids, self.class_ids)) + "%s,,%.9g,%s,,%s,%s\n"
        cidx = self.class_idx.tolist()
        buf = io.StringIO()
        buf.write(self.CSV_HEADER + "\n")
        for t, x, good, cg, total_send, total_good, util in self._samples():
            t, util, total_good = "%.9g" % t, "%.9g" % util, "%.9g" % total_good
            tails = ["%.9g,%s\n" % (g, util) for g in cg]
            buf.write(template % (*chain.from_iterable(zip(repeat(t), x, good, map(tails.__getitem__, cidx))),
                                  t, total_send, total_good, total_good, util))
        return buf.getvalue()

    def final_goodputs(self) -> dict[str, float]:
        return dict(zip(self.flow_ids, self.good[-1].tolist()))


def _class_sums(values: np.ndarray, class_idx: np.ndarray, n_classes: int) -> np.ndarray:
    """Each row of ``values`` summed per class, added in flow order into zeros as ``np.bincount`` adds."""
    sums = np.zeros((len(values), n_classes))
    np.add.at(sums, (slice(None), class_idx), values)
    return sums


def _stepper(incidence, wx, n, capacity, gain_norm, dt):
    """``step(k=1)``, which takes k steps of the rates ``wx[1]`` in place under the weights ``wx[0]``
    (``wx`` is (2, B, F, 1)); ``success``, each flow's route success; and each link's negated loss."""
    dt = np.array(dt)
    x = wx[1]
    y, neg_loss, q, sd = (np.empty(a.shape) for a in (capacity, capacity, capacity, wx))
    s, d = sd
    # Link and route sums; a lone run's bound ``dot`` (np.dot without its dispatcher) on 1-D
    # views adds in the stacked matmul's order (the same bits) at less cost per call.
    if len(x) == 1:
        link_sum = partial(incidence.dot, s[0, :, 0], y[0, :, 0])
        route_sum = partial(incidence.T.dot, q[0, :, 0], s[0, :, 0])
    else:
        link_sum = partial(np.matmul, incidence[None], s, y)
        route_sum = partial(np.matmul, incidence.T[None], q, s)
    # Closure variables are the cheapest names to read, once per operation.
    add, sub, mul, div, maximum, log1p, exp = np.add, np.subtract, np.multiply, np.divide, np.maximum, np.log1p, np.exp

    def success():
        # Loss max(y - C, 0) / max(y, C), kept negated as (C - m) / m with
        # m = max(y, C): C - y where y > C, and +0.0 on an unsaturated link.
        mul(n, x, s)
        link_sum()
        maximum(y, capacity, out=y)
        div(sub(capacity, y, neg_loss), y, neg_loss)
        log1p(maximum(neg_loss, _NEG_MAX_LOSS, out=q), q)
        route_sum()
        return exp(s, s)

    def step(k=1):
        # x = max(RATE_FLOOR, x + dt * gain_norm * x * (succ * w - loss * x))
        for _ in repeat(None, k):
            success()
            sub(_ONE, s, d)
            mul(sd, wx, sd)  # [succ; loss] * [w; x] in one multiply
            sub(s, d, s)
            mul(gain_norm, x, d)
            mul(d, s, d)
            mul(dt, d, d)
            maximum(add(x, d, x), _RATE_FLOOR, out=x)

    return step, success, neg_loss


class Simulator:
    """Fluid network with one weighted proportionally-fair controller per flow.

    The controllers run the installed ``TransportConfig``; the baselines are
    configs: unit weights (``dict.fromkeys(config.weights, 1.0)``), and gain
    0, a fixed-rate sender whose steps add +-0 to every rate, so the rates
    keep their bits and the run freezes at its first convergence window.
    """

    def __init__(
        self,
        problem: PlanningProblem,
        config: TransportConfig,
        dt: float = DEFAULT_DT,
        initial_rates: dict[str, float] | None = None,
    ):
        dt = float(dt)
        # A dt that is not finite and > 0 would make ``run`` loop forever or fail.
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be finite and > 0, got {dt}")
        _check_rates(initial_rates or {}, "initial")
        self.problem = problem
        self.dt = dt
        self.flows = problem.all_flows()
        self._flow_ids = [f.id for f in self.flows]
        self._class_ids = [f.class_id for f in self.flows]
        # The problem's read-only flow layout, shared rather than rebuilt.
        self._class_idx, self.incidence = problem.flow_class, problem.incidence
        self.link_ids = problem.link_ids
        self._lidx = {lid: i for i, lid in enumerate(self.link_ids)}
        self.capacity = problem.capacity.copy()  # ``set_capacity`` writes into it
        self.t = 0.0
        # The weights and rates rows, written in place by configs and events.
        self._wx = np.full((2, len(self.flows)), RATE_FLOOR)
        self.w, self.x = self._wx
        self.install_config(config, initial_rates)

    # -- configuration ----------------------------------------------------

    def install_config(self, config: TransportConfig, rates: Mapping[str, float] | None = None) -> None:
        """Adopt new weights, session counts and gain, and move each flow in ``rates`` to its rate,
        lifted to ``RATE_FLOOR``; the other rates carry on.  A ``ValueError`` names any flow or
        class the simulator does not have, before anything changes."""
        rates = rates or {}
        classes = [c.id for c in self.problem.classes]
        for named, known, what in ((rates, self._flow_ids, "rates for unknown flow"),
                                   (config.weights, self._flow_ids, "weights for unknown flow"),
                                   (config.sessions, classes, "sessions for unknown class")):
            unknown = sorted(named.keys() - set(known))
            if unknown:
                raise ValueError(f"{what} id(s) {', '.join(map(repr, unknown))}")
        for j, fid in enumerate(self._flow_ids):
            if fid in rates:
                self.x[j] = max(RATE_FLOOR, rates[fid])
        self.config = config
        self.w[:] = [config.weights.get(f.id, 0.0) for f in self.flows]
        # Sessions per class, a class without flows included; ``n`` is per flow.
        self.sessions = {c: config.sessions.get(c, 0) for c in classes}
        self.n = np.array([float(self.sessions[k]) for k in self._class_ids])
        w_max = float(self.w.max()) if self.w.size else 0.0
        self.gain_norm = config.gain / w_max if w_max > 0 else config.gain
        # A batch of one over views, so in-place writes by events reach it.
        self._step, self._success, self._neg_loss = _stepper(
            self.incidence, self._wx[:, None, :, None], self.n[None, :, None], self.capacity[None, :, None],
            np.array(self.gain_norm), self.dt)

    def set_capacity(self, lid: str, capacity_mbps: float) -> None:
        if lid not in self._lidx:
            raise ValueError(f"unknown link id {lid!r}")
        check_capacity(capacity_mbps, f"link {lid!r}")
        self.capacity[self._lidx[lid]] = capacity_mbps

    def set_sessions(self, class_id: str, n: int) -> None:
        # ``self.sessions`` holds every class, in the problem's class order.
        if class_id not in self.sessions:
            raise ValueError(f"unknown class id {class_id!r}")
        check_sessions(n, f"class {class_id!r}")
        self.sessions[class_id] = n
        self.n[self._class_idx == list(self.sessions).index(class_id)] = float(n)

    # -- dynamics ---------------------------------------------------------

    def link_loss(self) -> np.ndarray:
        self._success()
        return np.subtract(_ZERO, self._neg_loss[0, :, 0])

    def path_success(self) -> np.ndarray:
        return self._success()[0, :, 0].copy()

    def step(self) -> None:
        self._step()
        self.t += self.dt

    def goodputs(self) -> np.ndarray:
        """Per-session goodput per flow: send rate times route success."""
        return self.x * self._success()[0, :, 0]

    def utility(self) -> float:
        return self._utilities(self.goodputs()[None], [self.sessions])[0]

    def _utilities(self, goodputs: np.ndarray, sessions: list[dict]) -> list[float]:
        """The utility of each row of per-session goodputs under its session counts, each a
        ``self.sessions`` dict (keyed by class, in the problem's class order)."""
        classes = self.problem.classes
        good = _class_sums(goodputs, self._class_idx, len(classes)).tolist()
        return [cumulative_utility(classes, n, dict(zip(n, g))) for n, g in zip(sessions, good)]

    # -- runs -------------------------------------------------------------

    def run(
        self,
        duration: float,
        events: list[Event] | None = None,
        sample_every: float = 1.0,
    ) -> SimTrace:
        """Advance the simulation by ``duration``, applying events and sampling.

        From its start t0 the run takes ``_steps(duration, dt)`` steps, and
        its clock reads ``t0 + i * dt`` after step i.  An event at t is
        applied after ``_steps(t - t0, dt)`` steps, when the clock first reads
        t or later, and a sample taken there reads the state before it (its
        ``trace.since`` is the event before, or t0); one due at the horizon or
        later is not applied.  A sample is taken at the start, every
        ``sample_every / dt`` steps from it, and at the horizon; a
        ``sample_every`` shorter than the run must be a whole number of steps
        (to 6 decimals, as ``_steps`` rounds) or the run raises ``ValueError``,
        and one at or past ``duration`` samples only the start and the horizon.

        At the end of each convergence window the run compares the rates with
        their value before the window's last step.  If that step left them
        exactly equal, the run freezes: each later step only advances the
        clock by dt, as ``step`` would, until an event is applied.  The freeze
        is a run's only shortcut, and it never ends a run early: the trace is
        the same as without it, and ``trace.fixed_at`` is the time the run
        last froze, or None if it ends unfrozen.
        """
        if not (math.isfinite(sample_every) and sample_every > 0):
            raise ValueError(f"sample_every must be finite and > 0, got {sample_every}")
        _check_duration(duration)
        events = sorted(events or [], key=lambda e: e.t)
        t0, dt, total = self.t, self.dt, _steps(duration, self.dt)
        # The step each event is due at, and the horizon last, so ``due[ei]`` always bounds a stretch.
        due = [min(_steps(e.t - t0, dt), total) for e in events] + [total]
        samples, fixed_at, since, ei, i = [], None, t0, 0, 0
        window = max(1, int(round(CONVERGENCE_WINDOW / dt)))
        # A cadence at or past the duration samples only the start and the horizon.
        per_sample = round(sample_every / dt, 6) if sample_every < duration else total + 1
        if per_sample < 1 or per_sample % 1:
            raise ValueError(f"sample_every must be a whole number of steps of dt={dt}, got {sample_every}")
        sample_steps = int(per_sample)
        self._sample(samples, since)
        while i < total:
            while due[ei] <= i:
                self._apply(events[ei])
                fixed_at, since = None, events[ei].t
                ei += 1
            # A free stretch: the steps to the next sample, window test, due
            # event or horizon; a window's last step, whose start the test
            # keeps, stands alone.  A frozen run (``fixed_at`` set) has no test.
            k = min(sample_steps - i % sample_steps, due[ei] - i)
            if fixed_at is None:
                k = min(k, window - 1 - i % window or 1)
                if i % window == window - 1:
                    before = self.x.copy()  # the step moves self.x in place
                self._step(k)
            i += k
            self.t = t0 + i * dt
            if i % sample_steps == 0:
                self._sample(samples, since)
            if i % window == 0 and fixed_at is None and np.array_equal(self.x, before):
                fixed_at = self.t
        if total % sample_steps != 0:
            self._sample(samples, since)
        # Every sample's route success in one batch, which keeps each sample's own bits.  The
        # samples are dropped as they are stacked, and ``success`` reads no weights, so the
        # weights row is a view of the rates: the batch holds each sample's state once.
        times, since, x, n, capacity, sessions = zip(*samples)
        del samples
        x, n, capacity = (np.stack(a)[..., None] for a in (x, n, capacity))
        success = _stepper(self.incidence, np.broadcast_to(x, (2, *x.shape)), n, capacity, _ZERO, self.dt)[1]
        x, n = x[..., 0], n[..., 0]
        good = x * success()[..., 0]
        return SimTrace(self._flow_ids, self._class_ids, self._class_idx, list(times), x, good, n,
                        self._utilities(good, sessions), list(since), fixed_at)

    def _apply(self, ev: Event) -> None:
        if ev.kind == "set-capacity":
            self.set_capacity(ev.payload["link"], ev.payload["capacity_mbps"])
        elif ev.kind == "set-sessions":
            self.set_sessions(ev.payload["class"], ev.payload["n"])
        elif ev.kind == "install-config":
            # Abrupt switch to the new plan's config and starting rates.
            self.install_config(ev.payload["config"], ev.payload.get("rates"))
        else:
            raise ValueError(f"the simulator cannot apply a {ev.kind!r} event; run_experiment re-plans")

    def _sample(self, samples: list, since: float) -> None:
        """Keep what the trace needs of this moment; ``run`` derives the rest."""
        samples.append((round(self.t, 9), since, self.x.copy(), self.n.copy(), self.capacity.copy(),
                        self.sessions.copy()))


def _check_duration(duration: float) -> None:
    # A NaN or negative duration would end a run at its start without a
    # step, and an infinite one would never end.
    if not (math.isfinite(duration) and duration >= 0):
        raise ValueError(f"duration must be finite and >= 0, got {duration}")


def _steps(span: float, dt: float) -> int:
    """The steps a span takes at step ``dt``: the least n with n * dt >= span, where a span / dt
    that is an integer to 6 decimals counts as that integer; 0 for a span <= 0."""
    return max(0, math.ceil(round(span / dt, 6)))


def run_batch(sims: list[Simulator], duration: float) -> None:
    """Step event-free runs that share a flow layout, a dt and a clock as one
    batch, and leave each as ``sim.run(duration, sample_every=duration)``
    would.  A single run goes through ``sim.run``.
    """
    if len(sims) <= 1:
        for sim in sims:
            sim.run(duration, sample_every=duration)
        return
    first = sims[0]
    _check_duration(duration)
    if any(s.dt != first.dt or s.t != first.t or not np.array_equal(s.incidence, first.incidence) for s in sims):
        raise ValueError("batched runs must share a flow layout, a dt and a clock")
    wx, n, capacity = (np.stack([getattr(sim, a) for sim in sims], -2)[..., None] for a in ("_wx", "n", "capacity"))
    step = _stepper(first.incidence, wx, n, capacity, np.array([sim.gain_norm for sim in sims])[:, None, None],
                    first.dt)[0]
    k = _steps(duration, first.dt)
    step(k)
    t = first.t + k * first.dt
    for sim, rates in zip(sims, wx[1, :, :, 0]):
        sim.x[:] = rates
        sim.t = t
