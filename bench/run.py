"""Run one workload of the overlaylab benchmark, check its outputs, print metrics.

From the root of a checkout:

    python3 bench/run.py --workload plan-threshold --seed 1 --seconds 16 --trace 0

The seed makes a fixed task list (one pass).  Its repeated tasks run
max(2, round(seconds / nominal pass time)) times, then each once-task runs
once, all in this single process.  ``--trace 0`` prints the end-to-end
metrics.  ``--trace 1`` runs one pass with overlaylab's public functions
wrapped, runs each repeated task once more untraced to measure the tracing
overhead, and prints the per-layer metrics.  Every output is checked.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record (task times,
failures, output digests, environment) goes to ``bench/out/``; a traced run
also writes its spans there.
"""
from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, Outcome, sha256

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # executions that must lie beyond the reported tail percentile


def import_overlaylab():
    """A fresh import of the package from this checkout's sources."""
    for name in [m for m in sys.modules if m == "overlaylab" or m.startswith("overlaylab.")]:
        del sys.modules[name]
    ol = importlib.import_module("overlaylab")
    if not Path(ol.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"overlaylab was imported from {ol.__file__}, not from {SRC}")
    return ol


def set_up(workload, seed: int):
    """Import the package afresh and build the workload's inputs."""
    ol = import_overlaylab()
    return ol, workload.setup(ol, seed)


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(ol) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "overlaylab": ol.__version__,
        "commit": git_commit(),
    }


def timed_call(fn):
    """(start, seconds, output, error) of one call; an exception is returned."""
    start = time.perf_counter()
    try:
        output = fn()
    except Exception as exc:  # recorded as a failed task; the run goes on
        return start, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return start, time.perf_counter() - start, output, None


class ReferenceClock:
    """Converts measured intervals to reference seconds, cancelling host speed.

    On a shared 2-core Xeon microVM a fixed Python loop's time varied with a
    23% coefficient of variation, and by up to 1.7x for stretches of seconds
    to minutes.  A fixed reference loop runs after every timed call: small
    numpy calls under interpreter dispatch, like the simulator's step, and
    rank-one updates of a simplex-tableau-sized array, like the LP's pivots.
    An interval is scaled by REF_S over the median reference time within
    WINDOW_S of it, which follows the host's speed but not one sample's
    jitter.  Scaling by the neighbouring samples of a loop of this kind cut
    the coefficient of variation of one demand-sweep point from 22% to 12%,
    and of one 0.8 s branch-and-bound solve from 19% to 11%.  Raw times are
    kept in the record.
    """

    REF_S = 0.015  # the reference loop's time at the reference speed
    WINDOW_S = 1.0

    def __init__(self):
        self._x = np.ones(8)
        self._tableau = np.zeros((64, 320))
        self._col = np.full(64, 1e-12)
        self._row = np.ones(320)
        self._mid: list[float] = []
        self._took: list[float] = []
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(2000):
            acc += float(np.sum(np.maximum(self._x * 1.0001, 0.5)))
        for _ in range(250):
            self._tableau -= np.outer(self._col, self._row)
        end = time.perf_counter()
        self._mid.append((start + end) / 2)
        self._took.append(end - start)

    def scaled(self, start: float, seconds: float) -> float:
        lo = bisect.bisect_left(self._mid, start - self.WINDOW_S)
        hi = bisect.bisect_right(self._mid, start + seconds + self.WINDOW_S)
        return seconds * self.REF_S / statistics.median(self._took[lo:hi])


def evaluate(task, output, error) -> Outcome:
    if error is not None:
        return Outcome(problems=[f"raised {error}"])
    try:
        return task.check(output)
    except Exception as exc:  # a check that cannot read the output fails it
        return Outcome(problems=[f"output check raised {type(exc).__name__}: {exc}"])


def run_tasks(tasks, passes, clock=None, tracer=None):
    """Run the repeated tasks ``passes`` times, then each once-task once.

    Every output is checked as it comes, and its digests are compared with the
    first pass.  With a clock, a reference sample follows each call.  Under a
    tracer each repeated task also runs untraced, first or second in turn,
    and the ratio of the two times is the tracing overhead.  Returns one
    record per execution, the digests and the overhead.
    """
    schedule = [(p, t) for p in range(passes) for t in tasks if not t.once]
    schedule += [(None, t) for t in tasks if t.once]
    records, digests = [], {}
    traced_total = plain_total = 0.0
    for task_id, (p, task) in enumerate(schedule):
        twin = tracer is not None and not task.once
        if twin and task_id % 2 == 0:
            plain_total += timed_call(task.run)[1]
        if tracer is None:
            start, raw, output, error = timed_call(task.run)
        else:
            tracer.task_id = task_id
            with tracer.installed():
                start, raw, output, error = timed_call(task.run)
        if twin and task_id % 2 == 1:
            plain_total += timed_call(task.run)[1]
        if twin:
            traced_total += raw
        if clock is not None:
            clock.sample()
        outcome = evaluate(task, output, error)
        del output
        for name, digest in outcome.digests.items():
            if digests.setdefault(f"{task.label}:{name}", digest) != digest:
                outcome.problems.append(f"{name} differs from the first pass")
        records.append({
            "task": task.label,
            "family": task.family,
            "pass": p,
            "start": start,
            "raw_seconds": raw,
            "problems": outcome.problems,
            "misses": outcome.misses,
        })
    overhead = traced_total / plain_total - 1.0 if plain_total else 0.0
    return records, digests, overhead


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten executions beyond it."""
    ranked = sorted(times, reverse=True)
    if len(ranked) <= TAIL_BEYOND:
        return ranked[0], 100.0
    return ranked[TAIL_BEYOND], 100.0 * (len(ranked) - TAIL_BEYOND) / len(ranked)


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def timed_run(workload, seed: int, passes: int):
    """End-to-end metrics in reference seconds; tracing off."""
    clock = ReferenceClock()
    setups = []
    for _ in range(SETUP_REPEATS):
        start, raw, built, error = timed_call(lambda: set_up(workload, seed))
        if error is not None:
            raise RuntimeError(f"set-up failed: {error}")
        clock.sample()
        setups.append((start, raw))
    ol, tasks = built
    workload.warmup(ol)
    records, digests, _ = run_tasks(tasks, passes, clock=clock)
    for r in records:
        r["seconds"] = clock.scaled(r["start"], r["raw_seconds"])
    timed = [r for r in records if r["pass"] is not None]
    times = [r["seconds"] for r in timed]
    pass_times = [sum(r["seconds"] for r in timed if r["pass"] == p) for p in range(passes)]
    setup_times = [clock.scaled(start, raw) for start, raw in setups]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(pass_times), "s"),
        "task_s.p50": metric(statistics.median(times), "s"),
        "task_s.tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "wall_s": f"median of {passes} passes",
        "task_s.p50": f"{len(times)} executions",
        "task_s.tail": f"p{tail_pct:.1f} of {len(times)} executions",
    }
    extra = {"setup_s": setup_times, "task_s.tail.percentile": tail_pct}
    return ol, records, digests, metrics, notes, extra


def traced_run(workload, seed: int, spans_path: Path):
    """Per-layer metrics from one traced pass; set-up is traced too."""
    ol = import_overlaylab()
    tracer = Tracer()
    with tracer.installed():
        tasks = workload.setup(ol, seed)
    workload.warmup(ol)
    records, digests, overhead = run_tasks(tasks, 1, tracer=tracer)
    for r in records:
        r["seconds"] = r["raw_seconds"]
    tracer.save(spans_path)
    return ol, records, digests, layer_metrics(tracer, overhead), {}, {"spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "overlaylab" / "__init__.py").is_file():
        print(f"error: no overlaylab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        passes = 1
        ol, records, digests, metrics, notes, extra = traced_run(
            workload, args.seed, stem.with_suffix(".spans.npz"))
    else:
        passes = max(2, round(args.seconds / workload.pass_seconds))
        ol, records, digests, metrics, notes, extra = timed_run(workload, args.seed, passes)

    attempted = len(records)
    failed = sum(1 for r in records if r["problems"] or r["misses"])
    correct = not any(r["problems"] for r in records)
    digest = sha256("".join(f"{key} {value}\n" for key, value in digests.items()))
    env = environment(ol)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "environment": env,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "correct": correct, **extra,
        "digest": digest, "digests": digests, "tasks": records,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} passes={passes}"
        f" executions={attempted} nproc={env['nproc']} cpu={env['cpu']!r}"
        f" python={env['python']} numpy={env['numpy']} commit={env['commit']}"
    )
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:<14.6g} {m['unit']:<6} {notes.get(name, '')}")
    print(f"  {'fail_frac':<40} {failed / attempted:<14.6g} {'ratio':<6} {failed} of {attempted} executions")
    print(f"  {'digest':<40} {digest}  (sha256 of every output of the first pass)")
    print(f"  {'record':<40} {stem.with_suffix('.json').relative_to(ROOT)}")
    for r in records:
        for reason in r["problems"] + r["misses"]:
            print(f"failed: {r['task']}: {reason}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
