"""One benchmark worker: a fresh interpreter that sets up one workload, runs
its job list once and prints one JSON object on its last line.

run.py starts one worker at a time.  Set-up ends when lef (with lef.cli and
numpy) is imported and the workload's systems, presentations and seeded
inputs are built; the worker reports that moment and the moment the job list
is done on the system-wide monotonic clock, so the parent can measure from
the moment it started the interpreter.  Answers are checked after the timed
region, and with tracing on, after the wrappers are removed.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_lef():
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import lef
    import lef.cli  # noqa: F401  (imports every lef module)
    if not Path(lef.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"lef imported from {lef.__file__}, not from {SRC}")


class Gauge:
    """A clock that runs at the host's current speed of pure Python.

    Other tenants of the host slow pure-Python work by up to 2x, for seconds
    to minutes at a time, so the wall time of one job list spreads by 30% or
    more between runs.  Every PERIOD_S seconds a SIGALRM handler times a
    fixed loop (the faster of two runs), in the same thread as lef and so at
    the same speed.  A job's time divided by the mean loop time around it is
    the job's time in loops, which the host's slow stretches mostly cancel
    out of.  The handler's own time is kept in `spent`, so that it can be
    taken out of the jobs' times.
    """

    PERIOD_S = 0.2

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (when, loop seconds)
        self.spent = 0.0

    @staticmethod
    def loop() -> float:
        start = time.perf_counter()
        counts, word = {}, "abcabbaccb" * 6
        for i in range(4_000):
            key = word[i % 50:i % 50 + 4]
            counts[key] = counts.get(key, 0) + i
        return time.perf_counter() - start

    def sample(self, *_) -> None:
        start = time.perf_counter()
        best = min(self.loop(), self.loop())
        end = time.perf_counter()
        self.samples.append((end, best))
        self.spent += end - start

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def around(self, start: float, end: float) -> float:
        """Mean loop time over [start, end], with the samples just before
        and just after it."""
        when = [t for t, _ in self.samples]
        lo = max(bisect.bisect_left(when, start) - 1, 0)
        hi = bisect.bisect_right(when, end) + 1
        window = [d for _, d in self.samples[lo:hi]]
        return sum(window) / len(window)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="trace the job list and write its spans here")
    args = p.parse_args()

    _import_lef()
    import jobs as workloads
    job_list = workloads.WORKLOADS[args.workload](args.seed)
    setup_end = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    outcomes, spans = [], []
    gauge = Gauge()
    gauge.start()
    for job in job_list:
        with tracer.job(job.name) if tracer else nullcontext():
            start, spent = time.perf_counter(), gauge.spent
            try:
                result, error = job.run(), None
            except Exception:  # a failed job is counted, the rest still run
                result, error = None, "raised " + traceback.format_exc(limit=-3)
            end = time.perf_counter()
        outcomes.append((job, result, error, end - start - (gauge.spent - spent)))
        spans.append((start, end))
    gauge.stop()
    done = time.monotonic()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()

    failures, counts = [], Counter()
    queries, undecided, query_seconds = 0, 0, []
    for job, result, error, seconds in outcomes:
        problem = error
        if problem is None:
            try:
                problem = job.check(result)
            except Exception:
                problem = "check raised " + traceback.format_exc(limit=-3)
        if problem is not None:
            failures.append({"job": job.name, "problem": problem})
        elif job.tally is not None:
            job.tally(result, counts)
        if job.query:
            queries += 1
            query_seconds.append(seconds)
            undecided += error is None and result.status == "unknown"
    counts["undecided"] = undecided

    out = {
        "setup_end": setup_end,
        "done": done,
        "rss_kb": rss_kb,
        "attempted": len(outcomes),
        "failures": failures,
        "queries": queries,
        "query_seconds": query_seconds,
        "counts": dict(counts),
        "job_seconds": {job.name: s for job, _, _, s in outcomes if not job.query},
        "seconds": [s for _, _, _, s in outcomes],
        "gauge": [gauge.around(a, b) for a, b in spans],
    }
    if tracer:
        out["trace"] = tracer.summary()
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
