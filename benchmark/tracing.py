"""Timing wrappers around lef's public functions, for the traced run.

Each wrapper records one span (name, start, end, parent span, job) per call.
Spans are kept in flat arrays, a few dozen bytes each, because the hot
functions (``reduce_once``, ``conserved_vector``, ``one_step_words``) are
called hundreds of thousands of times per job list.  Self time is derived
afterwards by subtracting the child spans from each span.

A function imported by name into another module (``from .oracle import
word_equal_bfs`` in ``lwf``) is bound in both namespaces, so a wrapper is
installed in every ``lef`` module that binds the original object.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# layer -> public functions wrapped.  presets and cli do their work at import
# and are covered by setup_s.
TARGETS = {
    "rewrite": ("normal_form", "reduce_once", "enumerate_redexes", "critical_pairs",
                "check_local_confluence", "check_termination_order"),
    "appendix": ("check_row", "verify_appendix"),
    "fsg": ("enumerate_semigroups", "enumerate_groups", "check_implication"),
    "search": ("embed_partial_table",),
    "oracle": ("word_equal_bfs", "word_equal_nf", "one_step_words"),
    "words": ("conserved_vector", "separating_quantity"),
    "lwf": ("enumerate_preaccurate", "fallback_element", "sm_ideal_quotient",
            "build_lwf_wrapping"),
    "constructors": ("quotient_by_length_ideal", "build_fn"),
    "approx": ("check_lwf_wrapping",),
}

VERDICT_KEYS = ("equal.path", "equal.normal_form", "distinct.invariant",
                "distinct.closure", "distinct.normal_form", "unknown.bound")


def _verdict(args, result, counts: Counter) -> None:
    key = f"{result.status}.{result.evidence.get('kind')}"
    counts[f"oracle.verdicts.{key}" if key in VERDICT_KEYS else "oracle.verdicts.other"] += 1
    counts["oracle.explored"] += result.evidence.get("explored", 0)


# counts read from arguments or results at the same boundary
OBSERVE = {
    "rewrite.normal_form": lambda a, r, c: c.update({"rewrite.nf_letters": len(a[1])}),
    "rewrite.critical_pairs": lambda a, r, c: c.update({"rewrite.critical_pairs.pairs": len(r)}),
    "appendix.check_row": lambda a, r, c: c.update({"appendix.instances": r.distinct}),
    "fsg.enumerate_semigroups": lambda a, r, c: c.update({"fsg.classes": len(r)}),
    "fsg.enumerate_groups": lambda a, r, c: c.update({"fsg.classes": len(r)}),
    "search.embed_partial_table": lambda a, r, c: c.update({"search.decisions": r.explored}),
    "oracle.word_equal_bfs": _verdict,
    "oracle.word_equal_nf": _verdict,
    "lwf.enumerate_preaccurate": lambda a, r, c: c.update({"lwf.preaccurate_words": len(r.words)}),
}


class Tracer:
    JOB = 0     # name id of the root span around each job

    def __init__(self):
        self.names = ["job"] + [f"{layer}.{fn}" for layer, fns in TARGETS.items()
                                for fn in fns]
        self.jobs: list[str] = []
        self.counts: Counter = Counter()
        self._name = array("H")
        self._parent = array("q")
        self._job = array("H")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._current_job = [0]
        self._restore: list[tuple] = []

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._job.append(self._current_job[0])
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name_id: int, fn, observe):
        open_, close, counts = self._open, self._close, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if observe is not None:
                observe(args, result, counts)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lef" or name.startswith("lef.")]
        for name_id, qualified in enumerate(self.names[1:], start=1):
            layer, fn_name = qualified.split(".")
            original = getattr(sys.modules[f"lef.{layer}"], fn_name)
            wrapper = self._wrap(name_id, original, OBSERVE.get(qualified))
            for module in modules:
                for attr in [k for k, v in vars(module).items() if v is original]:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    @contextmanager
    def job(self, label: str):
        self._current_job[0] = len(self.jobs)
        self.jobs.append(label)
        idx = self._open(self.JOB)
        try:
            yield
        finally:
            self._close(idx)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.uint16),
            "parent": np.frombuffer(self._parent, dtype=np.int64),
            "job": np.frombuffer(self._job, dtype=np.uint16),
            "start": np.frombuffer(self._start, dtype=np.float64),
            "end": np.frombuffer(self._end, dtype=np.float64),
        }

    def summary(self) -> dict:
        """Per function: calls, self seconds and inclusive seconds."""
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        self_time = duration - child
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self_time, minlength=k)
        incl_s = np.bincount(a["name"], weights=duration, minlength=k)
        return {
            "functions": {name: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                                 "incl_s": float(incl_s[i])}
                          for i, name in enumerate(self.names)},
            "counts": dict(self.counts),
            "spans": int(len(duration)),
        }

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), jobs=np.array(self.jobs),
                            **self.arrays())
