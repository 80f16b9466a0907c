"""lef benchmark: time to verdict on three campaigns, run from the repo root.

    python3 benchmark/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload words --seed 1 --seconds 40 --trace 1
    python3 benchmark/run.py --steady 5            # spread of every metric
    python3 benchmark/run.py --all --seed 1        # verify, tables and words

Each run starts one worker at a time (worker.py), each a fresh interpreter
that sets up the workload and runs its whole job list, so lef's caches start
cold as they do for a user of the CLI.  An untraced run repeats this until
--seconds would be exceeded and reports medians of the end-to-end metrics;
a few extra workers only set up, for a steadier setup_s.  A traced run
(--trace 1) runs the job list once untraced and once with timing wrappers
around lef's public functions, reports the per-layer metrics and the tracing
overhead, and writes the spans to .bench_out/.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics (the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer ones with --trace 1).  The run exits nonzero when any job
raised or gave a wrong answer, when exact counts differ between workers, or
when lef's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import VERDICT_KEYS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SPANS_DIR = ROOT / ".bench_out"
WORKLOADS = ("verify", "tables", "words")
SETUP_REPEATS = 5       # set-up-only workers per untraced run
RUN_BUDGET_S = 170      # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, *, setup_only=False, spans=None) -> dict:
    """Run one worker to completion; timestamps are on the monotonic clock."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if spans:
        cmd += ["--spans", str(spans)]
    # the seed also fixes string hashing, so set and dict orders repeat
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 4_294_967_296))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker passed the {RUN_BUDGET_S} s run budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["started"] = started
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _verdicts(workers: list[dict]) -> tuple[int, int, list[str]]:
    """attempted, failed and problems, including counts that differ between
    workers of one run (same seed, so they must repeat exactly)."""
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(len(w["failures"]) for w in workers)
    problems = [f"{f['job']}: {f['problem']}" for w in workers for f in w["failures"]]
    if any(w["counts"] != workers[0]["counts"] for w in workers):
        problems.append(f"exact counts differ between workers: {[w['counts'] for w in workers]}")
    return attempted, failed, problems


def query_percentiles(worker: dict) -> tuple[float, float]:
    """p50 and p90 of the eq stream's per-query latency, in ms."""
    q = worker["query_seconds"]
    return 1e3 * statistics.median(q), 1e3 * statistics.quantiles(q, n=10)[8]


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics


def loop_walls(workers: list[dict]) -> list[float]:
    """Each worker's job-list time in loops of worker.Gauge: every job's
    seconds divided by the loop's mean time around that job."""
    return [sum(t / g for t, g in zip(w["seconds"], w["gauge"])) for w in workers]


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    workers = []
    while True:
        workers.append(spawn(workload, seed, deadline))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(workers) > seconds:
            break
    setups = [w["setup_end"] - w["started"] for w in workers]
    for _ in range(SETUP_REPEATS):
        w = spawn(workload, seed, deadline, setup_only=True)
        setups.append(w["setup_end"] - w["started"])

    attempted, failed, problems = _verdicts(workers)
    # name -> (unit, samples); BENCHMARK.json picks its own
    samples = {
        "wall_loops": ("loops", loop_walls(workers)),
        "wall_s": ("s", [w["done"] - w["started"] for w in workers]),
        "setup_s": ("s", setups),
        "peak_rss_mb": ("MB", [w["rss_kb"] / 1024 for w in workers]),
        "failed_ratio": ("ratio", [failed / attempted]),
    }
    if workers[0]["queries"]:
        p50, p90 = zip(*(query_percentiles(w) for w in workers))
        samples["query_p50_ms"] = ("ms", list(p50))
        samples["query_p90_ms"] = ("ms", list(p90))
        samples["undecided_ratio"] = ("ratio", [w["counts"]["undecided"] / w["queries"]
                                                for w in workers])
    return {"workload": workload, "seed": seed, "workers": len(workers),
            "queries": workers[0]["queries"], "attempted": attempted, "failed": failed,
            "problems": problems, "samples": samples,
            "job_seconds": workers[0]["job_seconds"]}


# ---------------------------------------------------------------------------
# traced run: per-layer metrics


def layer_metrics(traced: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of BENCHMARK.json, in its order.

    Self time is given as a share of the traced job list (unit %), so a layer
    that a workload leaves idle reads 0 rather than a time.  Rates divide a
    count by the inclusive time of the call that does the work, so they
    include the tracing cost of the calls below it.
    """
    fns = traced["trace"]["functions"]
    counts = traced["trace"]["counts"]
    job_s = fns["job"]["incl_s"]

    def calls(fn):
        return fns[fn]["calls"], "count"

    def share(fn):
        return 100 * fns[fn]["self_s"] / job_s, "%"

    def rate(count, *fn_names):
        seconds = sum(fns[f]["incl_s"] for f in fn_names)
        return (count / seconds if seconds > 0 else 0.0), "1/s"

    def count(key):
        return counts.get(key, 0), "count"

    m = {}
    for fn in ("normal_form", "reduce_once", "enumerate_redexes"):
        m[f"rewrite.{fn}.calls"] = calls(f"rewrite.{fn}")
        m[f"rewrite.{fn}.self_pct"] = share(f"rewrite.{fn}")
    m["rewrite.critical_pairs.pairs"] = count("rewrite.critical_pairs.pairs")
    m["rewrite.critical_pairs.self_pct"] = share("rewrite.critical_pairs")
    m["rewrite.check_local_confluence.self_pct"] = share("rewrite.check_local_confluence")
    m["rewrite.nf_letters_per_s"] = rate(counts.get("rewrite.nf_letters", 0),
                                         "rewrite.normal_form")
    m["appendix.check_row.calls"] = calls("appendix.check_row")
    m["appendix.check_row.self_pct"] = share("appendix.check_row")
    m["appendix.instances"] = count("appendix.instances")
    m["appendix.rows_per_s"] = rate(fns["appendix.check_row"]["calls"], "appendix.check_row")
    m["fsg.enumerate_semigroups.self_pct"] = share("fsg.enumerate_semigroups")
    m["fsg.enumerate_groups.self_pct"] = share("fsg.enumerate_groups")
    m["fsg.check_implication.calls"] = calls("fsg.check_implication")
    m["fsg.check_implication.self_pct"] = share("fsg.check_implication")
    m["fsg.classes_per_s"] = rate(counts.get("fsg.classes", 0),
                                  "fsg.enumerate_semigroups", "fsg.enumerate_groups")
    m["search.embed_partial_table.calls"] = calls("search.embed_partial_table")
    m["search.embed_partial_table.self_pct"] = share("search.embed_partial_table")
    m["search.decisions"] = count("search.decisions")
    m["search.decisions_per_s"] = rate(counts.get("search.decisions", 0),
                                       "search.embed_partial_table")
    for fn in ("word_equal_bfs", "word_equal_nf", "one_step_words"):
        m[f"oracle.{fn}.calls"] = calls(f"oracle.{fn}")
        m[f"oracle.{fn}.self_pct"] = share(f"oracle.{fn}")
    m["oracle.explored"] = count("oracle.explored")
    for key in VERDICT_KEYS + ("other",):
        m[f"oracle.verdicts.{key}"] = count(f"oracle.verdicts.{key}")
    queries = traced["queries"]
    m["oracle.undecided_ratio"] = (traced["counts"]["undecided"] / queries if queries
                                   else 0.0), "ratio"
    for fn in ("conserved_vector", "separating_quantity"):
        m[f"words.{fn}.calls"] = calls(f"words.{fn}")
        m[f"words.{fn}.self_pct"] = share(f"words.{fn}")
    m["lwf.enumerate_preaccurate.calls"] = calls("lwf.enumerate_preaccurate")
    for fn in ("enumerate_preaccurate", "fallback_element", "sm_ideal_quotient",
               "build_lwf_wrapping"):
        m[f"lwf.{fn}.self_pct"] = share(f"lwf.{fn}")
    m["lwf.preaccurate_words"] = count("lwf.preaccurate_words")
    m["constructors.quotient_by_length_ideal.self_pct"] = \
        share("constructors.quotient_by_length_ideal")
    m["constructors.build_fn.calls"] = calls("constructors.build_fn")
    m["approx.check_lwf_wrapping.self_pct"] = share("approx.check_lwf_wrapping")
    traced_wall = traced["done"] - traced["started"]
    untraced_wall = untraced["done"] - untraced["started"]
    m["trace.spans"] = traced["trace"]["spans"], "count"
    m["trace.wall_s"] = traced_wall, "s"
    m["trace.untraced_wall_s"] = untraced_wall, "s"
    m["trace.overhead_s"] = traced_wall - untraced_wall, "s"
    return m


def run_traced(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    untraced = spawn(workload, seed, deadline)
    spans = SPANS_DIR / f"spans-{workload}-seed{seed}.npz"
    traced = spawn(workload, seed, deadline, spans=spans)
    attempted, failed, problems = _verdicts([untraced, traced])
    return {"workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
            "problems": problems, "layers": layer_metrics(traced, untraced),
            "functions": traced["trace"]["functions"], "spans_file": spans}


# ---------------------------------------------------------------------------
# reports


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_untraced(r: dict) -> None:
    print(f"workload {r['workload']}  seed {r['seed']}  {r['workers']} worker(s), one at a "
          f"time, fresh interpreter each; {r['attempted']} jobs attempted, {r['failed']} failed"
          + (f"; {r['queries']} eq queries per worker" if r["queries"] else ""))
    print(f"  {'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}")
    for name, (unit, values) in r["samples"].items():
        q1, med, q3 = _quartiles(values)
        print(f"  {name:<16}{unit:<7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{len(values):>4}")
    print("  job seconds (first worker): " + ", ".join(
        f"{k} {v:.2f}" for k, v in r["job_seconds"].items()))
    for p in r["problems"]:
        print(f"  FAILED {p}")


def print_traced(r: dict) -> None:
    fns = r["functions"]
    job_s = fns["job"]["incl_s"]
    print(f"workload {r['workload']}  seed {r['seed']}  traced; spans in {r['spans_file']}")
    print(f"  {'function':<40}{'calls':>10}{'self_s':>10}{'self %':>8}{'incl_s':>10}")
    for name, f in fns.items():
        if f["calls"] and name != "job":
            print(f"  {name:<40}{f['calls']:>10}{f['self_s']:>10.3f}"
                  f"{100 * f['self_s'] / job_s:>8.1f}{f['incl_s']:>10.3f}")
    L = r["layers"]
    print(f"  tracing overhead {L['trace.overhead_s'][0]:+.3f} s: traced wall "
          f"{L['trace.wall_s'][0]:.3f} s vs untraced {L['trace.untraced_wall_s'][0]:.3f} s")
    for p in r["problems"]:
        print(f"  FAILED {p}")


def _result_line(r: dict, measured: dict[str, tuple[float, str]], wanted: list[dict]) -> dict:
    """The JSON result: the metrics BENCHMARK.json names, in its order."""
    metrics = {}
    for m in wanted:
        value, unit = measured.get(m["name"], (None, None))
        if unit != m["unit"]:
            raise BenchError(f"metric {m['name']} ({m['unit']}) is not measured here")
        metrics[m["name"]] = {"value": value, "unit": unit}
    return {"correct": not r["problems"], "attempted": r["attempted"],
            "failed": r["failed"], "metrics": metrics}


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    spec = _spec()
    if trace:
        r = run_traced(workload, seed)
        print_traced(r)
        line = _result_line(r, r["layers"], spec["per_layer"])
    else:
        r = run_untraced(workload, seed, seconds)
        print_untraced(r)
        medians = {name: (statistics.median(values), unit)
                   for name, (unit, values) in r["samples"].items()}
        line = _result_line(r, medians, spec["end_to_end"])
    print(json.dumps(line), flush=True)
    return line


# ---------------------------------------------------------------------------
# steadiness self-check


def steady(workloads, seed: int, seconds: float, repeats: int) -> bool:
    """Repeat each workload with seeds seed, seed+1, ... and report the spread
    (q3 - q1) / median of every end-to-end metric against its bound; then run
    two traced runs with the same seed and require every per-layer count to
    repeat exactly."""
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        runs = [run_untraced(workload, seed + i, seconds) for i in range(repeats)]
        print(f"steadiness {workload}: {repeats} runs, seeds {seed}..{seed + repeats - 1}")
        print(f"  {'metric':<16}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}")
        for name, (unit, _) in runs[0]["samples"].items():
            values = [statistics.median(r["samples"][name][1]) for r in runs]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound:
                flag, ok = "  OVER BOUND", False
            print(f"  {name:<16}{unit:<7}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.4f}"
                  f"{'' if bound is None else bound:>7}{flag}")
        problems = [p for r in runs for p in r["problems"]]
        traced = [run_traced(workload, seed) for _ in range(2)]
        exact = [{k: v for k, (v, unit) in t["layers"].items() if unit in ("count", "ratio")}
                 for t in traced]
        problems += [p for t in traced for p in t["problems"]]
        if exact[0] != exact[1]:
            diff = {k: (exact[0][k], exact[1][k]) for k in exact[0] if exact[0][k] != exact[1][k]}
            problems.append(f"exact counts differ between traced runs: {diff}")
        else:
            print(f"  exact counts identical in two traced runs (seed {seed}): "
                  f"{sum(1 for v in exact[0].values() if v)} nonzero of {len(exact[0])}")
        overheads = [t["layers"]["trace.overhead_s"][0] for t in traced]
        print(f"  tracing overhead: {', '.join(f'{o:+.3f} s' for o in overheads)}")
        for p in problems:
            print(f"  FAILED {p}")
        ok = ok and not problems
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time of one untraced run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="REPEATS",
                   help="repeat each workload and report the spread of every metric")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "lef" / "__init__.py").is_file():
        print(f"lef sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not (args.all or args.steady):
        p.error("give --workload, --all or --steady")
    seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    try:
        if args.steady:
            return 0 if steady(workloads, args.seed, seconds, args.steady) else 1
        results = [bench(w, args.seed, seconds, bool(args.trace)) for w in workloads]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r["correct"] and not r["failed"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
