"""The three workloads: their inputs, job lists and known answers.

A workload is a function ``build(seed) -> list[Job]``.  Calling it is part of
set-up: it builds the rewriting systems, presentations and partial tables the
jobs need and generates the seeded inputs.  It never calls a cached lef
function, so ``build_fn``'s cache and the oracle's memo start empty when the
first job runs, as they do for a user of the CLI.

Every job calls lef through module attributes (``rewrite.normal_form``, not a
name imported from it), so the traced run's wrappers see these calls too.
A job's ``check`` gets the job's result and returns None when the answer is
right, otherwise a one-line reason.  Checks run after the timed region.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from lef import appendix, approx, fsg, lwf, oracle, presets, rewrite, search


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # eq queries are timed one by one for the latency percentiles
    query: bool = False
    # exact counts read from the result, e.g. search decisions
    tally: Callable[[object, Counter], None] | None = None


# ---------------------------------------------------------------------------
# verify: rewriting verification campaign


def _appendix_check(instantiable: int, empty: set[str] | None):
    def check(report) -> str | None:
        if not report.all_joined:
            return f"rows not joined: {report.rows_failed}"
        if report.rows_instantiable != instantiable:
            return f"{report.rows_instantiable} rows instantiable, expected {instantiable}"
        if empty is not None and set(report.rows_empty) != empty:
            return f"empty rows {sorted(report.rows_empty)}, expected {sorted(empty)}"
        return None
    return check


def _appendix_tally(report, counts: Counter) -> None:
    counts["appendix.instances"] += sum(r.distinct for r in report.rows)


def _confluence_check(pairs: int):
    def check(report) -> str | None:
        if report.total != pairs:
            return f"{report.total} critical pairs, expected {pairs}"
        if report.unresolved or report.resolved != pairs:
            return f"{len(report.unresolved)} critical pairs unresolved"
        return None
    return check


def _termination_check(instances: int):
    def check(report) -> str | None:
        if report.checked != instances:
            return f"{report.checked} instances, expected {instances}"
        if report.shortlex_violations:
            return f"{len(report.shortlex_violations)} shortlex violations"
        return None
    return check


def verify(seed: int) -> list[Job]:
    """Fixed inputs: the seed is not used."""
    q = presets.Q_SYSTEM
    f1, f2 = presets.build_fn_system(1), presets.build_fn_system(2)
    jobs = [
        Job("appendix A", lambda: appendix.verify_appendix("A", max_exp=4),
            _appendix_check(26, set()), tally=_appendix_tally),
        Job("appendix B n=1", lambda: appendix.verify_appendix("B", n=1, max_exp=4),
            _appendix_check(91, None), tally=_appendix_tally),
        Job("appendix B n=2", lambda: appendix.verify_appendix("B", n=2, max_exp=4),
            _appendix_check(123, {"B5", "B15"}), tally=_appendix_tally),
        Job("confluence Q bound 3", lambda: rewrite.check_local_confluence(q, 3),
            _confluence_check(5986)),
        Job("confluence fn:2 bound 2", lambda: rewrite.check_local_confluence(f2, 2),
            _confluence_check(1056)),
    ]
    for name, system, instances in (("Q", q, 211), ("F_1", f1, 59), ("F_2", f2, 290)):
        jobs.append(Job(f"termination {name} bound 4",
                        lambda system=system: rewrite.check_termination_order(system, 4),
                        _termination_check(instances)))
    return jobs


# ---------------------------------------------------------------------------
# tables: finite-table search


SEMIGROUPS = [1, 5, 24, 188]        # OEIS A027851, orders 1-4
J_TRIVIAL = [1, 2, 9, 60]
GROUPS = [1, 1, 1, 2, 1, 2]         # orders 1-6
PQ_DECISIONS = 100_659              # {p,q}, pq=q, qp=p, up to order 5
BICYCLIC_DECISIONS = 351            # bicyclic4 up to order 6


def _counts_check(expected: list[int]):
    def check(tables_by_order) -> str | None:
        got = [len(t) for t in tables_by_order]
        return None if got == expected else f"counts {got}, expected {expected}"
    return check


def _negative_check(decisions: int):
    def check(result) -> str | None:
        if result.status != "not_embeddable_up_to_bound" or result.witness is not None:
            return f"status {result.status}, expected not_embeddable_up_to_bound"
        if result.explored != decisions:
            return f"{result.explored} decisions, expected {decisions}"
        return None
    return check


def _search_tally(result, counts: Counter) -> None:
    counts["search.decisions"] += result.explored


def tables(seed: int) -> list[Job]:
    """Fixed inputs: the seed is not used."""
    found: dict[str, list] = {}
    pq = fsg.PartialTable(elements=("p", "q"),
                          products={("p", "q"): "q", ("q", "p"): "p"})
    bicyclic = presets.bicyclic4_table()
    rel = {p: list(presets.PRESENTATIONS[p].relations) for p in ("c", "q", "s", "t")}

    def enumerate_into(key: str, make: Callable[[int], list], orders: range):
        def run():
            found[key] = [make(k) for k in orders]
            return found[key]
        return run

    def sweep() -> list:
        """The implication sweeps of acceptance criteria 6, 7 and 8."""
        flat = {key: [mt for tables in found[key] for mt in tables] for key in found}
        cases = [(g, rel["c"], [("cu", "dv")]) for g in flat["groups"]]
        cases += [(mt, rel["q"], [("xax", "xex")]) for mt in flat["j_trivial"]]
        cases += [(mt, rel[p], [("xaxb", "bxax"), ("xax", "xex")])
                  for p in ("s", "t") for mt in flat["semigroups"]]
        return [cx for mt, premises, conclusions in cases
                if (cx := fsg.check_implication(mt, premises, conclusions)) is not None]

    sweep_size = sum(GROUPS) + sum(J_TRIVIAL) + 2 * sum(SEMIGROUPS)
    return [
        Job("enumerate semigroups 1-4",
            enumerate_into("semigroups", lambda k: fsg.enumerate_semigroups(k),
                           range(1, 5)),
            _counts_check(SEMIGROUPS)),
        Job("enumerate j-trivial 1-4",
            enumerate_into("j_trivial", lambda k: fsg.enumerate_semigroups(
                k, filter=fsg.is_j_trivial), range(1, 5)),
            _counts_check(J_TRIVIAL)),
        Job("enumerate groups 1-6",
            enumerate_into("groups", lambda k: fsg.enumerate_groups(k), range(1, 7)),
            _counts_check(GROUPS)),
        Job(f"check_implication sweep ({sweep_size} tables)", sweep,
            lambda cx: None if not cx else f"{len(cx)} counterexamples"),
        Job("embed {p,q} j_trivial <= 5",
            lambda: search.embed_partial_table(pq, 5, "j_trivial"),
            _negative_check(PQ_DECISIONS), tally=_search_tally),
        Job("embed {p,q} clifford <= 5",
            lambda: search.embed_partial_table(pq, 5, "clifford"),
            _negative_check(PQ_DECISIONS), tally=_search_tally),
        Job("embed bicyclic4 <= 6",
            lambda: search.embed_partial_table(bicyclic, 6),
            _negative_check(BICYCLIC_DECISIONS), tally=_search_tally),
    ]


# ---------------------------------------------------------------------------
# words: wrappings and a seeded stream of eq queries

# The stream's mix.  A cheap BFS query (separated by an invariant) takes about
# 0.04 ms, a normal-form query milliseconds.  With 20% normal-form queries and
# 65% random BFS pairs, p90 sits inside the normal-form block and p50 inside
# the cheap block, away from the boundary between them.
NF_WALK = 12        # per preset (q, fn:2): random word vs a random walk from it
NF_RANDOM = 8       # per preset: two independent random words
BFS_WALK = 10       # per preset (t, s, c)
BFS_RANDOM = 43     # per preset
UNDECIDED = (("t", "bxax", "xex"), ("s", "axc", "acx"), ("s", "bax", "acx"))
BFS_NODE_BOUND = 20_000

WRAPPINGS = (("t", 259), ("s", 5655))   # preset, carrier order at n = 1


def random_word(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(rng.choice(alphabet) for _ in range(length))


def balanced_word(rng: random.Random, alphabet: str, length: int) -> str:
    """A word using every letter equally often (up to one), in seeded order.
    A normal form's cost depends strongly on the letter content, so fixing
    the content keeps the stream's work nearly the same from seed to seed."""
    letters = [alphabet[i % len(alphabet)] for i in range(length)]
    rng.shuffle(letters)
    return "".join(letters)


def spread(lo: int, hi: int, count: int) -> list[int]:
    """count integers evenly spaced over [lo, hi].  Lengths and walk sizes are
    spaced rather than drawn, so the stream's total work hardly depends on the
    seed; the seed picks the letters, the moves and the order."""
    return [lo + round((hi - lo) * i / max(1, count - 1)) for i in range(count)]


def random_walk(rng: random.Random, w: str, relations, steps: int) -> str:
    """Apply `steps` random relation applications, in either direction."""
    for _ in range(steps):
        moves = []
        for left, right in relations:
            for big, small in ((left, right), (right, left)):
                pos = w.find(big)
                while pos >= 0:
                    moves.append((pos, big, small))
                    pos = w.find(big, pos + 1)
        if not moves:
            break
        pos, big, small = rng.choice(moves)
        w = w[:pos] + small + w[pos + len(big):]
    return w


def _wrapping_job(preset: str, order: int) -> Job:
    generators = presets.PRESENTATIONS[preset].generators

    def run():
        wrap = lwf.build_lwf_wrapping(preset, generators, 1)
        subset = approx.subset_from_words(preset, generators)
        return wrap, approx.check_lwf_wrapping(subset, wrap)

    def check(result) -> str | None:
        wrap, verdict = result
        if not verdict.valid:
            return f"check_lwf_wrapping: {verdict.reason}"
        if wrap.D.order != order:
            return f"carrier of order {wrap.D.order}, expected {order}"
        return None
    return Job(f"lwf wrapping {preset} n=1", run, check)


def _eq_check(preset: str, must_equal: bool, may_be_distinct: bool):
    """Every equal verdict with a path must replay; walk pairs are never
    distinct, and normal-form walk pairs are always equal."""
    def check(verdict) -> str | None:
        if verdict.status not in ("equal", "distinct", "unknown"):
            return f"status {verdict.status!r}"
        if must_equal and verdict.status != "equal":
            return f"walk pair answered {verdict.status}"
        if not may_be_distinct and verdict.status == "distinct":
            return f"walk pair answered distinct ({verdict.evidence.get('kind')})"
        if verdict.status == "equal" and verdict.evidence.get("kind") == "path":
            if not oracle.replay_path(preset, verdict.evidence["path"]):
                return "equality path does not replay"
        return None
    return check


def _eq_job(preset: str, u: str, v: str, *, nf: bool, walk: bool) -> Job:
    if nf:
        run = lambda: oracle.word_equal_nf(preset, u, v)  # noqa: E731
    else:
        run = lambda: oracle.word_equal_bfs(preset, u, v, node_bound=BFS_NODE_BOUND)  # noqa: E731
    kind = ("nf" if nf else "bfs") + (" walk" if walk else "")
    return Job(f"eq {preset} {kind} {u} {v}", run,
               _eq_check(preset, must_equal=walk and nf, may_be_distinct=not walk),
               query=True)


def eq_stream(seed: int) -> list[Job]:
    """The seeded query stream, in a seeded order."""
    rng = random.Random(seed)
    q_relations = presets.PRESENTATIONS["q"].relations
    jobs = []
    # F_2 is a quotient of Q, so Q's relations also hold in fn:2
    for preset in ("q", "fn:2"):
        for length, steps in zip(spread(10, 60, NF_WALK), spread(3, 10, NF_WALK)):
            u = balanced_word(rng, "acebx", length)
            jobs.append(_eq_job(preset, u, random_walk(rng, u, q_relations, steps),
                                nf=True, walk=True))
        lengths = spread(10, 60, NF_RANDOM)
        for m, n in zip(lengths, reversed(lengths)):
            jobs.append(_eq_job(preset, balanced_word(rng, "acebx", m),
                                balanced_word(rng, "acebx", n), nf=True, walk=False))
    for preset in ("t", "s", "c"):
        pres = presets.PRESENTATIONS[preset]
        alphabet = "".join(pres.generators)
        for length, steps in zip(spread(3, 7, BFS_WALK), spread(1, 4, BFS_WALK)):
            u = random_word(rng, alphabet, length)
            jobs.append(_eq_job(preset, u, random_walk(rng, u, pres.relations, steps),
                                nf=False, walk=True))
        lengths = spread(3, 8, BFS_RANDOM)
        for m, n in zip(lengths, reversed(lengths)):
            jobs.append(_eq_job(preset, random_word(rng, alphabet, m),
                                random_word(rng, alphabet, n), nf=False, walk=False))
    for preset, u, v in UNDECIDED:
        if rng.random() < 0.5:
            u, v = v, u
        jobs.append(_eq_job(preset, u, v, nf=False, walk=False))
    rng.shuffle(jobs)
    return jobs


def words(seed: int) -> list[Job]:
    return [_wrapping_job(p, order) for p, order in WRAPPINGS] + eq_stream(seed)


WORKLOADS = {"verify": verify, "tables": tables, "words": words}
