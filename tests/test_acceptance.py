"""Acceptance suite: eleven criteria, one test and one printed PASS/FAIL line
each (run with `pytest tests/test_acceptance.py -v -s` to see the lines).

Each test pins its tolerances (time budgets in seconds, exhaustive counts) in
the assertions themselves.  Frozen counts (next to the checks) are exact and
deterministic; they guard against silent regressions of the underlying
machinery.
"""

import itertools
import random
import time
from collections import defaultdict

import numpy as np

from conftest import (
    all_words,
    random_rees_instance,
    random_semilattice_instance,
)

from lef.appendix import verify_appendix
from lef.approx import (
    approx_rees,
    approx_semilattice,
    check_approximating_pair,
    check_lwf_wrapping,
    rees_subset,
    semilattice_subset,
    subset_from_words,
)
from lef.constructors import build_fn
from lef.fsg import (
    check_implication,
    enumerate_groups,
    enumerate_semigroups,
    is_clifford,
    is_completely_simple,
    is_j_trivial,
)
from lef.lwf import build_lwf_wrapping, enumerate_preaccurate
from lef.oracle import one_step_words, word_equal_bfs
from lef.presets import PRESENTATIONS, Q_SYSTEM, bicyclic4_table, build_fn_system
from lef.rewrite import check_termination_order, normal_form
from lef.search import embed_partial_table
from lef.words import separating_quantity


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_joinability_table_a():
    start = time.perf_counter()
    result = verify_appendix("A", max_exp=4)
    elapsed = time.perf_counter() - start
    ok = (
        result.all_joined
        and result.rows_instantiable == 26
        and len(result.rows) == 26
        and elapsed < 120
    )
    report(1, ok, f"table A: {result.rows_instantiable}/26 rows instantiable "
                  f"at exponent bound 4, all joined, {elapsed:.1f}s (< 120s)")


def test_criterion_02_joinability_table_b():
    start = time.perf_counter()
    r1 = verify_appendix("B", n=1, max_exp=4)
    r2 = verify_appendix("B", n=2, max_exp=4)
    elapsed = time.perf_counter() - start
    ok = (
        r1.all_joined and r2.all_joined
        and r1.rows_instantiable == 91
        and r2.rows_instantiable == 123
        and set(r2.rows_empty) == {"B5", "B15"}
        and elapsed < 600
    )
    report(2, ok, f"table B: n=1 {r1.rows_instantiable}/125 instantiable rows "
                  f"joined, n=2 {r2.rows_instantiable}/125 joined, "
                  f"{elapsed:.1f}s (< 600s)")


def test_criterion_03_shortlex_termination():
    systems = [Q_SYSTEM, build_fn_system(1), build_fn_system(2)]
    checked = 0
    violations = 0
    for system in systems:
        r = check_termination_order(system, 4)
        checked += r.checked
        violations += len(r.shortlex_violations)
    ok = violations == 0 and checked > 0
    report(3, ok, f"{checked} rule instances over Q, F_1, F_2 at exponent "
                  f"bound 4; {violations} shortlex(a<c<e<b<x) violations")


def test_criterion_04_fn_shadow():
    start = time.perf_counter()
    failures = []
    checked_words = 0
    for n in (1, 2):
        fn = build_fn(n)
        words = all_words("acebx", min(n, 5))
        checked_words += len(words)
        by_nf = defaultdict(list)
        for w in words:
            by_nf[normal_form(Q_SYSTEM, w)].append(fn.element(w))
        for nf, values in by_nf.items():
            if len(set(values)) != 1:
                failures.append((n, nf, sorted(set(values))))
    # n = 5: both directions over the full length-5 window
    f5 = build_fn(5)
    words5 = all_words("acebx", 5)
    classes = defaultdict(list)
    for w in words5:
        classes[normal_form(Q_SYSTEM, w)].append(w)
    value_to_class = {}
    zero_hits = 0
    for nf, members in classes.items():
        values = {f5.element(w) for w in members}
        if len(values) != 1:
            failures.append((5, nf, sorted(values)))
            continue
        value = values.pop()
        if value == f5.zero:
            zero_hits += 1
        if value in value_to_class:
            failures.append((5, "collision", (value_to_class[value], nf)))
        value_to_class[value] = nf
    elapsed = time.perf_counter() - start
    ok = (
        not failures
        and len(words5) == 3905
        and len(classes) == 1740
        and len(value_to_class) == 1740
        and zero_hits == 0
        and elapsed < 1800
    )
    report(4, ok, f"F_n shadow: n=1,2 on {checked_words} short words, n=5 on "
                  f"{len(words5)} words / {len(classes)} Q-classes, "
                  f"{len(value_to_class)} distinct F_5 images, 0 collapses, "
                  f"0 zero hits, {elapsed:.1f}s (< 1800s)")


def test_criterion_05_bicyclic_not_embeddable():
    start = time.perf_counter()
    result = embed_partial_table(bicyclic4_table(), 4)
    elapsed = time.perf_counter() - start
    ok = (
        result.status == "not_embeddable_up_to_bound"
        and result.witness is None
        and result.explored > 0
        and elapsed < 300
    )
    report(5, ok, f"bicyclic fragment {{1,a,b,ba}}: no host of order <= 4, "
                  f"search exhausted after {result.explored} decisions, "
                  f"{elapsed:.1f}s (< 300s)")


def test_criterion_06_malcev_group_collapse():
    premises = list(PRESENTATIONS["c"].relations)
    counterexamples = []
    groups = 0
    for order in range(1, 7):
        for g in enumerate_groups(order):
            groups += 1
            cx = check_implication(g, premises, [("cu", "dv")])
            if cx is not None:
                counterexamples.append((order, cx))
    ok = not counterexamples and groups == 8
    report(6, ok, f"Malcev collapse: ax=by, cx=dy, au=bv forces cu=dv in all "
                  f"{groups} groups of order <= 6; "
                  f"{len(counterexamples)} counterexamples")


def test_criterion_07_j_trivial_collapse():
    start = time.perf_counter()
    q_relations = list(PRESENTATIONS["q"].relations)
    counts = []
    counterexamples = []
    for order in range(1, 5):
        tables = enumerate_semigroups(order, filter=is_j_trivial)
        counts.append(len(tables))
        for mt in tables:
            cx = check_implication(mt, q_relations, [("xax", "xex")])
            if cx is not None:
                counterexamples.append((order, cx))
    elapsed = time.perf_counter() - start
    ok = (
        not counterexamples
        and counts == [1, 2, 9, 60]
        and elapsed < 900
    )
    report(7, ok, f"J-trivial collapse: Q's relations force xax=xex over all "
                  f"{sum(counts)} J-trivial semigroups of order <= 4 "
                  f"(counts {counts}), {len(counterexamples)} counterexamples, "
                  f"{elapsed:.1f}s (< 900s)")


def test_criterion_08_st_non_lef_shadow():
    start = time.perf_counter()
    conclusions = [("xaxb", "bxax"), ("xax", "xex")]
    tables = []
    for order in range(1, 5):
        tables.extend(enumerate_semigroups(order))
    counterexamples = []
    for preset in ("s", "t"):
        relations = list(PRESENTATIONS[preset].relations)
        for mt in tables:
            cx = check_implication(mt, relations, conclusions)
            if cx is not None:
                counterexamples.append((preset, mt.order, cx))
    elapsed = time.perf_counter() - start
    ok = not counterexamples and len(tables) == 218 and elapsed < 900
    report(8, ok, f"S/T shadow: relations force xaxb=bxax or xax=xex over all "
                  f"{len(tables)} semigroups of order <= 4, for both S and T; "
                  f"{len(counterexamples)} counterexamples, {elapsed:.1f}s")


def test_criterion_09_constructive_lemmas():
    start = time.perf_counter()
    rng = random.Random(20260814)
    rees_failures = semilattice_failures = clifford_failures = simple_failures = 0
    for _ in range(100):
        spec, triples = random_rees_instance(rng)
        H = rees_subset(spec, triples)
        pair = approx_rees(spec, H)
        if not check_approximating_pair(H, pair).valid:
            rees_failures += 1
        if not is_completely_simple(pair.F):
            simple_failures += 1
    for _ in range(100):
        spec, pairs = random_semilattice_instance(rng)
        H = semilattice_subset(spec, pairs)
        pair = approx_semilattice(spec, H)
        if not check_approximating_pair(H, pair).valid:
            semilattice_failures += 1
        if not is_clifford(pair.F):
            clifford_failures += 1
    elapsed = time.perf_counter() - start
    ok = rees_failures == semilattice_failures == clifford_failures == simple_failures == 0
    report(9, ok, f"constructive lemmas: 100 Rees + 100 semilattice seeded "
                  f"instances, {rees_failures}+{semilattice_failures} checker "
                  f"failures, {simple_failures} not completely simple Rees "
                  f"carriers, {clifford_failures} non-Clifford carriers, "
                  f"{elapsed:.1f}s")


def test_criterion_10_lwf_construction(wrap_t_n1):
    wrap_t, words_t, elapsed_t = wrap_t_n1
    start = time.perf_counter()
    wrap_s = build_lwf_wrapping("s", ["a"], 1)
    elapsed_s = time.perf_counter() - start
    h_t = subset_from_words("t", words_t)
    h_s = subset_from_words("s", ["a"])
    check_t = check_lwf_wrapping(h_t, wrap_t)
    check_s = check_lwf_wrapping(h_s, wrap_s)
    l1 = enumerate_preaccurate("t", 1)
    ok = (
        check_t.valid and check_s.valid
        and l1.words == ("a", "b", "c", "d", "e", "x")
        and elapsed_t + elapsed_s < 60
    )
    report(10, ok, f"LWF wrappings: T carrier {wrap_t.D.order} valid, S "
                   f"carrier {wrap_s.D.order} valid, L_1(T) = the six "
                   f"generators, built in {elapsed_t + elapsed_s:.1f}s (< 60s)")


def test_criterion_11_oracle_coherence():
    start = time.perf_counter()

    # --- T: conserved vectors versus the BFS oracle on words of length <= 4.
    # Invariants never change along a defining relation (checked on every
    # one-step edge out of the universe), so no BFS path can connect a
    # separated pair; seeded separated pairs confirm the oracle's verdicts.
    t_relations = list(PRESENTATIONS["t"].relations)
    t_words = all_words("abcdex", 4)
    edge_separations = 0
    edges = 0
    for w in t_words:
        for v in set(one_step_words(w, t_relations)):
            edges += 1
            if separating_quantity(w, v, "t") is not None:
                edge_separations += 1
    rng = random.Random(11)
    bfs_contradictions = 0
    sampled = 0
    while sampled < 300:
        u, v = rng.choice(t_words), rng.choice(t_words)
        if separating_quantity(u, v, "t") is None:
            continue
        sampled += 1
        verdict = word_equal_bfs("t", u, v)
        if verdict.status == "equal":
            bfs_contradictions += 1

    # --- Q: BFS versus normal forms on all words of length <= 5.
    # (a) every pair with equal normal forms is BFS-connected; (b) a BFS path
    # can never join distinct normal forms because every one-step relation
    # application preserves the normal form (checked on every edge out of the
    # universe) -- seeded distinct-NF pairs confirm no "equal" verdicts.
    q_words = all_words("acebx", 5)
    q_relations = list(PRESENTATIONS["q"].relations)
    classes = defaultdict(list)
    for w in q_words:
        classes[normal_form(Q_SYSTEM, w)].append(w)
    equal_pairs = 0
    equal_failures = 0
    for members in classes.values():
        for u, v in itertools.combinations(members, 2):
            equal_pairs += 1
            if word_equal_bfs("q", u, v).status != "equal":
                equal_failures += 1
    nf_edge_failures = 0
    q_edges = 0
    for w in q_words:
        nf_w = normal_form(Q_SYSTEM, w)
        for v in set(one_step_words(w, q_relations)):
            q_edges += 1
            if normal_form(Q_SYSTEM, v) != nf_w:
                nf_edge_failures += 1
    reps = sorted(classes)
    distinct_contradictions = 0
    for _ in range(300):
        u_nf, v_nf = rng.choice(reps), rng.choice(reps)
        if u_nf == v_nf:
            continue
        u, v = rng.choice(classes[u_nf]), rng.choice(classes[v_nf])
        if word_equal_bfs("q", u, v).status == "equal":
            distinct_contradictions += 1

    elapsed = time.perf_counter() - start
    ok = (
        len(t_words) == 1554
        and edge_separations == 0
        and bfs_contradictions == 0
        and len(q_words) == 3905
        and len(classes) == 1740
        and equal_pairs == 8133
        and equal_failures == 0
        and nf_edge_failures == 0
        and distinct_contradictions == 0
    )
    report(11, ok, f"oracle coherence: T {edges} relation edges conserve all "
                   f"invariants + {sampled} separated pairs never connected; "
                   f"Q all {equal_pairs} equal-NF pairs BFS-equal, all "
                   f"{q_edges} relation edges preserve normal forms, 300 "
                   f"distinct-NF samples never equal; 100% agreement, "
                   f"{elapsed:.1f}s")
