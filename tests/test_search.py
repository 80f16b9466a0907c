"""Bounded embeddability search for partial multiplication tables, the
bicyclic fragment, and the Malcev-style witness."""

import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from lef.approx import cyclic_table
from lef import fsg
from lef.fsg import (CLASS_FILTERS, MulTable, PartialTable, _TableSearch, enumerate_groups,
                     enumerate_semigroups, relation_variables)
import lef.search
from lef.presets import PRESENTATIONS, bicyclic4_table
from lef.search import (
    MAX_ASSIGN_ORDER,
    SearchResult,
    _filler_labels,
    check_partial_associativity,
    embed_partial_table,
    malcev_witness_table,
)

from conftest import find_relational_assignments, relation_grid, word_value_grid


# ---------------------------------------------------------------------------
# partial tables


def test_check_partial_associativity_ok():
    # raises on a violation; both presets are clean
    check_partial_associativity(bicyclic4_table())
    check_partial_associativity(malcev_witness_table())


def test_partial_table_json():
    pt = bicyclic4_table()
    assert PartialTable.from_json(pt.to_json()) == pt
    with pytest.raises(ValueError, match="^/products/p,z: unknown element 'z'$"):
        PartialTable.from_json({"elements": ["p"], "products": {"p,z": "p"}})
    # a key holding "/" or "~" is escaped as one pointer segment (RFC 6901)
    with pytest.raises(ValueError, match="^/products/a~1b,d: unknown element 'd'$"):
        PartialTable.from_json({"elements": ["a/b"], "products": {"a/b,d": "a/b"}})
    with pytest.raises(ValueError, match="^/products/a~0b~1c: key must be 'u,v'$"):
        PartialTable.from_json({"elements": ["a"], "products": {"a~b/c": "a"}})


def test_an_empty_partial_table_is_a_data_error():
    with pytest.raises(ValueError, match="^/elements: expected a non-empty list of strings$"):
        PartialTable.from_json({"elements": [], "products": {}})
    with pytest.raises(ValueError, match="at least one element"):
        PartialTable(elements=(), products={})


def test_check_partial_associativity_detects_violations():
    pt = PartialTable(
        elements=("p", "q", "r"),
        products={("p", "p"): "q", ("q", "p"): "r", ("p", "q"): "p",
                  ("p", "r"): "r", ("r", "p"): "p"},
    )
    # (pp)p = qp = r but p(pp) = pq = p: a forced violation
    with pytest.raises(ValueError):
        check_partial_associativity(pt)


def test_malcev_witness_shape():
    pt = malcev_witness_table()
    assert len(pt.elements) == 13
    assert len(pt.products) == 8
    # the witness encodes ax=by, cx=dy, au=bv and keeps cu != dv
    assert pt.products[("a", "x")] == pt.products[("b", "y")]
    assert pt.products[("c", "u")] != pt.products[("d", "v")]


# ---------------------------------------------------------------------------
# embeddability search


def test_bicyclic4_not_embeddable_up_to_4():
    result = embed_partial_table(bicyclic4_table(), 4)
    assert result.status == "not_embeddable_up_to_bound"
    assert result.witness is None
    assert result.explored > 0
    assert result.bound == 4
    data = result.as_json()
    assert data["status"] == "not_embeddable_up_to_bound"
    assert "witness" not in data or data.get("witness") is None


def test_embeddable_positive_case():
    pt = PartialTable(elements=("p", "q"), products={("p", "q"): "q", ("q", "p"): "q"})
    result = embed_partial_table(pt, 3)
    assert result.status == "embeddable"
    mt, injection = result.witness
    assert sorted(injection) == ["p", "q"]
    # every defined product is preserved by the injection
    for (u, v), w in pt.products.items():
        assert mt.mul(injection[u], injection[v]) == injection[w]
    assert len(set(injection.values())) == 2


def test_embedding_respects_class_filter():
    # p*p = q, q*q = p forces an element of period 3, impossible in an
    # aperiodic (j-trivial) semigroup but easy in Z3
    pt = PartialTable(elements=("p", "q"), products={("p", "p"): "q", ("q", "q"): "p"})
    anyhow = embed_partial_table(pt, 3)
    assert anyhow.status == "embeddable"
    j_only = embed_partial_table(pt, 4, class_filter="j_trivial")
    assert j_only.status == "not_embeddable_up_to_bound"
    assert j_only.explored > 0


def test_group_filter_skips_small_orders():
    # a 13-element witness cannot inject into tables of order <= 4, so a
    # search would be vacuous: the library refuses it instead of answering
    with pytest.raises(ValueError, match="max order 4 is below the 13 elements"):
        embed_partial_table(malcev_witness_table(), 4, class_filter="group")


PQ = PartialTable(elements=("p", "q"), products={("p", "q"): "q", ("q", "p"): "p"})


@pytest.mark.parametrize("class_filter", ["clifford", "j_trivial", "r_trivial"])
def test_pq_decision_count_is_pinned(class_filter):
    # pq = q, qp = p: an exhausted search explores the same decisions under
    # every filter that runs on finished tables only
    result = embed_partial_table(PQ, 4, class_filter=class_filter)
    assert result.status == "not_embeddable_up_to_bound"
    assert result.explored == 1569


def test_pq_group_search_fails_before_any_decision():
    # closing pq = q, qp = p forces pp = (pq)p = p(qp), so p repeats in
    # column p and the Latin search stops before trying any value
    result = embed_partial_table(PQ, 4, class_filter="group")
    assert result.status == "not_embeddable_up_to_bound"
    assert result.explored == 0


def test_malcev_table_embeds_at_order_13():
    result = embed_partial_table(malcev_witness_table(), 13)
    assert result.status == "embeddable"
    assert result.explored == 74
    mt, injection = result.witness
    assert mt.order == 13
    assert mt.is_associative()
    pt = malcev_witness_table()
    for (u, v), w in pt.products.items():
        assert mt.mul(injection[u], injection[v]) == injection[w]


# ---------------------------------------------------------------------------
# the engine's value index, and stacked leaf checks against one-by-one checks


class _CheckedTrail(list):
    """A trail that checks, each time the search cuts it back to a mark on a
    backtrack, that occ[v] holds exactly the cells of value v."""

    def __init__(self, search):
        super().__init__()
        self.search = search
        self.checks = 0

    def __delitem__(self, index):
        super().__delitem__(index)
        _assert_occ(self.search)
        self.checks += 1


class _CheckedSearch(_TableSearch):
    def __init__(self, n, latin=False, pins=()):
        super().__init__(n, latin, pins)
        self.trail = _CheckedTrail(self)
        self.trail += [c for c, _ in pins]


def _assert_occ(search):
    for v, cells in enumerate(search.occ):
        assert sorted(cells) == [c for c, x in enumerate(search.T) if x == v]


def _pinned(n, products, latin=False, search_class=_CheckedSearch):
    search = search_class(n, latin=latin, pins=products)
    return search if search.propagate() else None


def test_value_index_matches_the_table():
    searches = [_pinned(n, [(1, 1), (n, 0)]) for n in (2, 3, 4)]      # pq = q, qp = p
    searches += [_pinned(n, []) for n in (1, 2, 3)]
    searches.append(_pinned(4, [(i, i) for i in range(4)] + [(4 * i, i) for i in range(1, 4)],
                            latin=True))
    completions = checks = 0
    for search in searches:
        for _ in search.completions():
            _assert_occ(search)
            completions += 1
        checks += search.trail.checks
    assert completions > 100
    assert checks > sum(search.decisions for search in searches)   # one per step


def _fingerprint(search, limit=None):
    """The decision count after the first ``limit`` completions (all of them
    by default), and a sha256 over each completion's cells followed by the
    decision count at which it was found."""
    digest = hashlib.sha256()
    for flat in itertools.islice(search.completions(), limit):
        digest.update(bytes(flat))
        digest.update(search.decisions.to_bytes(4, "little"))
    return search.decisions, digest.hexdigest()


def _identity_pins(n):
    return [(i, i) for i in range(n)] + [(i * n, i) for i in range(1, n)]


def _malcev_pins():
    pt = malcev_witness_table()
    at = {x: i for i, x in enumerate(pt.elements)}
    return [(at[x] * 13 + at[y], at[z]) for (x, y), z in pt.products.items()]


# The engine's search order, recorded when propagate still wrote each forced
# cell through a method call and undo cleared the trail: any rewrite of the
# engine must make the same decisions and find the same completions in the
# same order.  {p,q} sums to the 100,659 decisions of the benchmark's
# {p,q} <= 5 searches, the unpinned orders 1-4 to 19,309.
ENGINE_PINS = [
    ("pq", 2, [(1, 1), (2, 0)], False, None,
     0, "601657da685528a70db443696162e7d26f76ee38faa01c29ba2d3e18263808e7"),
    ("pq", 3, [(1, 1), (3, 0)], False, None,
     45, "49d8c61564d21dbcf599dc7adfb79b388360ae3ca9eb3e88ef2fb0e8baa052e2"),
    ("pq", 4, [(1, 1), (4, 0)], False, None,
     1524, "1ed67f18a4e7fe2bc6bc4629d0a77efe020077b40f7899b81c8bad132f6c6c37"),
    ("pq", 5, [(1, 1), (5, 0)], False, None,
     99090, "9774fc0d1d2a796699aa80f47fd6b328ac7bf573fa87aedc4d5bdc1eab4c7a66"),
    ("free", 1, [], False, None,
     1, "86f9649499b0080656c014aa244f654864bad4145c8513e9c8409f437d4a2b3b"),
    ("free", 2, [], False, None,
     14, "4413a40b6c98217f7054962b820b7295d39e66ed7e388f650bef9a99664f535c"),
    ("free", 3, [], False, None,
     390, "773246c9a6375bb91118cea5b00a5b1a9b2e72c65103496fd162646e0631c23f"),
    ("free", 4, [], False, None,
     18904, "7768b0873a0cfb35362ed6d6aa23652c97b1c55790daa67b5cd1e283eb3af085"),
    ("latin", 1, _identity_pins(1), True, None,
     0, "8855508aade16ec573d21e6a485dfd0a7624085c1a14b5ecdd6485de0c6839a4"),
    ("latin", 2, _identity_pins(2), True, None,
     2, "50cedcd8875dcfa5e3b044358ab956d80cc558f5d42f47a42f141f1420dc72bf"),
    ("latin", 3, _identity_pins(3), True, None,
     9, "15f3f6d9425e34a73e95bd2b5699ede206a5415894e873ef9cf4e0bef57a7aff"),
    ("latin", 4, _identity_pins(4), True, None,
     36, "81427dc42e5c5a9466b353745a5f5793b7cce26004e98a31fcf6153df672239d"),
    ("latin", 5, _identity_pins(5), True, None,
     120, "1fb7d3a92c1c4a1da562a126ca1a59521c1cfda49322465011dda0fa7913c37a"),
    ("latin", 6, _identity_pins(6), True, None,
     900, "1a2f00ea435d5fc7aadf9d9a50887b13c96d7e6ae0a81bc23ec148c2e86cdddf"),
    ("malcev", 13, _malcev_pins(), False, 1,          # the first completion under "any"
     74, "7aac407a61b4d540b343701663dcfcc5580a4aaebfda1ddb50c30cefd44d2456"),
]


@pytest.mark.parametrize("name, n, pins, latin, limit, decisions, digest", ENGINE_PINS,
                         ids=[f"{name}-{n}" for name, n, *_ in ENGINE_PINS])
def test_engine_search_order_is_pinned(name, n, pins, latin, limit, decisions, digest):
    search = _pinned(n, pins, latin=latin, search_class=_TableSearch)
    assert _fingerprint(search, limit) == (decisions, digest)


def _one_by_one(pt, max_order, class_filter="any"):
    """embed_partial_table checking each completion as it is found: the
    reference for the stacked checks."""
    passes = CLASS_FILTERS[class_filter]
    at = {label: i for i, label in enumerate(pt.elements)}
    explored = 0
    for n in range(len(pt.elements), max_order + 1):
        pins = [(at[x] * n + at[y], at[z]) for (x, y), z in pt.products.items()]
        search = _TableSearch(n, latin=class_filter == "group", pins=pins)
        if search.propagate():
            for flat in search.completions():
                mt = MulTable(np.array(flat).reshape(n, n),
                              labels=_filler_labels(pt.elements, n))
                assert mt.is_associative()
                if passes(mt):
                    return SearchResult("embeddable", (mt, dict(at)),
                                        explored + search.decisions, max_order)
        explored += search.decisions
    return SearchResult("not_embeddable_up_to_bound", None, explored, max_order)


def _random_partial_tables(count, seed=5):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        elements = "pqrs"[:rng.randint(1, 4)]
        cells = [(x, y) for x in elements for y in elements]
        products = {cell: rng.choice(elements)
                    for cell in rng.sample(cells, rng.randint(0, min(4, len(cells))))}
        pt = PartialTable(elements=tuple(elements), products=products)
        try:
            check_partial_associativity(pt)
        except ValueError:
            continue
        out.append(pt)
    return out


def _same_result(got, want):
    assert (got.status, got.explored, got.bound) == (want.status, want.explored, want.bound)
    if want.witness is None:
        assert got.witness is None
    else:
        (mt, injection), (ref, ref_injection) = got.witness, want.witness
        assert mt.table.tolist() == ref.table.tolist()
        assert mt.labels == ref.labels and injection == ref_injection


@pytest.mark.parametrize("class_filter", sorted(CLASS_FILTERS))
def test_stacked_checks_match_one_by_one_checks(class_filter):
    statuses = set()
    for pt in _random_partial_tables(12) + [PQ]:
        want = _one_by_one(pt, 4, class_filter)
        _same_result(embed_partial_table(pt, 4, class_filter), want)
        statuses.add(want.status)
    if class_filter != "group":
        assert statuses == {"embeddable", "not_embeddable_up_to_bound"}
    _same_result(embed_partial_table(bicyclic4_table(), 5, class_filter),
                 _one_by_one(bicyclic4_table(), 5, class_filter))
    if class_filter == "any":   # under a class filter the order-13 search is vast
        _same_result(embed_partial_table(malcev_witness_table(), 13),
                     _one_by_one(malcev_witness_table(), 13))


def test_unknown_class_filter():
    with pytest.raises((KeyError, ValueError)):
        embed_partial_table(bicyclic4_table(), 3, class_filter="solvable")


def test_class_filter_inventory():
    assert {"any", "group", "j_trivial", "clifford"} <= set(CLASS_FILTERS)


# ---------------------------------------------------------------------------
# the memo of searches run to the end


@pytest.fixture
def empty_memo():
    """The search memo, emptied for the test; the entries it held before are
    put back after it, so later tests still find them."""
    saved = dict(fsg._search_memo)
    fsg._search_memo.clear()
    yield fsg._search_memo
    fsg._search_memo.clear()
    fsg._search_memo.update(saved)


@pytest.mark.parametrize("class_filter", sorted(CLASS_FILTERS))
def test_memo_reads_match_cold_searches(class_filter, empty_memo, monkeypatch):
    live = []
    monkeypatch.setattr(fsg, "_TableSearch", lambda *args: live.append(args) or _TableSearch(*args))
    for pt, max_order in [(pt, 4) for pt in _random_partial_tables(12) + [PQ]] \
            + [(bicyclic4_table(), 5)]:
        want = _one_by_one(pt, max_order, class_filter)
        empty_memo.clear()
        _same_result(embed_partial_table(pt, max_order, class_filter), want)
        for other in CLASS_FILTERS:     # keeps every search that runs to its end
            embed_partial_table(pt, max_order, other)
        live.clear()
        _same_result(embed_partial_table(pt, max_order, class_filter), want)
        if want.status == "not_embeddable_up_to_bound":
            assert not live     # every order read from the memo


def test_writing_into_returned_tables_changes_no_later_result(empty_memo):
    want = [mt.table.tolist() for mt in enumerate_semigroups(3)]
    labeled = [mt.table.tolist() for mt in enumerate_groups(4, up_to_iso=False)]
    for _ in range(2):      # the second round reads every search from the memo
        for mt in (enumerate_semigroups(3) + enumerate_semigroups(3, up_to_iso=False)
                   + enumerate_groups(4, up_to_iso=False)):
            mt.table[...] = 0
    assert [mt.table.tolist() for mt in enumerate_semigroups(3)] == want
    assert [mt.table.tolist() for mt in enumerate_groups(4, up_to_iso=False)] == labeled
    embed_partial_table(PQ, 4, "j_trivial")     # keeps orders 2-4
    for _ in range(2):
        embed_partial_table(PQ, 4).witness[0].table[...] = 0
    _same_result(embed_partial_table(PQ, 4), _one_by_one(PQ, 4))


def test_a_search_that_stops_early_keeps_nothing(empty_memo):
    # {p,q} lies in the right-zero semigroup of order 2
    assert embed_partial_table(PQ, 4).status == "embeddable"
    assert not empty_memo
    assert embed_partial_table(PQ, 3, "j_trivial").status == "not_embeddable_up_to_bound"
    assert len(empty_memo) == 2


def test_memo_evicts_the_least_recently_used_search(empty_memo, monkeypatch):
    enumerate_semigroups(3)
    enumerate_semigroups(2)
    enumerate_semigroups(3)     # order 3 is now the most recently used
    small = fsg._memo_bytes()
    monkeypatch.setattr(fsg, "SEARCH_MEMO_BYTES", small)
    enumerate_semigroups(1)
    assert [key[0] for key in empty_memo] == [3, 1] and fsg._memo_bytes() <= small
    empty_memo.clear()      # a search whose completions pass the bound is not kept
    monkeypatch.setattr(fsg, "SEARCH_MEMO_BYTES", 100)
    assert len(enumerate_semigroups(3, up_to_iso=False)) == 113
    assert not empty_memo


def test_a_corrupted_memo_entry_raises_instead_of_answering(empty_memo):
    embed_partial_table(PQ, 2, "j_trivial")     # keeps the order-2 search
    (run,) = empty_memo.values()
    run.found_at = np.zeros(1, dtype=np.uint8)
    # associative and in every class "any" admits, but pq = p
    run.tables = np.zeros((1, 2, 2), dtype=np.uint8)
    with pytest.raises(AssertionError, match="pinned product"):
        embed_partial_table(PQ, 2)
    run.tables = np.array([[[1, 0], [0, 0]]], dtype=np.uint8)   # (00)1 = 0 but 0(01) = 1
    with pytest.raises(AssertionError, match="inassociative"):
        embed_partial_table(PQ, 2)


# ---------------------------------------------------------------------------
# relational assignments in a fixed table


def test_find_relational_assignments_in_z3():
    z3 = cyclic_table(3)
    hits = list(find_relational_assignments(z3, [("xy", "yx")]))
    assert len(hits) == 9 and all(collapsed == [] for _, collapsed in hits)
    hits = list(find_relational_assignments(z3, [("xx", "x")]))
    assert [a for a, _ in hits] == [{"x": 0}]


def test_find_relational_assignments_with_distinctness():
    z2 = cyclic_table(2)
    hits = list(find_relational_assignments(z2, [("xy", "yx")]))
    assert len(hits) == 4
    collapsed = [pairs for _, pairs in hits]
    # distinctness violations are reported, not silently dropped
    hits = list(
        find_relational_assignments(z2, [("xy", "yx")], distinctness=[("x", "y")])
    )
    flagged = [pairs for _, pairs in hits if pairs]
    assert len(flagged) == 2  # x = y = 0 and x = y = 1
    assert all(("x", "y") in pairs for pairs in flagged)
    _ = collapsed


def test_find_relational_assignments_order_cap():
    big = MulTable(np.zeros((MAX_ASSIGN_ORDER + 1, MAX_ASSIGN_ORDER + 1), dtype=int))
    with pytest.raises(ValueError):
        list(find_relational_assignments(big, [("xy", "yx")]))


def test_find_relational_assignments_variable_cap():
    z2 = MulTable(np.array([[0, 1], [1, 0]]))
    assert sum(1 for _ in find_relational_assignments(z2, [("abcd", "efgh")])) == 2 ** 7
    with pytest.raises(ValueError, match="at most 8 distinct variables"):
        list(find_relational_assignments(z2, [("abcd", "efghi")]))


def _full_grid_assignments(mt, relations, distinctness):
    """find_relational_assignments over the whole grid of assignments: the
    reference."""
    variables = relation_variables(relations + distinctness)
    sat = np.ones((mt.order,) * len(variables), dtype=bool)
    for rel in relations:
        sat &= relation_grid(mt, rel, variables)
    pairs = [(word_value_grid(mt, u, variables), word_value_grid(mt, v, variables))
             for u, v in distinctness]
    out = []
    for combo in np.argwhere(sat):
        key = tuple(int(c) for c in combo)
        out.append((dict(zip(variables, key)),
                    [d for d, (gu, gv) in zip(distinctness, pairs) if gu[key] == gv[key]]))
    return out


def test_find_relational_assignments_matches_the_full_grid():
    # the s, t and c relations on every semigroup of order <= 3, then seeded
    # random magmas and relations; the same list in the same (C) order
    cases = []
    for preset, distinctness in (("s", [("xax", "xex"), ("a", "b")]),
                                 ("t", [("xaxb", "bxax"), ("xax", "xex")]),
                                 ("c", [("cu", "dv"), ("a", "b")])):
        relations = list(PRESENTATIONS[preset].relations)
        cases += [(mt, relations, distinctness)
                  for k in (1, 2, 3) for mt in enumerate_semigroups(k)]
    rng = random.Random(11)

    def word():
        return "".join(rng.choice("xyzw") for _ in range(rng.randint(1, 3)))
    for _ in range(300):
        n = rng.randint(1, 4)
        mt = MulTable(np.array([[rng.randrange(n) for _ in range(n)] for _ in range(n)]))
        cases.append((mt, [(word(), word()) for _ in range(rng.randint(1, 3))],
                      [(word(), word()) for _ in range(rng.randint(0, 2))]))
    found = 0
    for mt, relations, distinctness in cases:
        got = list(find_relational_assignments(mt, relations, distinctness))
        assert got == _full_grid_assignments(mt, relations, distinctness), (mt.table, relations)
        found += len(got)
    assert found > 1000


def test_assignments_cross_row_chunks_unchanged(monkeypatch):
    # chunks of 7 rows split the grid of c's 8 variables over Z2 (256 rows)
    monkeypatch.setattr(lef.search, "ASSIGN_CHUNK", 7)
    z2 = cyclic_table(2)
    relations = list(PRESENTATIONS["c"].relations)
    for distinctness in ([], [("cu", "dv"), ("a", "b")]):
        got = list(find_relational_assignments(z2, relations, distinctness))
        assert len(got) == 2 ** 5
        assert got == _full_grid_assignments(z2, relations, distinctness)


def test_the_first_assignment_needs_no_list_per_column():
    # 6 ** 8 = 1,679,616 rows all pass; their uint8 columns take about 27 MB,
    # and a Python list per column of the whole grid would take over 100 MB
    zero = MulTable(np.zeros((6, 6), dtype=int))
    tracemalloc.start()
    try:
        first = next(find_relational_assignments(zero, [("ab", "cd"), ("ef", "gh")]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first == (dict.fromkeys("abcdefgh", 0), [])
    assert peak < 60_000_000


# ---------------------------------------------------------------------------
# the Malcev sweep anchor: in any group the three premises leave exactly
# |G|^5 free choices (a, b, c, x, u determine y, d, v)


def test_malcev_premises_have_group_solution_count():
    from lef.fsg import enumerate_groups

    premises = list(PRESENTATIONS["c"].relations)
    variables = ("a", "b", "c", "d", "x", "y", "u", "v")
    total = 0
    for order in range(1, 7):
        for g in enumerate_groups(order):
            sat = np.ones((g.order,) * len(variables), dtype=bool)
            for rel in premises:
                sat &= relation_grid(g, rel, variables)
            count = int(sat.sum())
            assert count == g.order ** 5
            total += count
    assert total == 21001
