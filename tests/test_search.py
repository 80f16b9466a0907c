"""Bounded embeddability search for partial multiplication tables, the
bicyclic fragment, and the Malcev-style witness."""

import numpy as np
import pytest

from lef.approx import cyclic_table
from lef.fsg import MulTable, PartialTable, relation_grid
from lef.presets import PRESENTATIONS, bicyclic4_table
from lef.search import (
    CLASS_FILTERS,
    MAX_ASSIGN_ORDER,
    check_partial_associativity,
    embed_partial_table,
    find_relational_assignments,
    malcev_witness_table,
)


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
    # a 13-element witness cannot inject into tables of order <= 4, so the
    # search is vacuous: nothing explored, negative result
    result = embed_partial_table(malcev_witness_table(), 4, class_filter="group")
    assert result.status == "not_embeddable_up_to_bound"
    assert result.explored == 0


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


def test_unknown_class_filter():
    with pytest.raises((KeyError, ValueError)):
        embed_partial_table(bicyclic4_table(), 3, class_filter="solvable")


def test_class_filter_inventory():
    assert {"any", "group", "j_trivial", "clifford"} <= set(CLASS_FILTERS)


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
