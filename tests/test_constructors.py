"""Rees matrix semigroups, strong semilattices, length-ideal quotients, and
the finite shadow semigroups F_n."""

import numpy as np
import pytest

from conftest import bounded_closure, dense_length_ideal_quotient, quotient_word_map
from lef.approx import cyclic_table, host_mul
from lef.constructors import (
    FnHandle,
    ReesSpec,
    SemilatticeSpec,
    build_fn,
    quotient_by_length_ideal,
    rees_matrix,
    semilattice_semigroup,
)
from lef.fsg import (
    MulTable,
    green,
    is_clifford,
    is_completely_simple,
    is_group,
)
from lef.oracle import word_equal_nf
from lef.presets import build_fn_system
from lef.rewrite import normal_form


def _assert_cells_follow_the_rule(mt, spec, handles, label):
    """Every cell of the built table is the product rule on the handles."""
    assert mt.labels == tuple(label(h) for h in handles)
    for a, x in enumerate(handles):
        for b, y in enumerate(handles):
            assert mt.label(mt.mul(a, b)) == label(host_mul(spec, x, y))


# ---------------------------------------------------------------------------
# Rees matrix semigroups


def _rees_cells_follow_the_rule(spec):
    G = spec.group
    handles = [(r, g, c) for r in spec.rows for g in range(G.order)
               for c in spec.cols]
    mt = rees_matrix(spec)
    _assert_cells_follow_the_rule(
        mt, spec, handles, lambda h: f"({h[0]},{G.label(h[1])},{h[2]})")
    return mt


def test_rees_matrix_basic():
    spec = ReesSpec(
        group=cyclic_table(2),
        rows=("i1", "i2"),
        cols=("l1", "l2"),
        sandwich=((0, 0), (0, 1)),
    )
    mt = _rees_cells_follow_the_rule(spec)
    assert mt.order == 8
    assert is_completely_simple(mt)
    assert not is_group(mt)
    g = green(mt)
    assert len(g.j_classes) == 1
    assert len(g.r_classes) == 2
    assert len(g.l_classes) == 2
    assert len(g.h_classes) == 4
    # product rule: (i,g,l)(j,h,m) = (i, g + P[l][j] + h, m)
    a = mt.index("(i1,1,l2)")
    b = mt.index("(i2,1,l1)")
    prod = mt.label(mt.mul(a, b))
    assert prod == "(i1,1,l1)"  # 1 + P[l2][i2] + 1 = 1 + 1 + 1 = 1 mod 2
    z3 = ReesSpec(group=cyclic_table(3), rows=("i1", "i2"), cols=("l1", "l2"),
                  sandwich=((0, 1), (2, 1)))
    assert is_completely_simple(_rees_cells_follow_the_rule(z3))


def test_rees_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        ReesSpec(group=cyclic_table(2), rows=(), cols=("l",), sandwich=())
    with pytest.raises(ValueError):
        ReesSpec(group=cyclic_table(2), rows=("i",), cols=("l",), sandwich=((0, 0),))
    spec = ReesSpec(group=cyclic_table(2), rows=("i",), cols=("l",), sandwich=((5,),))
    with pytest.raises(ValueError):
        rees_matrix(spec)  # sandwich entry outside the group
    not_group = MulTable(np.array([[0, 0], [1, 1]]))
    spec = ReesSpec(group=not_group, rows=("i",), cols=("l",), sandwich=((0,),))
    with pytest.raises(ValueError):
        rees_matrix(spec)


# ---------------------------------------------------------------------------
# strong semilattices


def _chain2_spec(hom=(0, 1)):
    meet = MulTable(np.array([[0, 0], [0, 1]]), labels=("bot", "top"))
    return SemilatticeSpec(
        meet=meet,
        components={"bot": cyclic_table(2), "top": cyclic_table(2)},
        homs={("top", "bot"): hom},
    )


def _semilattice_cells_follow_the_rule(spec):
    handles = [(e, x) for e in ("bot", "top")
               for x in range(spec.components[e].order)]
    mt = semilattice_semigroup(spec)
    _assert_cells_follow_the_rule(
        mt, spec, handles,
        lambda h: f"{h[0]}:{spec.components[h[0]].label(h[1])}")
    return mt


def test_semilattice_semigroup_clifford():
    mt = _semilattice_cells_follow_the_rule(_chain2_spec())
    assert mt.order == 4
    assert is_clifford(mt)
    assert not is_group(mt)
    # components multiply via the hom: top elements map identically into bot
    top1 = mt.index("top:1")
    bot1 = mt.index("bot:1")
    assert mt.label(mt.mul(top1, bot1)) == "bot:0"  # 1 + 1 = 0 in the bottom


def test_semilattice_collapsing_hom():
    mt = _semilattice_cells_follow_the_rule(_chain2_spec(hom=(0, 0)))
    assert mt.order == 4
    top1 = mt.index("top:1")
    bot1 = mt.index("bot:1")
    assert mt.label(mt.mul(top1, bot1)) == "bot:1"  # hom collapses top to 0


def test_semilattice_rejects_bad_homs():
    meet = MulTable(np.array([[0, 0], [0, 1]]), labels=("bot", "top"))
    with pytest.raises((KeyError, ValueError)):
        semilattice_semigroup(SemilatticeSpec(
            meet=meet,
            components={"bot": cyclic_table(2), "top": cyclic_table(2)},
            homs={},  # missing (top, bot)
        ))
    with pytest.raises(ValueError):
        semilattice_semigroup(SemilatticeSpec(
            meet=meet,
            components={"bot": cyclic_table(3), "top": cyclic_table(2)},
            homs={("top", "bot"): (0, 1)},  # 1 -> 1 is not multiplicative Z2->Z3
        ))


def test_semilattice_rejects_non_semilattice_meet():
    not_idempotent = cyclic_table(2)
    with pytest.raises(ValueError):
        semilattice_semigroup(SemilatticeSpec(
            meet=not_idempotent,
            components={not_idempotent.label(0): cyclic_table(1),
                        not_idempotent.label(1): cyclic_table(1)},
            homs={},
        ))


# ---------------------------------------------------------------------------
# length-ideal quotients


def test_quotient_by_length_ideal_free():
    mt = quotient_by_length_ideal("ab", 2)
    # words of length <= 2 plus a zero class
    assert mt.order == 7
    assert mt.label(0) == "0" and mt.index("0") == 0
    a, b, aa = mt.index("a"), mt.index("b"), mt.index("aa")
    assert a != b
    assert mt.mul(a, a) == aa
    assert mt.mul(a, aa) == 0  # length 3 -> ideal
    assert all(mt.mul(0, i) == mt.mul(i, 0) == 0 for i in range(mt.order))


@pytest.mark.parametrize("alphabet, max_len", [("ab", 2), ("abcdex", 3)])
def test_quotient_by_length_ideal_cells_are_concatenations(alphabet, max_len):
    # every one of the n^2 cells, against concatenation and, through labels,
    # against the dense reference: ("abcdex", 3) is the carrier of the t
    # wrapping at n = 1
    mt = quotient_by_length_ideal(alphabet, max_len)
    ref = dense_length_ideal_quotient(alphabet, max_len)
    assert mt.order == ref.order == 1 + sum(len(alphabet) ** k
                                            for k in range(1, max_len + 1))
    at = [mt.index(ref.label(i)) for i in range(ref.order)]
    assert sorted(at) == list(range(mt.order))
    assert [mt.label(k) for k in at] == list(ref.labels)
    for i in range(ref.order):
        for j in range(ref.order):
            assert mt.mul(at[i], at[j]) == at[ref.mul(i, j)]
    for i in range(1, mt.order):
        for j in range(1, mt.order):
            w = mt.label(i) + mt.label(j)
            assert mt.label(mt.mul(i, j)) == (w if len(w) <= max_len else "0")


def test_quotient_by_length_ideal_with_relations():
    mt = dense_length_ideal_quotient("ab", 2, relations=(("ab", "ba"),))
    word_map = quotient_word_map("ab", 2, relations=(("ab", "ba"),))
    assert mt.order == 6  # ab and ba merge
    assert word_map["ab"] == word_map["ba"]


def test_quotient_word_map_classes_are_relation_closures():
    relations = (("ab", "ba"), ("bc", "cb"), ("aa", "cc"))
    word_map = quotient_word_map("abc", 4, relations)
    classes: dict[int, set[str]] = {}
    for w, k in word_map.items():
        classes.setdefault(k, set()).add(w)
    assert len(classes) < len(word_map)
    for w, k in word_map.items():
        closure, complete = bounded_closure(relations, [w], length_bound=4)
        assert complete and closure == classes[k]


def test_quotient_rejects_bad_input():
    with pytest.raises(ValueError):
        quotient_by_length_ideal("", 2)
    with pytest.raises(ValueError):
        quotient_by_length_ideal("ab", 0)
    with pytest.raises(ValueError):
        quotient_by_length_ideal("a0", 2)
    with pytest.raises(ValueError):
        # length-changing relations would break the ideal structure
        dense_length_ideal_quotient("ab", 2, relations=(("ab", "a"),))
    with pytest.raises(ValueError, match="more than 2\\*\\*63 elements"):
        quotient_by_length_ideal("ab", 10 ** 9)
    with pytest.raises(ValueError, match="more than 2\\*\\*63 elements"):
        quotient_by_length_ideal("a", 2 ** 64)
    mt = quotient_by_length_ideal("ab", 2)
    for word, message in (("", "the empty word names no element"),
                          ("ac", "'ac' has a letter outside ab"),
                          ("aba", "'aba' lies in the ideal")):
        with pytest.raises(ValueError, match=message):
            mt.index(word)


# ---------------------------------------------------------------------------
# the finite shadows F_n


def test_build_fn_handle():
    fn = build_fn(1)
    assert isinstance(fn, FnHandle)
    assert fn.n == 1
    system = build_fn_system(1)
    # elements are normal forms, with words of block count > n collapsing to 0
    assert fn.element("xca") == normal_form(system, "xca")
    assert fn.element("xbxbxb") == "0"
    assert word_equal_nf("fn:1", "aaa", "a").status == "equal"  # a^{2n+1} = a at n = 1
    assert word_equal_nf("fn:1", "a", "b").status == "distinct"
    assert fn.mul("a", "a") == fn.element("aa")


def test_build_fn_rejects_bad_n():
    with pytest.raises(ValueError):
        build_fn(0)


def test_fn_element_checks_its_word():
    # the word is checked before the rewriting engine sees it
    with pytest.raises(ValueError, match=r"\['z'\] outside the fn:1 alphabet"):
        build_fn(1).element("zz")


def test_fn_zero_absorbs():
    fn = build_fn(1)
    # mul takes words over the presentation alphabet, not element names
    assert fn.mul("xbxb", "a") == "0"
    assert fn.mul("a", "xbxb") == "0"
    with pytest.raises(ValueError):
        fn.element("")
