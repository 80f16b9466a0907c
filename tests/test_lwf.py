"""Pre-accurate word enumeration and the wrapping constructions for S and T."""

import random

import numpy as np
import pytest

from conftest import WORD_LETTERS, all_words, sm_ideal_blocks

import lef.lwf
from lef.approx import check_lwf_wrapping, subset_from_words
from lef.lwf import (
    PreAccurateSet,
    build_lwf_wrapping,
    enumerate_preaccurate,
    fallback_element,
    sm_ideal_quotient,
)
from lef.oracle import congruence_class, equal_to_any, sm_canonical, word_equal
from lef.words import conserved_vector, e_reduced_length


# ---------------------------------------------------------------------------
# pre-accurate word sets L_n


def test_preaccurate_t_n1_is_the_generators():
    pre = enumerate_preaccurate("t", 1)
    assert pre.words == ("a", "b", "c", "d", "e", "x")
    assert pre.base_words == ("a", "b", "c", "d", "e", "x")
    assert not pre.truncated
    assert pre.max_length == 1


def test_preaccurate_t_n2():
    pre = enumerate_preaccurate("t", 2)
    assert len(pre.words) == 46
    assert pre.max_length == 3
    assert not pre.truncated
    # closure property: every listed word of length > n is a product of two
    # pre-accurate words equal to a base element
    assert set(pre.base_words) <= set(pre.words)


def test_preaccurate_s_is_truncated():
    pre = enumerate_preaccurate("s", 2, length_cap=10)
    assert len(pre.words) == 55
    assert not pre.indeterminate
    assert pre.truncated  # L_2(S) is infinite; the cap cuts it off


def _reference_preaccurate(preset: str, n: int, cap: int) -> PreAccurateSet:
    """enumerate_preaccurate with every word compared against every base
    representative through the oracle, no bucketing."""
    base_words = tuple(all_words(WORD_LETTERS[preset], n))
    reps: list[str] = []
    for w in base_words:
        statuses = [word_equal(preset, w, r).status for r in reps]
        assert "unknown" not in statuses
        if "equal" not in statuses:
            reps.append(w)

    def in_subset(w: str) -> bool | None:
        statuses = [word_equal(preset, w, r).status for r in reps]
        if "equal" in statuses:
            return True
        return None if "unknown" in statuses else False

    by_length = {ell: all_words(WORD_LETTERS[preset], ell, ell)
                 for ell in range(1, n + 1)}
    indeterminate = []
    for ell in range(n + 1, cap + 1):
        candidates = sorted({u + v for j in range(1, ell)
                             for u in by_length.get(j, ())
                             for v in by_length.get(ell - j, ())})
        verdicts = {w: in_subset(w) for w in candidates}
        indeterminate += [w for w in candidates if verdicts[w] is None]
        found = [w for w in candidates if verdicts[w]]
        if found:
            by_length[ell] = found
    words = tuple(w for ell in sorted(by_length) for w in by_length[ell])
    return PreAccurateSet(preset=preset, n=n, length_cap=cap,
                          base_words=base_words, base_elements=tuple(reps),
                          words=words, indeterminate=tuple(indeterminate))


@pytest.mark.parametrize("preset, n, cap", [("t", 2, 8), ("s", 2, 10),
                                            ("c", 1, 6), ("q", 2, 8),
                                            ("t", 2, 12), ("s", 2, 12),
                                            ("c", 2, 8)])
def test_preaccurate_matches_the_unbucketed_reference(preset, n, cap):
    assert (enumerate_preaccurate(preset, n, cap)
            == _reference_preaccurate(preset, n, cap))


def test_preaccurate_asks_the_oracle_only_in_open_buckets(monkeypatch):
    # each base class is walked once and candidates are looked up in it; only
    # a word sharing its conserved quantities with a class that stays open
    # (s: the class of ax, which pumps a e^k x) still asks equal_to_any, once,
    # against the open classes' representatives only
    asked = []
    target_lists = set()

    def counting(preset, w, targets):
        asked.append(w)
        target_lists.add(tuple(targets))
        return equal_to_any(preset, w, targets)

    monkeypatch.setattr(lef.lwf, "equal_to_any", counting)
    enumerate_preaccurate("t", 2)
    assert asked == []
    pre = enumerate_preaccurate("s", 2, length_cap=10)
    open_reps = [r for r in pre.base_elements
                 if congruence_class("s", r, pre.length_cap + 4) is None]
    assert open_reps == ["ax"]
    assert asked and len(asked) == len(set(asked))
    assert target_lists == {("ax",)}
    assert {conserved_vector(w, "s") for w in asked} == {conserved_vector("ax", "s")}
    # q's classes are its representatives' normal forms: no search at all
    asked.clear()
    enumerate_preaccurate("q", 2, length_cap=8)
    assert asked == []


def test_preaccurate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        enumerate_preaccurate("sm:3", 1)  # not a word preset
    with pytest.raises(ValueError):
        enumerate_preaccurate("t", 0)
    with pytest.raises(ValueError):
        enumerate_preaccurate("t", 3, length_cap=2)


def test_preaccurate_q_generators():
    # the q preset is a word host too; its length-1 layer is the generators
    pre = enumerate_preaccurate("q", 1)
    assert pre.words == ("a", "b", "c", "e", "x")


def test_preaccurate_json():
    pre = enumerate_preaccurate("t", 1)
    data = pre.as_json()
    assert data["preset"] == "t"
    assert data["n"] == 1
    assert data["words"] == ["a", "b", "c", "d", "e", "x"]


def test_fallback_element():
    w = fallback_element("t", 2)
    assert w == "aaa"
    assert len(w) == 3
    assert fallback_element("s", 2) == "aaa"


# ---------------------------------------------------------------------------
# the S_m ideal quotient carrier


def test_sm_ideal_quotient():
    mt = sm_ideal_quotient(3, 1)
    assert all(mt.mul(0, i) == mt.mul(i, 0) == 0 for i in range(mt.order))
    # e-run folding matches the canonical form
    e = mt.index("e")
    ee = mt.index("ee")
    assert mt.mul(e, ee) == e  # eee = e (m = 3)
    assert mt.mul(ee, ee) == ee  # e^4 ~ e^2
    assert sm_canonical("eeee", 3) == "ee"
    # words beyond the e-reduced length bound collapse to zero
    a = mt.index("a")
    assert mt.mul(a, a) == 0
    for word, message in (("eee", "not canonical"), ("ad", "letter outside"),
                          ("axe", "lies in the ideal"), ("", "empty word")):
        with pytest.raises(ValueError, match=message):
            mt.index(word)


def _cells(order: int, limit: int, rng: random.Random):
    """Every cell of an order x order table, or a seeded sample of limit."""
    if order * order <= limit:
        return [(i, j) for i in range(order) for j in range(order)]
    return [(rng.randrange(order), rng.randrange(order)) for _ in range(limit)]


@pytest.mark.parametrize("m, bound", [
    pytest.param(m, bound, id=f"{bound}-{m}")
    for bound in (0, 1, 2) for m in (2, 3, 4)] + [
    # the 5,655-element carrier of the s wrapping at n = 1
    pytest.param(3, 3, id="3-3")])
def test_sm_ideal_quotient_cells_are_canonical_products(m, bound):
    # every cell whose product stays within the bound, plus every other cell
    # of the small carriers and a seeded sample of the large ones
    mt = sm_ideal_quotient(m, bound)
    by_reduced: dict[int, list[int]] = {}
    for i in range(1, mt.order):
        by_reduced.setdefault(e_reduced_length(mt.label(i)), []).append(i)
    for ki, rows in by_reduced.items():
        for kj in range(bound + 1 - ki):
            for i in rows:
                for j in by_reduced.get(kj, ()):
                    assert mt.label(mt.mul(i, j)) == sm_canonical(
                        mt.label(i) + mt.label(j), m)
    for i, j in _cells(mt.order, 40_000, random.Random(m * 10 + bound)):
        w = mt.label(i) + mt.label(j)
        if "0" in w or e_reduced_length(w) > bound:
            assert mt.mul(i, j) == 0


@pytest.mark.parametrize("m, bound", [
    pytest.param(m, bound, id=f"{m}-{bound}")
    for m in (2, 3, 4, 5) for bound in (0, 1, 2, 3)])
def test_sm_ideal_quotient_matches_the_dense_reference(m, bound):
    # through labels: at maps each reference index to the rule's index of its
    # label.  Every non-zero reference cell is compared (a seeded sample of
    # 60,000 where there are more: 240,009 at m = 4 and 746,816 at m = 5 for
    # bound 3), then every cell of the carriers of order <= 158 and a seeded
    # sample of 25,000 cells of the others, of which the zero cells are
    # checked; a call per cell of all 1.8e9 cells at m = 5 takes about an hour
    labels, blocks = sm_ideal_blocks(m, bound)
    mt = sm_ideal_quotient(m, bound)
    assert mt.order == len(labels)
    at = np.array([mt.index(w) for w in labels])
    assert np.array_equal(np.sort(at), np.arange(mt.order))
    assert [mt.label(k) for k in at] == labels
    rows, cols, products = (np.concatenate(parts) for parts in zip(*(
        (np.repeat(np.arange(r, r + b.shape[0]), b.shape[1]),
         np.tile(np.arange(c, c + b.shape[1]), b.shape[0]),
         b.ravel()) for r, c, b in blocks)))
    if m == 3 and bound == 3:
        assert len(products) == 55_012   # 0.17% of the 31,979,025 cells
    rng = np.random.default_rng(m * 10 + bound)
    if len(products) > 60_000:
        keep = rng.choice(len(products), 60_000, replace=False)
        rows, cols, products = rows[keep], cols[keep], products[keep]
    for i, j, k in zip(at[rows].tolist(), at[cols].tolist(), at[products].tolist()):
        assert mt.mul(i, j) == k
    level = np.array([0] + [e_reduced_length(w) for w in labels[1:]])
    for i, j in _cells(mt.order, 25_000, random.Random(m * 10 + bound)):
        if i == 0 or j == 0 or level[i] + level[j] > bound:
            assert mt.mul(int(at[i]), int(at[j])) == 0


def test_sm_ideal_quotient_rejects_bad_m():
    with pytest.raises(ValueError):
        sm_ideal_quotient(1, 1)
    with pytest.raises(ValueError):
        sm_ideal_quotient(3, -1)
    with pytest.raises(ValueError, match="more than 2\\*\\*63 elements"):
        sm_ideal_quotient(2, 10 ** 12)


# ---------------------------------------------------------------------------
# wrapping constructions


def test_wrap_t_n1(wrap_t_n1):
    wrap, words, elapsed = wrap_t_n1
    assert wrap.D.order == 259
    assert len(wrap.images) == 47
    H = subset_from_words("t", words)
    result = check_lwf_wrapping(H, wrap)
    assert result.valid, result.as_json()
    assert elapsed < 60


def test_wrap_s_n1(wrap_s_n1):
    wrap, words, elapsed = wrap_s_n1
    assert wrap.D.order == 5655
    assert len(wrap.images) == 41
    H = subset_from_words("s", words)
    result = check_lwf_wrapping(H, wrap)
    assert result.valid, result.as_json()
    assert elapsed < 60


def test_build_lwf_wrapping_rejects_bad_input():
    with pytest.raises(ValueError):
        build_lwf_wrapping("q", ["a"], 1)
    with pytest.raises(ValueError):
        build_lwf_wrapping("t", [], 1)
    with pytest.raises(ValueError):
        build_lwf_wrapping("t", ["aa"], 1)  # word longer than n


@pytest.mark.parametrize("preset, word, rep", [("t", "bxax", "xex"),
                                               ("s", "axc", "acx")])
def test_wrapping_at_n2_names_the_undecided_pair(preset, word, rep):
    # at n = 2 the base partition of the words of length <= 4 fails, and the
    # error names the pair the oracle leaves open
    with pytest.raises(RuntimeError, match=f"^cannot partition the defining "
                                           f"words: '{word}' vs '{rep}' is undecided$"):
        build_lwf_wrapping(preset, ["a"], 2)


def test_build_lwf_wrapping_accepts_subsets():
    words = all_words("abcdex", 1)
    H = subset_from_words("t", words)
    wrap = build_lwf_wrapping("t", H, 1)
    assert check_lwf_wrapping(H, wrap).valid
