"""Pre-accurate word enumeration and the wrapping constructions for S and T."""

import numpy as np
import pytest

from conftest import all_words

import lef.lwf
from lef.approx import check_lwf_wrapping, subset_from_words
from lef.fsg import zero_element
from lef.lwf import (
    PreAccurateSet,
    apriori_length_bound,
    build_lwf_wrapping,
    enumerate_preaccurate,
    fallback_element,
    sm_ideal_quotient,
)
from lef.oracle import equal_to_any, sm_canonical, word_equal
from lef.words import ALPHABETS, e_reduced_length


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
    base_words = tuple(all_words(ALPHABETS[preset], n))
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

    by_length = {ell: all_words(ALPHABETS[preset], ell, ell)
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
                                            ("t", 2, 12), ("s", 2, 12)])
def test_preaccurate_matches_the_unbucketed_reference(preset, n, cap):
    assert (enumerate_preaccurate(preset, n, cap)
            == _reference_preaccurate(preset, n, cap))


def test_preaccurate_t_n2_asks_few_oracle_calls(monkeypatch):
    # comparing each candidate with every representative took about 73k
    # oracle calls here, and one call per bucketed pair a few thousand; one
    # multi-target call per word leaves at most one per base or candidate word
    asked = []

    def counting(preset, w, targets):
        asked.append(w)
        return equal_to_any(preset, w, targets)

    monkeypatch.setattr(lef.lwf, "equal_to_any", counting)
    pre = enumerate_preaccurate("t", 2)
    by_length: dict[int, list[str]] = {}
    for w in pre.words:
        by_length.setdefault(len(w), []).append(w)
    candidates = {u + v for ell in range(pre.n + 1, pre.length_cap + 1)
                  for j in range(1, ell)
                  for u in by_length.get(j, ()) for v in by_length.get(ell - j, ())}
    assert asked and len(asked) == len(set(asked))
    assert set(asked) <= set(pre.base_words) | candidates


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


def test_apriori_length_bound():
    assert apriori_length_bound(1) == 2 ** 36
    assert apriori_length_bound(2) == 2 * 2 ** (6 ** 3)


def test_fallback_element():
    w = fallback_element("t", 2)
    assert w == "aaa"
    assert len(w) == 3
    assert fallback_element("s", 2) == "aaa"


# ---------------------------------------------------------------------------
# the S_m ideal quotient carrier


def test_sm_ideal_quotient():
    mt, word_map = sm_ideal_quotient(3, 1)
    zero = zero_element(mt)
    assert zero is not None
    # e-run folding matches the canonical form
    e = word_map["e"]
    ee = word_map["ee"]
    assert mt.mul(e, ee) == e  # eee = e (m = 3)
    assert mt.mul(ee, ee) == ee  # e^4 ~ e^2
    assert sm_canonical("eeee", 3) == "ee"
    # words beyond the e-reduced length bound collapse to zero
    a = word_map["a"]
    assert mt.mul(a, a) == zero


@pytest.mark.parametrize("m, bound", [
    pytest.param(m, bound, id=f"{bound}-{m}")
    for bound in (0, 1, 2) for m in (2, 3, 4)] + [
    # the 5,655-element carrier of the s wrapping at n = 1
    pytest.param(3, 3, id="3-3")])
def test_sm_ideal_quotient_cells_are_canonical_products(m, bound):
    mt, index = sm_ideal_quotient(m, bound)
    by_reduced: dict[int, list[int]] = {}
    for i in range(1, mt.order):
        by_reduced.setdefault(e_reduced_length(mt.label(i)), []).append(i)
    expected = np.zeros_like(mt.table)
    for ki, rows in by_reduced.items():
        for kj in range(bound + 1 - ki):
            for i in rows:
                for j in by_reduced.get(kj, ()):
                    expected[i, j] = index[sm_canonical(
                        mt.label(i) + mt.label(j), m)]
    assert np.array_equal(mt.table, expected)


def test_sm_ideal_quotient_rejects_bad_m():
    with pytest.raises(ValueError):
        sm_ideal_quotient(1, 1)


# ---------------------------------------------------------------------------
# wrapping constructions


def test_wrap_t_n1(wrap_t_n1):
    wrap, words, elapsed = wrap_t_n1
    assert wrap.D.order == 259
    assert len(set(wrap.d)) == 47
    H = subset_from_words("t", words)
    result = check_lwf_wrapping(H, wrap)
    assert result.valid, result.as_json()
    assert elapsed < 60


def test_wrap_s_n1(wrap_s_n1):
    wrap, words, elapsed = wrap_s_n1
    assert wrap.D.order == 5655
    assert len(set(wrap.d)) == 41
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
