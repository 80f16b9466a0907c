"""Word checks, block counts, e-reduced length and conserved quantities."""

import itertools

import pytest
from conftest import WORD_LETTERS, all_words

from lef.presets import PRESENTATIONS, preset_letters
from lef.words import (
    block_count_s,
    check_letters,
    conserved_vector,
    e_reduced_length,
    one_step_words,
    separating_quantity,
)


def test_block_count_s():
    # maximal blocks made of x and b letters
    assert block_count_s("") == 0
    assert block_count_s("aceae") == 0
    assert block_count_s("x") == 1
    assert block_count_s("xbbxb") == 2
    assert block_count_s("bxb") == 2
    assert block_count_s("axbca") == 1
    assert block_count_s("xxx") == 3  # every x starts a new block
    assert block_count_s("xbbb") == 1


def test_block_count_s_rejects_foreign_letters():
    with pytest.raises(ValueError):
        block_count_s("ad")


@pytest.mark.parametrize("fact, word, preset", [
    (block_count_s, "ad", "s"),
    (lambda w: conserved_vector(w, "t"), "ay", "t"),
    (lambda w: conserved_vector(w, "s"), "xdx", "s"),  # inside the word
])
def test_word_facts_share_one_letter_test(fact, word, preset):
    with pytest.raises(ValueError) as expected:
        check_letters(word, preset_letters(preset), preset)
    with pytest.raises(ValueError) as got:
        fact(word)
    assert str(got.value) == str(expected.value)


def test_e_reduced_length():
    assert e_reduced_length("") == 0
    assert e_reduced_length("eee") == 0
    assert e_reduced_length("aexbe") == 3


def test_alphabets():
    # a preset's letters are its generators in order; fn:<n> spells its words
    # in the letters of the rewriting order
    assert preset_letters("q") == preset_letters("s") == "abcex"
    assert preset_letters("t") == "abcdex"
    assert preset_letters("c") == "abcdxyuv"
    assert preset_letters("sm:3") == "abcex"
    assert preset_letters("fn:2") == "acebx"
    # the tests draw from the same letters, in their own order
    for preset, letters in WORD_LETTERS.items():
        assert sorted(letters) == sorted(preset_letters(preset)), preset


def test_conserved_vector_q():
    # names in this order: separating_quantity reports the first that differs
    assert conserved_vector("xca", "q") == (
        ("x_count", 1), ("diff_a_minus_bc", 0),  # one a, one c
        ("prefix_a_count", 0), ("suffix_ae_count", 1))


@pytest.mark.parametrize("preset, word, quantities", [
    ("s", "aexbxae", [("x_count", 2), ("diff_a_minus_bc", 1),
                      ("prefix_a_count", 1), ("suffix_ae_count", 2)]),
    ("s", "abc", [("x_count", 0), ("diff_a_minus_bc", -1)]),
    ("t", "daxbxed", [("x_count", 2), ("diff_ad_minus_bc", 2),
                      ("prefix_ad_count", 2), ("suffix_ade_count", 2)]),
    ("c", "axyu", [("length", 4)]),
])
def test_conserved_vector_s_t_c(preset, word, quantities):
    assert list(conserved_vector(word, preset)) == quantities
    assert isinstance(hash(conserved_vector(word, preset)), int)  # a key


def test_conserved_vector_rejects_foreign_letters_and_presets():
    with pytest.raises(ValueError, match="outside the t alphabet"):
        conserved_vector("ay", "t")
    with pytest.raises(ValueError, match="no conserved-quantity registry"):
        conserved_vector("a", "fn:2")


@pytest.mark.parametrize("preset, max_len, edges", [
    ("q", 5, 6032), ("s", 5, 3882), ("t", 4, 780), ("c", 4, 1254),
])
def test_relation_steps_conserve_every_quantity(preset, max_len, edges):
    relations = PRESENTATIONS[preset].relations
    seen = 0
    for w in all_words(WORD_LETTERS[preset], max_len):
        quantities = conserved_vector(w, preset)
        for v in one_step_words(w, relations):
            seen += 1
            assert conserved_vector(v, preset) == quantities, (w, v)
    assert seen == edges


@pytest.mark.parametrize("preset", ["q", "s", "t", "c"])
def test_separating_quantity_is_none_exactly_on_equal_vectors(preset):
    # lwf asks the oracle only about words whose conserved vector is an open
    # class's, and the oracle drops targets a quantity separates; that is
    # sound because a separating quantity exists exactly when the vectors
    # differ
    words = all_words(WORD_LETTERS[preset], 3)
    vectors = {w: conserved_vector(w, preset) for w in words}
    for u, v in itertools.product(words, repeat=2):
        assert ((separating_quantity(u, v, preset) is None)
                == (vectors[u] == vectors[v])), (u, v)


def test_separating_quantity_respects_q_equalities():
    # xca = xe in Q, so no registered quantity may separate them
    assert separating_quantity("xca", "xe", "q") is None
    # a and b differ in the a-minus-bc balance
    assert separating_quantity("a", "b", "q") == "diff_a_minus_bc"


def test_separating_quantity_t():
    # axb = acx in T: conserved quantities must agree
    assert separating_quantity("axb", "acx", "t") is None
    assert separating_quantity("a", "b", "t") is not None


def test_separating_quantity_c_is_length_only():
    assert separating_quantity("ax", "by", "c") is None
    assert separating_quantity("ax", "x", "c") == "length"
