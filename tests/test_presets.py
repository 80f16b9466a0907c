"""Built-in presentations, rewriting systems, and the bicyclic partial table."""

import pytest

from lef.presets import (
    PRESENTATIONS,
    PRESET_IDS,
    Q_SYSTEM,
    REWRITE_ORDER,
    bicyclic4_table,
    build_fn_system,
    preset_letters,
    preset_presentation,
    preset_system,
    sm_presentation,
)
from lef.rewrite import normal_form


def test_presentation_inventory():
    assert set(PRESENTATIONS) == {"q", "s", "t", "c"}
    q = PRESENTATIONS["q"]
    assert q.generators == ("a", "b", "c", "e", "x")
    assert set(q.relations) == {
        ("xb", "cx"), ("ac", "ca"), ("ae", "ea"),
        ("ec", "ce"), ("xca", "xe"), ("aex", "ax"),
    }
    t = PRESENTATIONS["t"]
    assert t.generators == ("a", "b", "c", "d", "e", "x")
    assert ("axb", "acx") in t.relations
    c = PRESENTATIONS["c"]
    assert set(c.relations) == {("ax", "by"), ("cx", "dy"), ("au", "bv")}
    assert len(c.generators) == 8


def test_presentation_json():
    data = PRESENTATIONS["s"].as_json()
    assert data["generators"] == ["a", "b", "c", "e", "x"]
    assert ["axb", "acx"] in data["relations"]


def test_sm_presentation():
    p = sm_presentation(3)
    assert p.relations == (("eee", "e"),)
    assert p.generators == ("a", "b", "c", "e", "x")
    with pytest.raises(ValueError):
        sm_presentation(1)


def test_rewrite_order():
    assert REWRITE_ORDER == "acebx"
    assert Q_SYSTEM.order == "acebx"


def test_q_system_shape():
    assert len(Q_SYSTEM.schemas) == 12
    assert [s.id for s in Q_SYSTEM.schemas[:4]] == ["q1a", "q1b", "q1c", "q1d"]
    assert Q_SYSTEM.parameter_n is None
    assert Q_SYSTEM.assert_decrease


def test_fn_system_shape():
    fn = build_fn_system(2)
    assert fn.parameter_n == 2
    assert len(fn.schemas) == 25
    ids = [s.id for s in fn.schemas]
    assert "f13a" in ids and "f13b" in ids
    with pytest.raises(ValueError):
        build_fn_system(0)


def test_fn_relation_sample():
    # a^{2n+1} = a in F_n
    fn = build_fn_system(2)
    assert normal_form(fn, "a" * 5) == "a"
    assert normal_form(fn, "a" * 4) == "aaaa"


def test_bicyclic4_table():
    pt = bicyclic4_table()
    assert pt.elements == ("1", "a", "b", "ba")
    assert len(pt.products) == 12
    products = pt.products
    assert products[("a", "b")] == "1"
    assert products[("b", "a")] == "ba"
    assert products[("1", "ba")] == "ba"
    assert ("b", "b") not in products
    assert ("a", "ba") in products  # a(ba) = (ab)a = a? -> a*ba = a
    assert products[("a", "ba")] == "a"


def test_preset_lookup():
    assert preset_presentation("q") is PRESENTATIONS["q"]
    assert preset_presentation("T") is PRESENTATIONS["t"]
    assert preset_presentation("sm:4").relations == (("eeee", "e"),)
    for preset in ("bicyclic4", "fn:2"):
        with pytest.raises(ValueError,
                           match=f"preset '{preset}' has no defining relations"):
            preset_presentation(preset)
    with pytest.raises(ValueError, match="no defining relations"):
        preset_letters("bicyclic4")
    for lookup in (preset_presentation, preset_letters):
        with pytest.raises(KeyError, match="unknown preset 'nope'"):
            lookup("nope")


def test_preset_system():
    assert preset_system("q") is Q_SYSTEM
    assert preset_system("fn:3").parameter_n == 3
    with pytest.raises(KeyError):
        preset_system("s")


def test_preset_ids_inventory():
    assert "q" in PRESET_IDS and "bicyclic4" in PRESET_IDS
