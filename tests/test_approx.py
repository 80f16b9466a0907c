"""Approximating pairs and wrapping maps: subsets, checkers, serialization,
and the constructive approximations for integers, Rees matrix semigroups, and
strong semilattices of groups."""

import itertools
import random

import pytest

from conftest import random_rees_instance, random_semilattice_instance, wrap_from_pair

import lef.approx
from lef.approx import (
    INT_GROUP,
    ApproxPair,
    FiniteSubset,
    WrapMap,
    approx_integers,
    approx_rees,
    approx_semilattice,
    check_approximating_pair,
    check_lwf_wrapping,
    cyclic_table,
    host_equal,
    host_mul,
    rees_subset,
    semilattice_subset,
    subset_from_integers,
    subset_from_table,
    subset_from_words,
)
from lef.constructors import quotient_by_length_ideal, sm_ideal_quotient
from lef.fsg import MulTable, is_clifford, is_group
from lef.lwf import build_lwf_wrapping
from lef.words import e_reduced_length


# ---------------------------------------------------------------------------
# subsets


def test_finite_subset_validation():
    with pytest.raises(ValueError):
        FiniteSubset(host="free:int", elements=(1, 1), defined_products=())
    with pytest.raises(ValueError):
        FiniteSubset(host="free:int", elements=(1, 2),
                     defined_products=((1, 2, 5),))  # product outside subset


def test_subset_from_table():
    z3 = cyclic_table(3)
    H = subset_from_table(z3, [0, 1])
    assert set(H.elements) == {"0", "1"}
    # products staying inside: 0+0, 0+1, 1+0 (1+1 = 2 escapes)
    assert len(H.defined_products) == 3
    by_labels = subset_from_table(z3, ["0", "1"])
    assert set(by_labels.elements) == set(H.elements)


def test_subset_from_words():
    H = subset_from_words("t", ["a", "b", "ab"])
    assert ("a", "b", "ab") in H.defined_products
    with pytest.raises(ValueError):
        subset_from_words("t", ["xcd", "xe"])  # equal in T: not a subset


def test_host_mul_and_equal():
    assert host_mul("t", "a", "b") == "ab"
    assert host_equal("q", "xca", "xe")
    assert not host_equal("q", "a", "b")
    spec, _ = random_rees_instance(random.Random(0))
    x = (spec.rows[0], 2, spec.cols[0])
    y = (spec.rows[0], 1, spec.cols[0])
    i, g, lam = host_mul(spec, x, y)
    assert (i, lam) == (spec.rows[0], spec.cols[0])
    assert g == 2 + spec.sandwich[0][0] + 1


def test_host_equal_raises_when_the_oracle_cannot_decide():
    # the bounded oracle gives up on this t pair after a few dozen nodes
    with pytest.raises(RuntimeError, match="oracle cannot settle 'bxax' = 'xex' in t"):
        host_equal("t", "bxax", "xex")


# ---------------------------------------------------------------------------
# checkers


def _int_subset(values):
    vals = tuple(values)
    products = tuple(
        (x, y, x + y) for x in vals for y in vals if x + y in set(vals)
    )
    return FiniteSubset(host="free:int", elements=vals, defined_products=products)


def test_approx_integers_valid():
    H = _int_subset([-1, 4, 7, 3])
    pair = approx_integers([-1, 4, 7, 3])
    result = check_approximating_pair(H, pair)
    assert result.valid
    assert is_group(pair.F)


def test_approx_integers_empty():
    pair = approx_integers([])
    assert pair.F.order == 1 and pair.f == {}


def test_check_pair_injectivity_failure():
    H = _int_subset([0, 1])
    bad = ApproxPair(F=cyclic_table(2), f={0: 0, 1: 0})
    result = check_approximating_pair(H, bad)
    assert not result.valid
    assert result.reason == "injectivity"
    assert result.counterexample is not None


def test_check_pair_product_failure():
    H = _int_subset([0, 1, 2])  # products 0+k and 1+1 defined
    bad = ApproxPair(F=cyclic_table(5), f={0: 0, 1: 1, 2: 3})  # 1+1 -> 2 != 3
    result = check_approximating_pair(H, bad)
    assert not result.valid
    assert result.reason == "product"


def test_a_json_pair_is_read_by_handle_key():
    H = subset_from_integers([0, 1, 5])
    assert H == _int_subset([0, 1, 5])
    with pytest.raises(ValueError, match="distinct"):
        subset_from_integers([0, 1, 0])
    data = {**approx_integers([0, 1, 5]).as_json(), "map": {"0": 1, "1": 3, "5": 4}}
    result = check_approximating_pair(H, ApproxPair.from_json(data))
    assert (result.reason, result.counterexample) == ("product", (0, 0, 0))


def test_check_pair_requires_total_map():
    H = _int_subset([0, 1])
    partial = ApproxPair(F=cyclic_table(2), f={0: 0})
    with pytest.raises(ValueError):
        check_approximating_pair(H, partial)


def test_check_result_json():
    H = _int_subset([0, 1])
    result = check_approximating_pair(H, approx_integers([0, 1]))
    data = result.as_json()
    assert data["valid"] is True


# ---------------------------------------------------------------------------
# serialization


def test_pair_json_round_trip():
    pair = approx_integers([1, 2, 3])
    clone = ApproxPair.from_json(pair.as_json())
    assert clone.F.order == pair.F.order
    assert set(clone.f) == {str(k) for k in pair.f} or set(clone.f) == set(pair.f)


def test_wrap_json_round_trip():
    z3 = cyclic_table(3)
    wrap = WrapMap(D=z3, d={0: "a", 1: "b"}, fallback="c")
    data = wrap.as_json()
    assert data["d_words"] == ["a", "b", "c"]
    clone = WrapMap.from_json(data)
    assert clone.d == {0: "a", 1: "b", 2: "c"} and clone.fallback is None
    assert clone.D.order == 3
    with pytest.raises(ValueError):
        WrapMap(D=z3, d={0: "a", 1: "b"})  # neither total nor a fallback
    with pytest.raises(ValueError):
        WrapMap(D=z3, d={3: "a"}, fallback="c")  # an entry outside D
    # rule carriers write their parameters, the entries by carrier word and
    # the fallback
    for D in (sm_ideal_quotient(3, 2), quotient_by_length_ideal("ab", 2)):
        wrap = WrapMap(D=D, d={D.index("a"): "ab", D.index("ba"): "b"},
                       fallback="bb")
        data = wrap.as_json()
        assert data["d"] == {"a": "ab", "ba": "b"} and data["fallback"] == "bb"
        clone = WrapMap.from_json(data)
        assert clone.D.to_json() == D.to_json()
        assert (clone.d, clone.fallback) == (wrap.d, wrap.fallback)
        assert clone.images == {"ab", "b", "bb"}


@pytest.mark.parametrize("cls, data, pointer", [
    (ApproxPair, {"table": {"order": 2, "table": [[0, 5], [0, 0]]}, "map": {}},
     "/table/table/0/1: entry 5 outside 0..1"),
    (ApproxPair, {"table": cyclic_table(2).to_json(), "map": {"x": True}},
     "/map/x: index True outside 0..1"),
    (WrapMap, {"table": cyclic_table(2).to_json(), "d_words": ["a"]},
     "/d_words: expected 2 entries"),
    (WrapMap, {"table": {"order": 1}, "d_words": ["a"]}, "/table/table: missing"),
    (ApproxPair, {"table": cyclic_table(2).to_json(), "map": {"1/2": 2}},
     "/map/1~12: index 2 outside 0..1"),
    (ApproxPair, {"table": {"order": 2, "table": [[0, True], [0, 0]]}, "map": {}},
     "/table/table/0/1: entry True outside 0..1"),
    (ApproxPair, {"table": {"order": 2, "table": [[0, 0], [1.0, 0]]}, "map": {}},
     "/table/table/1/0: entry 1.0 outside 0..1"),
    (ApproxPair, {"table": {"order": 2, "table": [[0, 0], [0, 2 ** 70]]}, "map": {}},
     f"/table/table/1/1: entry {2 ** 70} outside 0..1"),
    (ApproxPair, {"table": {"order": 2, "table": [[0, -1], [0]]}, "map": {}},
     "/table/table/0/1: entry -1 outside 0..1"),
])
def test_artifact_json_errors_carry_pointers(cls, data, pointer):
    with pytest.raises(ValueError) as info:
        cls.from_json(data)
    assert str(info.value) == pointer


# ---------------------------------------------------------------------------
# associativity of explicit tables


def _pair_of(constructor: str):
    """A subset and the pair one of the approx constructors builds for it."""
    if constructor == "integers":
        return _int_subset([0, 1, 5]), approx_integers([0, 1, 5])
    if constructor == "rees":
        spec, triples = random_rees_instance(random.Random(5))
        H = rees_subset(spec, triples)
        return H, approx_rees(spec, H)
    spec, pairs = random_semilattice_instance(random.Random(6))
    H = semilattice_subset(spec, pairs)
    return H, approx_semilattice(spec, H)


def _corrupt_one_cell(mt: MulTable, keep) -> MulTable:
    """mt with the first cell outside keep that can break associativity
    changed so that it does."""
    labels = tuple(mt.label(k) for k in range(mt.order))
    for i, j in itertools.product(range(mt.order), repeat=2):
        for v in range(mt.order):
            if (i, j) not in keep and v != mt.table[i, j]:
                table = mt.table.copy()
                table[i, j] = v
                bad = MulTable(table, labels)
                if not bad.is_associative():
                    return bad
    raise AssertionError("no single cell breaks associativity")


@pytest.mark.parametrize("constructor", ["integers", "rees", "semilattice"])
def test_checkers_fail_a_table_that_is_not_associative(constructor):
    H, pair = _pair_of(constructor)
    assert check_approximating_pair(H, pair).valid
    # the changed cell lies outside every mapped product, so only the
    # associativity check can see it
    F = pair.F
    bad = _corrupt_one_cell(F, {(pair.f[x], pair.f[y]) for x, y, _ in H.defined_products})
    one = {F.label(0): 0}
    identity = {k: F.label(k) for k in range(F.order)}
    assert check_lwf_wrapping(subset_from_table(F, [0]), WrapMap(D=F, d=identity)).valid
    for result in (
            check_approximating_pair(H, ApproxPair(F=bad, f=pair.f)),     # carrier
            check_approximating_pair(subset_from_table(bad, [0]),          # host
                                     ApproxPair(F=cyclic_table(1), f=one)),
            check_lwf_wrapping(subset_from_table(F, [0]), WrapMap(D=bad, d=identity)),
            check_lwf_wrapping(subset_from_table(bad, [0]), WrapMap(D=F, d=identity))):
        assert (result.valid, result.reason) == (False, "associativity")
        p, q, r = map(bad.index, result.counterexample)
        assert bad.mul(bad.mul(p, q), r) != bad.mul(p, bad.mul(q, r))


def test_rule_carriers_are_not_checked_as_tables(monkeypatch):
    # Rees quotients of a free semigroup are associative by construction; a
    # seeded sample of short triples, whose products stay off the zero, agrees
    rng = random.Random(7)
    for D, size in ((quotient_by_length_ideal("abcdex", 3), len),
                    (sm_ideal_quotient(3, 3), e_reduced_length)):
        short = [i for i in range(1, D.order) if size(D.label(i)) <= 1]
        for _ in range(2000):
            p, q, r = (rng.choice(short) for _ in range(3))
            assert D.mul(D.mul(p, q), r) == D.mul(p, D.mul(q, r)) != 0
    tables = []
    monkeypatch.setattr(lef.approx, "associativity_failures",
                        lambda mt, limit: tables.append(mt) or [])
    assert check_lwf_wrapping(subset_from_words("t", ["a"]),
                              build_lwf_wrapping("t", ["a"], 1)).valid
    assert tables == []


# ---------------------------------------------------------------------------
# wrapping maps from pairs (finite hosts)


def test_wrap_from_pair_round_trip():
    z4 = cyclic_table(4)
    H = subset_from_table(z4, [1, 2])
    pair = ApproxPair(F=z4, f={"1": 1, "2": 2})
    assert check_approximating_pair(H, pair).valid
    wrap = wrap_from_pair(H, pair)
    result = check_lwf_wrapping(H, wrap)
    assert result.valid
    assert wrap.d[1] == "1" and wrap.d[2] == "2"


def test_check_wrapping_coverage_failure():
    z4 = cyclic_table(4)
    H = subset_from_table(z4, [1, 2])
    # a wrapping whose image misses the member "2"
    wrap = WrapMap(D=cyclic_table(2), d={}, fallback="1")
    result = check_lwf_wrapping(H, wrap)
    assert not result.valid
    assert result.reason == "coverage"


def test_check_wrapping_visits_every_index_when_the_fallback_lies_in_h():
    z3 = cyclic_table(3)
    H = subset_from_table(z3, ["0", "1"])
    # the only entry, 0 -> "0", multiplies correctly with itself; the product
    # failure d(1)d(1) = "2" against d(2) = "1" sits at two non-entry indices
    wrap = WrapMap(D=z3, d={0: "0"}, fallback="1")
    result = check_lwf_wrapping(H, wrap)
    assert (result.valid, result.reason) == (False, "product")
    assert result.counterexample == ("1", "1", "1", "2")


# ---------------------------------------------------------------------------
# randomized campaigns (smaller mirrors of the acceptance sweep)


@pytest.mark.parametrize("seed", range(20))
def test_random_rees_pairs(seed):
    rng = random.Random(1000 + seed)
    spec, triples = random_rees_instance(rng)
    H = rees_subset(spec, triples)
    pair = approx_rees(spec, H)
    result = check_approximating_pair(H, pair)
    assert result.valid, result.as_json()


@pytest.mark.parametrize("seed", range(20))
def test_random_semilattice_pairs(seed):
    rng = random.Random(2000 + seed)
    spec, pairs = random_semilattice_instance(rng)
    H = semilattice_subset(spec, pairs)
    pair = approx_semilattice(spec, H)
    result = check_approximating_pair(H, pair)
    assert result.valid, result.as_json()
    assert is_clifford(pair.F)


def test_rees_subset_validates_indices():
    spec, _ = random_rees_instance(random.Random(3))
    with pytest.raises(ValueError):
        rees_subset(spec, [("nope", 0, spec.cols[0])])


def test_semilattice_subset_validates_components():
    spec, _ = random_semilattice_instance(random.Random(4))
    with pytest.raises(ValueError):
        semilattice_subset(spec, [("nope", 0)])


def test_int_group_handle():
    assert INT_GROUP.op(3, 4) == 7
    pair = INT_GROUP.approximator([0, 5])
    assert pair.F.order == 6


def test_a_wrap_reads_its_images_as_handles_of_its_host():
    dense = WrapMap(D=cyclic_table(2), d={0: "a", 1: "ay"})
    # free:<letters> takes any word
    assert dense.check_images("free:ay").d == dense.d
    with pytest.raises(ValueError, match=r"^/d_words/1: word 'ay' uses letters \['y'\]"):
        dense.check_images("s")
    # a table host takes its labels
    with pytest.raises(ValueError, match="^/d_words/0: no element labelled 'a' in a table of order 2$"):
        dense.check_images(cyclic_table(2))
    assert WrapMap(D=cyclic_table(2), d={0: "1", 1: "0"}).check_images(cyclic_table(2)).d == \
        {0: "1", 1: "0"}
    # free:int takes integers, and the map's images become them
    with pytest.raises(ValueError, match="^/d_words/0: 'a' is not an integer$"):
        dense.check_images("free:int")
    rule = WrapMap(D=sm_ideal_quotient(3, 2), d={1: "a"}, fallback="")
    assert (rule.check_images("free:ab").d, rule.check_images("free:ab").fallback) == ({1: "a"}, "")
    with pytest.raises(ValueError, match="^/fallback: the empty word names no element$"):
        rule.check_images("t")
    with pytest.raises(ValueError, match="^/d/e: 'a' is not an integer$"):
        rule.check_images("free:int")
    ints = WrapMap(D=quotient_by_length_ideal("a", 2), d={1: "1", 2: "-2"}, fallback="2")
    assert (ints.check_images("free:int").d, ints.check_images("free:int").fallback) == \
        ({1: 1, 2: -2}, 2)
