"""Word-equality oracles: normal forms, invariant separation, bidirectional
search, closure exhaustion, and path replay."""

import functools
import gc
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lef.oracle
from conftest import WORD_LETTERS, all_words, bounded_closure
from lef.constructors import build_fn
from lef.oracle import (
    DEFAULT_NODE_BOUND,
    EqualityVerdict,
    _search_verdict,
    congruence_class,
    equal_to_any,
    normal_form_map,
    one_step_words,
    replay_path,
    sm_canonical,
    word_equal,
    word_equal_bfs,
    word_equal_nf,
)
from lef.presets import PRESENTATIONS, Q_SYSTEM
from lef.rewrite import RewriteSystem, make_schema
from lef.words import separating_quantity


# ---------------------------------------------------------------------------
# normal-form oracle (q, fn:<n> and sm:<m>)


def test_word_equal_nf_q():
    verdict = word_equal_nf("q", "xca", "xe")
    assert verdict.status == "equal"
    assert verdict.evidence == {"kind": "normal_form", "left": "xe", "right": "xe"}
    assert word_equal_nf("q", "xb", "cx").status == "equal"
    assert word_equal_nf("q", "a", "b").status == "distinct"


def test_word_equal_nf_fn():
    assert word_equal_nf("fn:2", "aaaaa", "a").status == "equal"
    assert word_equal_nf("fn:2", "aaaa", "a").status == "distinct"


def test_word_equal_nf_rejects_non_confluent_presets():
    with pytest.raises(ValueError):
        word_equal_nf("s", "a", "a")
    with pytest.raises(ValueError):
        word_equal_nf("nope", "a", "a")


@pytest.mark.parametrize("preset", ["q", "fn:1", "t", "s", "c", "sm:3"])
def test_the_empty_word_is_no_element(preset):
    check = word_equal_nf if preset in ("q", "fn:1", "sm:3") else word_equal_bfs
    for u, v in (("", ""), ("", "e"), ("a", "")):
        with pytest.raises(ValueError, match="the empty word names no element"):
            check(preset, u, v)


def test_word_equal_nf_sm_by_canonical_forms():
    verdict = word_equal_nf("sm:3", "eeeee", "e")
    assert verdict == EqualityVerdict(
        "equal", {"kind": "normal_form", "left": "e", "right": "e"})
    assert word_equal_nf("sm:3", "ee", "e").status == "distinct"


@pytest.mark.parametrize("preset", ["sm:3", "fn:2", "bicyclic4", "zzz"])
def test_the_bounded_oracle_has_one_gate(preset):
    message = f"the bounded oracle covers the presets q, s, t, c, not '{preset}'"
    with pytest.raises(ValueError, match=message):
        word_equal_bfs(preset, "e", "e")
    with pytest.raises(ValueError, match=message):
        equal_to_any(preset, "e", ["e"])


# ---------------------------------------------------------------------------
# S_m canonical forms


def test_sm_canonical():
    # e-runs of length >= m fold back by (k-1) mod (m-1) + 1
    assert sm_canonical("aeeea", 3) == "aea"
    assert sm_canonical("aeea", 3) == "aeea"
    assert sm_canonical("e" * 7, 3) == "e"
    assert sm_canonical("ax", 5) == "ax"
    with pytest.raises(ValueError):
        sm_canonical("e", 1)


# ---------------------------------------------------------------------------
# one-step neighbourhoods and closures


def test_one_step_words():
    relations = PRESENTATIONS["q"].relations
    neighbours = set(one_step_words("xca", relations))
    assert neighbours == {"xe", "xac"}
    # both directions of a relation are applied
    assert "xb" in one_step_words("cx", relations)


def test_bounded_closure_completes_on_isolated_words():
    relations = PRESENTATIONS["q"].relations
    closure, complete = bounded_closure(relations, ["a"], length_bound=3)
    assert closure == {"a"}
    assert complete


def test_bounded_closure_truncates():
    relations = PRESENTATIONS["q"].relations
    # ax ~ aex ~ aeex ~ ... pumps e's forever, so small bounds cannot complete
    closure, complete = bounded_closure(relations, ["ax"], length_bound=4)
    assert "aex" in closure
    assert not complete


def test_bounded_closure_node_bound():
    relations = PRESENTATIONS["s"].relations
    closure, complete = bounded_closure(
        relations, ["axbxb"], length_bound=12, node_bound=10
    )
    assert not complete
    assert len(closure) >= 10


def test_congruence_class_is_the_component_reached_from_each_member(monkeypatch):
    # the t base classes of the pre-accurate words at n = 2, cap 8
    relations = PRESENTATIONS["t"].relations
    classes = {w: congruence_class("t", w, 12) for w in all_words(WORD_LETTERS["t"], 2)}
    for w, members in classes.items():
        assert (members, True) == bounded_closure(relations, [w], 12)
        for u in members:
            assert congruence_class("t", u, 12) == members
            assert set(one_step_words(u, relations)) <= members
    # a e^k x pumps e's past any bound
    assert congruence_class("s", "ax", 14) is None
    assert not bounded_closure(PRESENTATIONS["s"].relations, ["ax"], 14)[1]
    largest = max(classes.values(), key=len)
    monkeypatch.setattr(lef.oracle, "DEFAULT_NODE_BOUND", len(largest) - 1)
    assert congruence_class("t", min(largest), 12) is None


# ---------------------------------------------------------------------------
# the BFS oracle


def test_bfs_equal_with_replayable_path():
    verdict = word_equal_bfs("t", "xcd", "xe")
    assert verdict.status == "equal"
    assert verdict.evidence["kind"] == "path"
    path = verdict.evidence["path"]
    assert path[0] == "xcd" and path[-1] == "xe"
    assert replay_path("t", path)


def test_bfs_path_flips_for_reversed_query():
    forward = word_equal_bfs("t", "xcd", "xe")
    backward = word_equal_bfs("t", "xe", "xcd")
    assert backward.evidence["path"] == list(reversed(forward.evidence["path"]))


def test_bfs_distinct_by_invariant():
    verdict = word_equal_bfs("q", "a", "b")
    assert verdict.status == "distinct"
    assert verdict.evidence["kind"] == "invariant"
    assert verdict.evidence["name"] == "diff_a_minus_bc"


def test_bfs_distinct_by_closure_exhaustion():
    # all relations of preset c preserve length, so classes of short words are
    # finite and the closure completes
    verdict = word_equal_bfs("c", "ax", "cx")
    assert verdict.status == "distinct"
    assert verdict.evidence["kind"] == "closure"


def test_bfs_equal_in_c():
    verdict = word_equal_bfs("c", "ax", "by")
    assert verdict.status == "equal"


def test_bfs_unknown_under_tiny_bounds():
    verdict = word_equal_bfs("s", "xexb", "bxex", length_bound=4, node_bound=3)
    # xexb = bxex is a defining relation; with sabotaged bounds the oracle
    # may still find the one-step path, so probe a non-adjacent pair instead
    hard = word_equal_bfs("s", "axexb", "abxex", length_bound=5, node_bound=2)
    assert hard.status in {"equal", "unknown"}
    if hard.status == "unknown":
        assert hard.evidence["kind"] == "bound"
    assert verdict.status in {"equal", "unknown"}


def test_bfs_identical_words():
    verdict = word_equal_bfs("s", "ax", "ax")
    assert verdict.status == "equal"


def test_a_closure_names_the_side_that_was_searched():
    # the class of ae is {ae, ed}; the class of a is {a}
    verdict = word_equal_bfs("t", "ae", "a")
    assert verdict == _search_verdict("t", "ae", ("a",), None, DEFAULT_NODE_BOUND)
    assert (verdict.evidence["side"], verdict.evidence["closure_size"]) == ("left", 2)
    assert congruence_class("t", "ae", 8) == {"ae", "ed"}


def test_every_closure_verdict_is_the_class_of_the_side_it_names():
    # every ordered pair of words of length <= 2; a closure under the default
    # length bound lies within that bound, so congruence_class finds it whole
    for preset in ("t", "s", "c"):
        short = all_words(WORD_LETTERS[preset], 2)
        for u in short:
            for v in short:
                ev = word_equal_bfs(preset, u, v).evidence
                if ev["kind"] != "closure":
                    continue
                named, other = (u, v) if ev["side"] == "left" else (v, u)
                members = congruence_class(preset, named, len(u) + len(v) + 4)
                assert members is not None and len(members) == ev["closure_size"]
                assert other not in members


def test_a_bounded_verdict_memo_evicts_and_gives_the_same_verdicts(monkeypatch):
    queries = [("t", "xcd", "xe"), ("q", "a", "b"), ("c", "ax", "cx"), ("c", "ax", "by"),
               ("t", "xe", "xcd")]
    memo = lef.oracle._verdict_memo
    assert memo.cache_info().maxsize == lef.oracle._VERDICT_MEMO_SIZE
    monkeypatch.setattr(lef.oracle, "_verdict_memo",
                        functools.lru_cache(maxsize=None)(memo.__wrapped__))
    expected = [word_equal_bfs(*query) for query in queries]
    small = functools.lru_cache(maxsize=2)(memo.__wrapped__)
    monkeypatch.setattr(lef.oracle, "_verdict_memo", small)
    for _ in range(2):
        assert [word_equal_bfs(*query) for query in queries] == expected
        assert small.cache_info().currsize == 2
    # ("c", "ax", "by") and ("t", "xcd", "xe") are kept, the latter the most recent
    hits = small.cache_info().hits
    word_equal_bfs("c", "ax", "by")  # a hit, now the most recent
    word_equal_bfs("q", "a", "b")    # so this evicts ("t", "xcd", "xe")
    word_equal_bfs("c", "ax", "by")
    assert small.cache_info().hits == hits + 2
    word_equal_bfs("t", "xe", "xcd")
    assert small.cache_info().hits == hits + 2
    # the memo keys the pair in the order asked: the reversed pair is a miss
    word_equal_bfs("t", "xcd", "xe")
    assert small.cache_info().hits == hits + 2
    word_equal_bfs("t", "xe", "xcd")
    assert small.cache_info().hits == hits + 3


def test_a_system_that_fails_the_confluence_pass_is_refused_and_not_kept(monkeypatch):
    small = functools.lru_cache(maxsize=2)(lef.oracle._exact_map.__wrapped__)
    monkeypatch.setattr(lef.oracle, "_exact_map", small)
    # "ab" reduces to "a" by r1 and to "ac" by r2, and both are irreducible
    diverging = RewriteSystem(name=Q_SYSTEM.name, alphabet="abc", order="abc",
                              schemas=(make_schema("r1", "ab", "a"), make_schema("r2", "b", "c")))
    monkeypatch.setattr(lef.oracle, "Q_SYSTEM", diverging)
    for _ in range(2):  # refused each time: nothing was kept
        with pytest.raises(RuntimeError,
                           match="^system q is not locally confluent: 'ab' splits to 'a' / 'ac'$"):
            word_equal_nf("q", "ab", "a")
        assert small.cache_info().currsize == 0
    monkeypatch.setattr(lef.oracle, "Q_SYSTEM", Q_SYSTEM)
    assert word_equal_nf("q", "xca", "xe").status == "equal"
    assert small.cache_info().currsize == 1


def test_the_confluence_checks_kept_are_bounded_least_recent_out(monkeypatch):
    assert lef.oracle._exact_map.cache_info().maxsize == lef.oracle._EXACT_MAPS_SIZE
    runs = []
    check = lef.oracle.check_local_confluence
    monkeypatch.setattr(lef.oracle, "check_local_confluence",
                        lambda system, **kw: runs.append(system.parameter_n) or check(system, **kw))
    small = functools.lru_cache(maxsize=2)(lef.oracle._exact_map.__wrapped__)
    monkeypatch.setattr(lef.oracle, "_exact_map", small)

    def ask(n):
        verdict = word_equal_nf(f"fn:{n}", "a" * (2 * n + 1), "a")
        assert small.cache_info().currsize <= 2
        return verdict

    first = {n: ask(n) for n in (1, 2)}
    assert ask(1) == first[1]  # a hit: fn:1 is now the most recent
    ask(3)                     # so this evicts fn:2
    assert ask(1) == first[1]
    # one pass per map while the map is kept
    assert runs == [1, 2, 3]
    # the evicted map is built and checked again, with the same verdict
    assert ask(2) == first[2] and first[2].status == "equal"
    assert runs == [1, 2, 3, 2]
    # another spelling of a kept id is the same map
    assert word_equal_nf("FN:02", "aaaaa", "a") == first[2]
    assert runs == [1, 2, 3, 2]
    # sm:<m> has canonical forms and no system to check
    assert word_equal_nf("sm:3", "eeeee", "e").status == "equal"
    assert runs == [1, 2, 3, 2]


def test_build_fn_keeps_no_systems():
    """The exact map holds the one compiled copy of each F_n system it keeps:
    build_fn compiles anew and keeps nothing, so building other shadows
    leaves the kept map as it was and no second fn:1 system alive."""
    assert word_equal_nf("fn:1", "aaa", "a").status == "equal"
    kept = normal_form_map("fn:1").__self__
    for n in range(2, 18):
        build_fn(n)
    fresh = build_fn(1)
    assert fresh is not kept and fresh.system is not kept.system
    assert fresh.element("aaa") == kept.element("aaa") == "a"
    dropped = weakref.ref(fresh.system)
    del fresh
    gc.collect()
    assert dropped() is None
    assert normal_form_map("fn:1").__self__ is kept


def test_an_sm_id_below_2_is_refused_before_anything_is_kept(monkeypatch):
    runs = []
    check = lef.oracle.check_local_confluence
    monkeypatch.setattr(lef.oracle, "check_local_confluence",
                        lambda system, **kw: runs.append(system.name) or check(system, **kw))
    fresh = functools.lru_cache(maxsize=lef.oracle._EXACT_MAPS_SIZE)(
        lef.oracle._exact_map.__wrapped__)
    monkeypatch.setattr(lef.oracle, "_exact_map", fresh)
    assert word_equal_nf("q", "xca", "xe").status == "equal"
    for m in range(-20, 2):  # more ids than the cache has slots
        with pytest.raises(ValueError, match="^sm preset needs m >= 2$"):
            word_equal_nf(f"sm:{m}", "e", "e")
    assert fresh.cache_info().currsize == 1
    assert word_equal_nf("q", "xb", "cx").status == "equal"
    assert runs == ["q"]


def test_bfs_rejects_unknown_preset():
    with pytest.raises((KeyError, ValueError)):
        word_equal_bfs("zzz", "a", "b")


# ---------------------------------------------------------------------------
# the one entry point: normal forms for q, fn:<n> and sm:<m>, the bounded oracle else


@pytest.mark.parametrize("preset, u, v, status", [
    ("q", "xca", "xe", "equal"),
    ("q", "a", "b", "distinct"),
    ("fn:2", "aaaaa", "a", "equal"),
    ("fn:2", "aaaa", "a", "distinct"),
    ("s", "axb", "acx", "equal"),
    ("s", "xb", "bx", "distinct"),
    ("s", "axc", "acx", "unknown"),
    ("t", "xcd", "xe", "equal"),
    ("t", "a", "b", "distinct"),
    ("t", "bxax", "xex", "unknown"),
    ("c", "ax", "by", "equal"),
    ("c", "ax", "cx", "distinct"),
    ("sm:3", "eeeee", "e", "equal"),
    ("sm:3", "ee", "e", "distinct"),
])
def test_word_equal_matches_the_oracle_it_dispatches_to(preset, u, v, status):
    direct = word_equal_nf if preset in ("q", "fn:2", "sm:3") else word_equal_bfs
    verdict = word_equal(preset, u, v)
    assert verdict == direct(preset, u, v)
    assert verdict.status == status


# ---------------------------------------------------------------------------
# invariant separation and replay


def test_invariant_separates():
    # the oracle separates words by the first conserved quantity that differs
    assert separating_quantity("a", "b", "q") == "diff_a_minus_bc"
    assert separating_quantity("xca", "xe", "q") is None
    assert word_equal_bfs("q", "xca", "xe").evidence["kind"] != "invariant"


def test_replay_path_rejects_bad_paths():
    assert not replay_path("q", [])
    assert not replay_path("q", ["xca", "xca"])  # not one relation step
    assert not replay_path("q", ["xca", "xb"])
    with pytest.raises(ValueError, match="outside"):
        replay_path("q", ["xca", "bogus"])  # o, g, u and s are no letters of q
    assert replay_path("q", ["xca", "xe"])
    assert replay_path("q", ["xca", "xac", "xca"])  # revisiting is allowed
    with pytest.raises(ValueError, match="has no defining relations"):
        replay_path("bicyclic4", ["a", "b"])  # a partial table, not a presentation


@pytest.mark.parametrize("word", ["zz", ""])
def test_replay_path_checks_its_words(word):
    with pytest.raises(ValueError):
        replay_path("t", [word])


# ---------------------------------------------------------------------------
# one word against several targets


def test_equal_to_any_names_the_target_it_met():
    verdict = equal_to_any("t", "xcd", ["xa", "xe", "xb"])
    assert verdict.status == "equal"
    assert verdict.evidence["target"] == "xe"
    path = verdict.evidence["path"]
    assert path[0] == "xcd" and path[-1] == "xe" and replay_path("t", path)
    assert equal_to_any("c", "ax", ["cx", "dx"]).status == "distinct"
    assert equal_to_any("q", "xca", ["a", "xe"]).evidence["target"] == "xe"


def test_equal_to_any_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least one target"):
        equal_to_any("t", "a", [])
    with pytest.raises(ValueError, match="the empty word names no element"):
        equal_to_any("t", "a", ["b", ""])
    with pytest.raises(ValueError, match="outside"):
        equal_to_any("t", "a", ["b", "y"])
    with pytest.raises(ValueError):
        equal_to_any("sm:3", "e", ["ee"])


def test_equal_to_any_has_no_normal_form_path():
    # fn:<n> has a confluent system but no defining relations to search
    with pytest.raises(ValueError, match="the bounded oracle covers the presets "
                                         "q, s, t, c, not 'fn:2'"):
        equal_to_any("fn:2", "xa", ["xe"])


def test_equal_to_any_drops_the_targets_a_quantity_separates():
    # every target separated: distinct, named against the first target
    verdict = equal_to_any("t", "xcd", ["a", "xax", "bx"])
    assert verdict.status == "distinct"
    assert verdict.evidence == {"kind": "invariant",
                                "name": separating_quantity("xcd", "a", "t")}
    assert verdict == word_equal_bfs("t", "xcd", "a")
    # a mixed list gives the verdict of the targets no quantity separates
    for preset, w, mixed in [("t", "xcd", ["a", "xa", "xe", "xax", "xb"]),
                             ("s", "ax", ["x", "cx", "ax", "aex"]),
                             ("c", "ax", ["a", "cx", "abc", "dx"])]:
        kept = [r for r in mixed if separating_quantity(w, r, preset) is None]
        assert len(kept) < len(mixed)
        assert equal_to_any(preset, w, mixed) == equal_to_any(preset, w, kept)


def _walk(w: str, relations, picks) -> str:
    """The word reached from w by one relation step per pick."""
    for pick in picks:
        step = one_step_words(w, relations)
        if not step:
            break
        w = step[pick % len(step)]
    return w


# the pairwise gate runs under a small node budget: a verdict it reaches is
# the one the default budget reaches too, since the search is the same
_PAIR_NODES = 20_000


@settings(derandomize=True, max_examples=100, deadline=None)
@given(preset=st.sampled_from(["t", "s", "c"]), data=st.data())
def test_equal_to_any_agrees_with_every_decided_pair(preset, data):
    alphabet = WORD_LETTERS[preset]
    relations = PRESENTATIONS[preset].relations
    w = data.draw(st.text(alphabet, min_size=2, max_size=5), label="w")
    pool = data.draw(st.lists(st.permutations(w).map("".join)
                              | st.text(alphabet, min_size=2, max_size=5),
                              min_size=1, max_size=4), label="pool")
    if data.draw(st.booleans(), label="with a word equal to w"):
        picks = data.draw(st.lists(st.integers(0, 99), max_size=3), label="walk")
        pool.append(_walk(w, relations, picks))
    # the whole pool, targets that a quantity separates from w included
    targets = sorted(set(pool))
    pairwise = {r: word_equal_bfs(preset, w, r, node_bound=_PAIR_NODES)
                for r in targets}
    statuses = {r: v.status for r, v in pairwise.items()}
    assume("unknown" not in statuses.values())
    verdict = equal_to_any(preset, w, targets)
    if "equal" in statuses.values():
        assert verdict.status == "equal"
        target = verdict.evidence["target"]
        assert statuses[target] == "equal"
        path = verdict.evidence["path"]
        assert path[0] == w and path[-1] == target and replay_path(preset, path)
    elif all(v.evidence["kind"] == "invariant" for v in pairwise.values()):
        assert verdict == pairwise[targets[0]]
    else:
        assert verdict.status == "distinct"
        assert verdict.evidence["kind"] == "closure"


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_bfs_never_contradicts_the_normal_forms_on_q(data):
    relations = PRESENTATIONS["q"].relations
    u = data.draw(st.text(WORD_LETTERS["q"], min_size=1, max_size=5), label="u")
    v = data.draw(st.one_of(
        st.lists(st.integers(0, 99), max_size=4).map(lambda p: _walk(u, relations, p)),
        st.permutations(u).map("".join),
        st.text(WORD_LETTERS["q"], min_size=1, max_size=5)), label="v")
    bfs = word_equal_bfs("q", u, v, node_bound=_PAIR_NODES)
    if bfs.status != "unknown":
        assert bfs.status == word_equal_nf("q", u, v).status
