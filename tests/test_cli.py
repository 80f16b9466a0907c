"""The command-line interface, driven in-process through main(argv): exit
codes, text output, golden JSON payloads, data-error pointers, and round trips
between verbs."""

import copy
import functools
import json
import operator
import random

import numpy as np
import pytest

import lef.cli
import lef.fsg
from conftest import find_relational_assignments, wrap_from_pair
from lef.approx import ApproxPair, WrapMap, approx_integers, cyclic_table, subset_from_table
from lef.cli import main
from lef.fsg import (MulTable, PartialTable, is_clifford, is_completely_simple, is_group,
                     is_j_trivial)
from lef.rewrite import RewriteSystem, make_schema, normal_form
from lef.oracle import word_equal
from lef.presets import PRESENTATIONS, PRESET_IDS, Q_SYSTEM, preset_letters, preset_presentation


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# contract examples


def test_nf_contract_example(capsys):
    code, out, err = run(capsys, "nf", "--system", "q", "--word", "xca")
    assert code == 0
    assert out.strip() == "xe"


def test_verify_appendix_contract_example(capsys):
    code, out, _ = run(capsys, "verify-appendix", "--which", "A", "--max-exp", "4")
    assert code == 0
    assert "all joined" in out
    assert "26/26" in out


def test_embed_contract_example(capsys):
    code, out, _ = run(capsys, "embed", "--partial", "bicyclic4", "--max-order", "4")
    assert code == 3
    assert "not embeddable up to order 4" in out
    assert "search exhausted" in out


# ---------------------------------------------------------------------------
# rewriting verbs


def test_rewrite_trace(capsys):
    code, out, _ = run(capsys, "rewrite", "--system", "q", "--word", "xcab")
    assert code == 0
    assert normal_form(Q_SYSTEM, "xcab") in out


def test_rewrite_json(capsys):
    code, data, _ = run_json(capsys, "rewrite", "--system", "q", "--word", "xca",
                             "--json")
    assert code == 0
    assert data["result"] == "xe"
    assert data["irreducible"] is True
    assert [s["rule"] for s in data["steps"]] == ["q1b", "q2"]
    for step in data["steps"]:
        assert set(step) >= {"rule", "position", "matched", "replacement", "word"}


def test_rewrite_max_steps_stops_early_and_overrides_the_step_limit(capsys):
    argv = ("rewrite", "--system", "q", "--word", "xcabxcab", "--json")
    _, full, _ = run_json(capsys, *argv)
    assert len(full["steps"]) == 4 and full["irreducible"] is True
    code, data, _ = run_json(capsys, *argv, "--max-steps", "2")
    assert code == 0
    assert data["steps"] == full["steps"][:2]
    assert data["result"] == full["steps"][1]["word"]
    assert data["irreducible"] is False
    # --max-steps wins over --step-limit: all 4 steps, not a step-limit error
    code, data, _ = run_json(capsys, *argv, "--max-steps", "5", "--step-limit", "1")
    assert code == 0
    assert data == full
    code, out, err = run(capsys, *argv, "--step-limit", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: no normal form within 1 steps")


def test_nf_rejects_words_outside_the_system(capsys):
    for word in ("xyz", ""):
        code, out, err = run(capsys, "nf", "--system", "q", "--word", word)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


def test_eq_rejects_the_empty_word(capsys):
    for preset, u, v in (("t", "", ""), ("sm:3", "", "e"), ("q", "a", "")):
        code, out, err = run(capsys, "eq", "--preset", preset, "--u", u, "--v", v)
        assert code == 1
        assert out == ""
        assert err.strip() == "error: the empty word names no element"


def test_rewrite_rejects_letters_outside_the_system(capsys):
    code, out, err = run(capsys, "rewrite", "--system", "q", "--word", "abz")
    assert code == 1
    assert out == ""
    assert "['z']" in err and "Traceback" not in err


def test_negative_exponent_bounds_are_errors(capsys):
    for argv in (("verify-appendix", "--which", "A", "--max-exp", "-1"),
                 ("confluence", "--system", "q", "--bound", "-1"),
                 ("termination", "--system", "fn:1", "--bound", "-2")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and "below 0" in err and "Traceback" not in err


def test_nf_random_strategy_seeded(capsys):
    code, out, _ = run(capsys, "nf", "--system", "q", "--word", "xcab",
                       "--strategy", "random", "--seed", "5")
    assert code == 0
    assert out.strip() == normal_form(Q_SYSTEM, "xcab")


def test_confluence_verb(capsys):
    code, data, _ = run_json(capsys, "confluence", "--system", "q",
                             "--bound", "1", "--json")
    assert code == 0
    assert data["locally_confluent"] is True
    assert data["resolved"] == data["critical_pairs"]
    assert data["unresolved"] == []


def test_confluence_verb_names_each_unresolved_pair(capsys, monkeypatch):
    # "ab" reduces to "a" by r1 and to "ac" by r2, and both are irreducible
    diverging = RewriteSystem(name="diverging", alphabet="abc", order="abc",
                              schemas=(make_schema("r1", "ab", "a"), make_schema("r2", "b", "c")))
    monkeypatch.setattr(lef.cli, "preset_system", lambda pid: diverging)
    code, data, _ = run_json(capsys, "confluence", "--system", "q", "--bound", "1", "--json")
    assert code == 3
    assert (data["critical_pairs"], data["resolved"], data["locally_confluent"]) == (1, 0, False)
    assert data["unresolved"] == [{"joint": "ab", "left": "a", "right": "ac",
                                   "rule1": {"id": "r1", "assignment": {}, "position": 0},
                                   "rule2": {"id": "r2", "assignment": {}, "position": 1}}]
    code, out, _ = run(capsys, "confluence", "--system", "q", "--bound", "1")
    assert code == 3
    assert "UNRESOLVED r1/r2: 'ab' -> 'a' vs 'ac'" in out


def test_termination_verb(capsys):
    code, data, _ = run_json(capsys, "termination", "--system", "fn:1",
                             "--bound", "2", "--json")
    assert code == 0
    assert data["shortlex_decreasing"] is True
    assert data["shortlex_violations"] == []


# ---------------------------------------------------------------------------
# finite-table verbs


@pytest.fixture
def z3_file(tmp_path):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(cyclic_table(3).to_json()))
    return str(path)


def test_green_verb(capsys, z3_file):
    code, data, _ = run_json(capsys, "green", "--table", z3_file, "--json")
    assert code == 0
    assert data["j_trivial"] is False
    assert len(data["h_classes"]) == 1


def test_green_eggbox_text(capsys, z3_file):
    code, out, _ = run(capsys, "green", "--table", z3_file)
    assert code == 0
    assert "egg-box" in out


@pytest.mark.parametrize("verb", ["green", "classify"])
def test_green_needs_no_order_cubed_arrays(verb, capsys, tmp_path, monkeypatch):
    # associativity is one blocked scan for a failing triple, and the class
    # masks read associative tables, so a table too large for
    # associative_mask's order^3 arrays still gets its classes
    def refuse(S):
        raise AssertionError("associative_mask is for stacks of small tables")

    monkeypatch.setattr(lef.fsg, "associative_mask", refuse)
    mt = cyclic_table(40)
    assert mt.is_associative()
    assert not MulTable(np.array([[1, 0], [0, 0]])).is_associative()
    assert is_group(mt) and is_completely_simple(mt) and is_clifford(mt)
    assert not is_j_trivial(mt)
    path = tmp_path / "z40.json"
    path.write_text(json.dumps(mt.to_json()))
    code, data, _ = run_json(capsys, verb, "--table", str(path), "--json")
    assert code == 0 and data["order"] == 40
    if verb == "green":
        assert len(data["h_classes"]) == 1
    else:
        assert data["group"] and data["completely_simple"] and data["clifford"]
        assert data["j_classes"] == 1 and not data["j_trivial"]


def test_green_rejects_nonassociative(capsys, tmp_path):
    bad = MulTable(np.array([[1, 0], [0, 0]]))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out, err = run(capsys, "green", "--table", str(path))
    assert code == 1
    assert "associative" in err


def test_classify_verb(capsys, z3_file):
    code, data, _ = run_json(capsys, "classify", "--table", z3_file, "--json")
    assert code == 0
    assert data["group"] is True


def test_enumerate_verb(capsys):
    code, out, _ = run(capsys, "enumerate", "--order", "3")
    assert code == 0
    assert "24" in out
    code, data, _ = run_json(capsys, "enumerate", "--order", "4", "--filter",
                             "j-trivial", "--json")
    assert code == 0
    assert data["count"] == 60


def test_enumerate_groups(capsys):
    code, data, _ = run_json(capsys, "enumerate", "--order", "6", "--groups",
                             "--json")
    assert code == 0
    assert data["count"] == 2


def test_assign_verb(capsys, z3_file):
    code, out, _ = run(capsys, "assign", "--table", z3_file,
                       "--relation", "xx=x")
    assert code == 0
    assert "x=0" in out.replace(" ", "") or "'x': 0" in out or "x: 0" in out


def test_assign_counts_what_it_does_not_list(capsys, tmp_path):
    # all 6 ** 8 assignments pass on the all-zero table of order 6; the count
    # comes from the filtered columns and only the listed rows become dicts
    path = tmp_path / "zero6.json"
    path.write_text(json.dumps({"order": 6, "table": [[0] * 6] * 6}))
    code, data, _ = run_json(capsys, "assign", "--table", str(path), "--relation", "ab=cd",
                             "--relation", "ef=gh", "--limit", "1", "--json")
    assert code == 0 and data["count"] == 1_679_616
    assert data["assignments"] == [{"assignment": dict.fromkeys("abcdefgh", 0), "collapsed": []}]
    code, out, _ = run(capsys, "assign", "--table", str(path), "--relation", "ab=cd",
                       "--relation", "ef=gh", "--limit", "2")
    assert out.splitlines() == ["satisfying assignments: 1679616",
                                "  a=s0 b=s0 c=s0 d=s0 e=s0 f=s0 g=s0 h=s0",
                                "  a=s0 b=s0 c=s0 d=s0 e=s0 f=s0 g=s0 h=s1",
                                "  ... 1679614 more (raise --limit)"]


def test_assign_lists_the_first_rows_of_the_search(capsys, tmp_path):
    # the Klein four-group under c's relations, with a distinctness pair
    # on variables the relations name
    v4 = MulTable(np.bitwise_xor.outer(np.arange(4), np.arange(4)))
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(v4.to_json()))
    code, data, _ = run_json(capsys, "assign", "--table", str(path), "--preset", "c",
                             "--distinct", "cu!=dv", "--distinct", "a!=b", "--limit", "7",
                             "--json")
    want = list(find_relational_assignments(v4, PRESENTATIONS["c"].relations,
                                            [("cu", "dv"), ("a", "b")]))
    assert code == 0 and data["count"] == len(want) == 4 ** 5
    assert [(row["assignment"], [tuple(pair) for pair in row["collapsed"]])
            for row in data["assignments"]] == want[:7]


# ---------------------------------------------------------------------------
# embedding verbs


def test_embed_positive_with_out(capsys, tmp_path):
    pt = {"elements": ["p", "q"], "products": {"p,q": "q", "q,p": "q"}}
    src = tmp_path / "pt.json"
    src.write_text(json.dumps(pt))
    out_path = tmp_path / "result.json"
    code, out, _ = run(capsys, "embed", "--partial", str(src),
                       "--max-order", "3", "--out", str(out_path))
    assert code == 0
    assert "embeddable" in out
    saved = json.loads(out_path.read_text())
    assert saved["status"] == "embeddable"
    assert set(saved["witness"]["injection"]) == {"p", "q"}


def test_embed_class_filter(capsys, tmp_path):
    pt = {"elements": ["p", "q"], "products": {"p,p": "q", "q,q": "p"}}
    src = tmp_path / "pt.json"
    src.write_text(json.dumps(pt))
    code, _, _ = run(capsys, "embed", "--partial", str(src), "--max-order", "3")
    assert code == 0
    code, out, _ = run(capsys, "embed", "--partial", str(src),
                       "--max-order", "4", "--class", "j-trivial")
    assert code == 3


def test_embed_rejects_a_max_order_below_the_element_count(capsys):
    # no host of fewer than four elements holds bicyclic4, so no negative
    # certificate is given for one
    for order in ("0", "3"):
        code, out, err = run(capsys, "embed", "--partial", "bicyclic4", "--max-order", order)
        assert (code, out) == (1, "")
        assert err == (f"error: max order {order} is below the 4 elements "
                       f"of the partial table\n")


# ---------------------------------------------------------------------------
# approximation verbs


def test_approx_integers_round_trip(capsys, tmp_path):
    pair_path = tmp_path / "pair.json"
    code, out, _ = run(capsys, "approx", "integers", "--values=-1,4,7",
                       "--out", str(pair_path))
    assert code == 0
    assert "valid" in out
    code, out, _ = run(capsys, "approx", "check", "--pair", str(pair_path),
                       "--host", "free:int", "--words=-1,4,7")
    assert code == 0
    assert "valid" in out


def test_approx_check_multiplies_free_int_as_integers(capsys, tmp_path):
    pair_path = tmp_path / "pair.json"
    run(capsys, "approx", "integers", "--values=0,1,5", "--out", str(pair_path))
    pair = json.loads(pair_path.read_text())
    pair["map"] = {"0": 1, "1": 3, "5": 4}  # injective, but 0 + 0 = 0 breaks
    pair_path.write_text(json.dumps(pair))
    code, data, _ = run_json(capsys, "approx", "check", "--pair", str(pair_path),
                             "--host", "free:int", "--words=0,1,5", "--json")
    assert code == 3
    assert (data["reason"], data["counterexample"]) == ("product", ["0", "0", "0"])
    code, _, err = run(capsys, "approx", "check", "--pair", str(pair_path),
                       "--host", "free:int", "--words=0,x")
    assert (code, err) == (1, "error: --words: 'x' is not an integer\n")


def test_approx_check_wrap(capsys, tmp_path):
    out_path = tmp_path / "s.json"
    code, _, _ = run(capsys, "lwf", "build", "--preset", "s", "--n", "1",
                     "--out", str(out_path))
    assert code == 0
    # the carrier is written as its parameters, not as 5,655^2 cells
    assert out_path.stat().st_size < 100_000
    assert json.loads(out_path.read_text())["carrier"] == {
        "kind": "sm_ideal", "m": 3, "bound": 3}
    code, out, _ = run(capsys, "approx", "check", "--wrap", str(out_path),
                       "--host", "s", "--words", "a,b,c,e,x")
    assert code == 0
    assert "check: valid" in out
    # a dense wrap file, one word per element of an explicit table
    z4 = cyclic_table(4)
    H = subset_from_table(z4, [1, 2])
    wrap = wrap_from_pair(H, ApproxPair(F=z4, f={"1": 1, "2": 2}))
    wrap_path, host_path = tmp_path / "dense.json", tmp_path / "z4.json"
    wrap_path.write_text(json.dumps(wrap.as_json()))
    host_path.write_text(json.dumps(z4.to_json()))
    code, out, _ = run(capsys, "approx", "check", "--wrap", str(wrap_path),
                       "--host-table", str(host_path), "--members", "1,2")
    assert code == 0
    assert "check: valid" in out


@pytest.mark.parametrize("change, message", [
    ({"carrier": {"kind": "dense", "m": 3, "bound": 3}},
     "/carrier/kind: expected 'length_ideal' or 'sm_ideal', got 'dense'"),
    ({"carrier": {"kind": "sm_ideal", "m": 1, "bound": 3}},
     "/carrier/m: expected an integer of at least 2, got 1"),
    ({"carrier": {"kind": "sm_ideal", "m": 3, "bound": -1}},
     "/carrier/bound: expected an integer of at least 0, got -1"),
    ({"carrier": {"kind": "sm_ideal", "m": 3, "bound": 10 ** 6}},
     "/carrier: the carrier would have more than 2**63 elements"),
    ({"carrier": {"kind": "length_ideal", "alphabet": "aa", "max_len": 2}},
     "/carrier: alphabet must be nonempty distinct letters"),
    ({"carrier": {"kind": "length_ideal", "alphabet": "ab"}},
     "/carrier/max_len: expected an integer of at least 1, got None"),
    ({"carrier": [3, 3]}, "/carrier: expected an object with 'kind'"),
    ({"d": {"eee": "e"}},
     "/d/eee: 'eee' is not canonical: it holds a run of 3 e's"),
    ({"d": {"aaaa": "a"}},
     "/d/aaaa: 'aaaa' lies in the ideal: it has 4 letters from abcx, above 3"),
    ({"d": {"ad": "a"}}, "/d/ad: 'ad' has a letter outside abcxe"),
    ({"d": {"a/~": "a"}}, "/d/a~1~0: 'a/~' has a letter outside abcxe"),
    ({"d": {"a": 1}}, "/d/a: expected a string"),
    ({"d": ["a"]}, "/d: expected an object of carrier word -> host word"),
    ({"fallback": None}, "/fallback: expected a string"),
    ({"fallback": ...}, "/fallback: missing"),
    ({"carrier": ...}, "/: expected an object with 'carrier', 'd' and "
                       "'fallback', or with 'table' and 'd_words'"),
    # the images are words of the host, checked when the file is read
    ({"d": {"a": "a", "e": "ay"}},
     "/d/e: word 'ay' uses letters ['y'] outside the s alphabet 'abcex'"),
    ({"fallback": ""}, "/fallback: the empty word names no element"),
    ({"carrier": ..., "d": ..., "fallback": ...,
      "table": {"order": 2, "table": [[0, 1], [1, 0]]}, "d_words": ["a", "zz"]},
     "/d_words/1: word 'zz' uses letters ['z'] outside the s alphabet 'abcex'"),
])
def test_malformed_wrap_files(capsys, tmp_path, change, message):
    data = {"carrier": {"kind": "sm_ideal", "m": 3, "bound": 3},
            "d": {"a": "a", "e": "e"}, "fallback": "aaa"}
    data.update(change)
    path = tmp_path / "wrap.json"
    path.write_text(json.dumps({k: v for k, v in data.items() if v is not ...}))
    code, out, err = run(capsys, "approx", "check", "--wrap", str(path),
                         "--host", "s", "--words", "a,e")
    assert (code, out, err) == (1, "", f"error: {path}: {message}\n")


def test_lwf_build_and_check(capsys, tmp_path):
    out_path = tmp_path / "wrap.json"
    code, out, _ = run(capsys, "lwf", "build", "--preset", "t", "--n", "1",
                       "--out", str(out_path))
    assert code == 0
    assert "valid" in out
    code, out, _ = run(capsys, "approx", "check", "--wrap", str(out_path),
                       "--host", "t", "--words", "a,b,c,d,e,x")
    assert code == 0


def test_lwf_build_names_the_subset_bound(capsys):
    code, out, err = run(capsys, "lwf", "build", "--preset", "t", "--n", "0")
    assert (code, out, err) == (1, "", "error: the subset bound n must be at least 1\n")


def test_lwf_words(capsys):
    code, data, _ = run_json(capsys, "lwf", "words", "--preset", "t", "--n", "1",
                             "--json")
    assert code == 0
    assert data["words"] == ["a", "b", "c", "d", "e", "x"]


# ---------------------------------------------------------------------------
# equality verbs


def test_eq_equal(capsys):
    code, data, _ = run_json(capsys, "eq", "--preset", "q", "--u", "xca",
                             "--v", "xe", "--json")
    assert code == 0
    assert data["status"] == "equal"


def test_eq_distinct_exit_code(capsys):
    code, data, _ = run_json(capsys, "eq", "--preset", "q", "--u", "a",
                             "--v", "b", "--json")
    assert code == 3
    assert data["status"] == "distinct"


def test_eq_bfs_then_replay(capsys, tmp_path):
    code, data, _ = run_json(capsys, "eq", "--preset", "t", "--u", "xcd",
                             "--v", "xe", "--method", "bfs", "--json")
    assert code == 0
    assert data["evidence"]["kind"] == "path"
    eq_path = tmp_path / "eq.json"
    eq_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "replay", "--preset", "t", "--file", str(eq_path))
    assert code == 0
    assert "replays in preset t: yes" in out


def test_replay_rejects_broken_path(capsys):
    code, _, _ = run(capsys, "replay", "--preset", "q", "--words", "xca,xca")
    assert code == 3
    # o, g, u and s are no letters of q, so bogus names no element: a data error
    code, out, err = run(capsys, "replay", "--preset", "q", "--words", "xca,bogus")
    assert (code, out) == (1, "")
    assert "outside the q alphabet" in err and "Traceback" not in err


def test_replay_checks_its_words(capsys):
    code, out, err = run(capsys, "replay", "--preset", "t", "--words", "zz")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_eq_closure_names_the_side_searched(capsys):
    # the class of ae is {ae, ed}
    code, data, _ = run_json(capsys, "eq", "--preset", "t", "--u", "ae", "--v", "a",
                             "--json")
    assert code == 3
    assert data["evidence"]["kind"] == "closure"
    assert (data["evidence"]["side"], data["evidence"]["closure_size"]) == ("left", 2)


def test_eq_sm_by_normal_forms(capsys):
    code, data, _ = run_json(capsys, "eq", "--preset", "sm:3", "--u", "eeeee",
                             "--v", "e", "--json")
    assert code == 0
    assert (data["method"], data["status"]) == ("nf", "equal")
    assert data["evidence"] == {"kind": "normal_form", "left": "e", "right": "e"}


@pytest.mark.parametrize("preset", ["sm:3", "fn:2"])
def test_eq_bfs_outside_the_bounded_oracle_is_a_usage_error(capsys, preset):
    code, out, err = run(capsys, "eq", "--preset", preset, "--u", "e", "--v", "e",
                         "--method", "bfs")
    assert (code, out) == (1, "")
    assert err == (f"error: the bounded oracle covers the presets q, s, t, c, "
                   f"not '{preset}'\n")


@pytest.mark.parametrize("bound", ["--node-bound", "--length-bound"])
def test_eq_bounds_by_normal_forms_are_a_usage_error(capsys, bound):
    # q is answered by normal forms, which a search bound would not limit
    for method in ("auto", "nf"):
        code, out, err = run(capsys, "eq", "--preset", "q", "--u", "xca", "--v", "xe",
                             "--method", method, bound, "0")
        assert (code, out) == (1, "")
        assert "--method bfs" in err and "Traceback" not in err
    # the bounds still bound the search, on t and on q by --method bfs
    code, data, _ = run_json(capsys, "eq", "--preset", "t", "--u", "xcd", "--v", "xe",
                             bound, "5", "--json")
    assert (code, data["evidence"]["path"]) == (0, ["xcd", "xe"])
    code, data, _ = run_json(capsys, "eq", "--preset", "q", "--u", "xca", "--v", "xe",
                             "--method", "bfs", bound, "0", "--json")
    assert (code, data["status"], data["evidence"]["kind"]) == (3, "unknown", "bound")


def test_replay_on_a_preset_without_relations_is_a_data_error(capsys):
    code, _, err = run(capsys, "replay", "--preset", "bicyclic4", "--words", "a,b")
    assert code == 1
    assert "'bicyclic4' has no defining relations" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("listed", PRESET_IDS)
def test_every_listed_preset_resolves(capsys, z3_file, listed):
    # the families are tried at one member each
    preset = {"sm:<m>": "sm:3", "fn:<n>": "fn:2"}.get(listed, listed)
    if preset != "bicyclic4":
        word = preset_letters(preset)
        assert word_equal(preset, word, word).status == "equal"
        with pytest.raises(ValueError, match="outside"):
            word_equal(preset, word + "z", word)
    if preset not in ("fn:2", "bicyclic4"):
        assert preset_presentation(preset).relations
        return
    message = f"preset '{preset}' has no defining relations"
    with pytest.raises(ValueError, match=message):
        preset_presentation(preset)
    for argv in (("replay", "--preset", preset, "--words", "a,a"),
                 ("assign", "--table", z3_file, "--preset", preset)):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n"), argv


# ---------------------------------------------------------------------------
# presets listing


def test_presets_verb(capsys):
    code, data, _ = run_json(capsys, "presets", "--json")
    assert code == 0
    ids = [row["id"] for row in data["presets"]]
    for expected in ("q", "s", "t", "c", "bicyclic4"):
        assert expected in ids


# ---------------------------------------------------------------------------
# verify-appendix JSON


def test_verify_appendix_json(capsys):
    code, data, _ = run_json(capsys, "verify-appendix", "--which", "B",
                             "--n", "1", "--json")
    assert code == 0
    assert data["all_joined"] is True
    assert data["rows_instantiable"] == 91


# ---------------------------------------------------------------------------
# error handling


def test_missing_table_file(capsys):
    code, _, err = run(capsys, "green", "--table", "/nonexistent/t.json")
    assert code == 1
    assert "no such file" in err


def test_invalid_json_pointer(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "table": [[0, 5], [0, 0]]}))
    code, _, err = run(capsys, "green", "--table", str(path))
    assert code == 1
    assert "/table/0/1" in err
    assert "outside 0..1" in err


def test_a_partial_table_error_escapes_its_pointer(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"elements": ["a/b"], "products": {"a/b,d": "a/b"}}))
    code, _, err = run(capsys, "embed", "--partial", str(path), "--max-order", "2")
    assert code == 1
    assert err.strip() == f"error: {path}: /products/a~1b,d: unknown element 'd'"


def test_data_error_names_the_bad_file(capsys, tmp_path, z3_file):
    pair = {"table": cyclic_table(3).to_json(), "map": {"0": 0, "1": 1}}
    good_pair = tmp_path / "good_pair.json"
    good_pair.write_text(json.dumps(pair))
    pair["map"]["1"] = 7
    bad_pair = tmp_path / "bad_pair.json"
    bad_pair.write_text(json.dumps(pair))
    bad_table = tmp_path / "bad_table.json"
    bad_table.write_text(json.dumps({"order": 2, "table": [[0, 5], [0, 0]]}))

    code, _, err = run(capsys, "approx", "check", "--pair", str(good_pair),
                       "--host-table", str(bad_table), "--members", "s0,s1")
    assert code == 1
    assert err.strip() == f"error: {bad_table}: /table/0/1: entry 5 outside 0..1"
    code, _, err = run(capsys, "approx", "check", "--pair", str(bad_pair),
                       "--host-table", z3_file, "--members", "0,1")
    assert code == 1
    assert err.strip() == f"error: {bad_pair}: /map/1: index 7 outside 0..2"


@pytest.mark.parametrize("labelled, members, missing", [(False, "s0,s9", "s9"),
                                                         (True, "0,9", "9")])
def test_a_missing_member_label_is_named(capsys, tmp_path, labelled, members, missing):
    z3 = cyclic_table(3).to_json()
    if not labelled:
        del z3["labels"]
    table, pair = tmp_path / "z3.json", tmp_path / "pair.json"
    table.write_text(json.dumps(z3))
    pair.write_text(json.dumps({"table": z3, "map": {members.split(",")[0]: 0}}))
    code, _, err = run(capsys, "approx", "check", "--pair", str(pair),
                       "--host-table", str(table), "--members", members)
    assert code == 1
    assert err.strip() == f"error: no element labelled '{missing}' in a table of order 3"


@pytest.mark.parametrize("verb, flag, data, pointer", [
    ("classify", "--table", {"order": 0, "table": []}, "/order: expected a positive integer"),
    ("embed", "--partial", {"elements": [], "products": {}},
     "/elements: expected a non-empty list of strings"),
])
def test_empty_tables_are_data_errors(capsys, tmp_path, verb, flag, data, pointer):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(data))
    extra = ["--max-order", "3"] if verb == "embed" else []
    code, out, err = run(capsys, verb, flag, str(path), *extra)
    assert code == 1 and not out
    assert err.strip().startswith(f"error: {path}: {pointer}")


def test_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "green", "--table", str(path))
    assert code == 1
    assert "invalid JSON" in err


def test_usage_errors_exit_one(capsys):
    assert main(["nf", "--system", "q"]) == 1  # missing --word
    capsys.readouterr()
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_preset_is_an_error(capsys):
    code, _, err = run(capsys, "nf", "--system", "zzz", "--word", "a")
    assert code == 1
    assert err.startswith("error:")


def test_a_family_id_without_an_integer_is_an_error(capsys):
    fn_x = "error: preset 'fn:x' is not of the form fn:<n> with an integer n\n"
    for argv, message in (
            (("eq", "--preset", "fn:x", "--u", "xa", "--v", "xa"), fn_x),
            (("nf", "--system", "fn:x", "--word", "xa"), fn_x),
            (("eq", "--preset", "sm:", "--u", "e", "--v", "ee"),
             "error: preset 'sm:' is not of the form sm:<m> with an integer m\n")):
        assert run(capsys, *argv) == (1, "", message), argv


def test_step_limit_env(capsys, monkeypatch):
    monkeypatch.setenv("LEF_STEP_LIMIT", "1")
    code, _, err = run(capsys, "nf", "--system", "q", "--word", "xcabxcab")
    assert code == 1
    assert "step limit" in err.lower() or "error" in err.lower()


def test_negative_step_counts_are_usage_errors(capsys, monkeypatch, z3_file):
    eq = ("eq", "--preset", "t", "--u", "axb", "--v", "acx")
    for argv, flag, shown in (
            (("rewrite", "--system", "q", "--word", "xaaccx", "--max-steps", "-1"), "--max-steps", "-1"),
            (("nf", "--system", "q", "--word", "xcab", "--step-limit", "-5"), "--step-limit", "-5"),
            (("confluence", "--system", "q", "--step-limit", "x"), "--step-limit", "'x'"),
            (("assign", "--table", z3_file, "--relation", "xy=yx", "--limit", "-1"), "--limit", "-1"),
            (eq + ("--length-bound", "-1"), "--length-bound", "-1"),
            (eq + ("--node-bound", "-2"), "--node-bound", "-2"),
            (("embed", "--partial", "bicyclic4", "--max-order", "-1"), "--max-order", "-1"),
            (("verify-appendix", "--which", "A", "--failure-cap", "-1"), "--failure-cap", "-1")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert f"argument {flag}: {shown}" in err and "Traceback" not in err
    for value, message in (("-3", "LEF_STEP_LIMIT=-3 is below 0"),
                           ("abc", "LEF_STEP_LIMIT='abc' is not an integer")):
        monkeypatch.setenv("LEF_STEP_LIMIT", value)
        code, out, err = run(capsys, "nf", "--system", "q", "--word", "xcab")
        assert (code, out, err) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# fuzzed artifact files: every mutation is an exit code, never a traceback

_DROP = object()
_OTHER_TYPES = (None, True, 1.5, 7, "x", [], {})
_OUT_OF_RANGE = (-1, 10 ** 6, 2 ** 63)
_NOT_WORDS = ("", "ay", "0")


def _wrap_in_s(data):
    WrapMap.from_json(data).check_images("s")


# name: (a valid file, the verb that reads it, the loader that accepts it)
_FUZZ_FILES = {
    "table": ({"order": 3, "labels": ["a", "b", "c"],
               "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
              ("classify", "--table"), MulTable.from_json),
    "pair": (approx_integers([0, 1, 5]).as_json(),
             ("approx", "check", "--host", "free:int", "--words=0,1,5", "--pair"),
             ApproxPair.from_json),
    "rule-wrap": ({"carrier": {"kind": "sm_ideal", "m": 3, "bound": 2},
                   "d": {"a": "a", "aa": "aa"}, "fallback": "aaa"},
                  ("approx", "check", "--host", "s", "--words", "a", "--wrap"), _wrap_in_s),
    "dense-wrap": ({"table": {"order": 2, "table": [[1, 1], [1, 1]]}, "d_words": ["a", "aa"]},
                   ("approx", "check", "--host", "s", "--words", "a", "--wrap"), _wrap_in_s),
    "partial": ({"elements": ["p", "q"], "products": {"p,q": "q", "q,p": "p"}},
                ("embed", "--max-order", "3", "--partial"), PartialTable.from_json),
}


def _mutations(node, path=()):
    """(path, replacement) pairs: each node in turn replaced by a value of
    another type, an out-of-range integer or a string that is no word of
    the host, or (_DROP) its key removed."""
    out = [(path, v) for v in _OTHER_TYPES if type(v) is not type(node)]
    if type(node) is int:
        out += [(path, v) for v in _OUT_OF_RANGE]
    if type(node) is str:
        out += [(path, v) for v in _NOT_WORDS]
    children = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        if isinstance(node, dict):
            out.append(((*path, key), _DROP))
        out += _mutations(child, (*path, key))
    return out


def _mutated(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = functools.reduce(operator.getitem, path[:-1], data)
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


@pytest.mark.parametrize("name", sorted(_FUZZ_FILES))
def test_fuzzed_artifact_files_exit_with_a_pointer(capsys, tmp_path, name):
    """A mutated file exits 1 with its name and a JSON pointer, or 0 or 3
    when it is still valid; a pair that lost an entry of --words is not
    total on the subset, which names no cell."""
    data, argv, load = _FUZZ_FILES[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    assert run(capsys, *argv, str(path))[0] == 0
    mutations = _mutations(data)
    for where, value in random.Random(1).sample(mutations, min(60, len(mutations))):
        mutated = _mutated(data, where, value)
        path.write_text(json.dumps(mutated))
        code, _, err = run(capsys, *argv, str(path))
        case = (where, "drop" if value is _DROP else value, err)
        if code == 1:
            assert err.startswith((f"error: {path}: /",
                                   "error: f is not total on the subset")), case
        else:
            assert code in (0, 3), case
            load(mutated)
