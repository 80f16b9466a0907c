"""Parametric rewriting: pattern parsing, reduction, termination, confluence."""

import dataclasses
import gc
import hashlib
import itertools
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lef.rewrite
from lef.presets import Q_SYSTEM, build_fn_system
from lef.rewrite import (
    ConditionError,
    CriticalPair,
    RewriteSystem,
    StepLimitError,
    _one_step,
    check_local_confluence,
    check_termination_order,
    compile_atoms,
    compile_conditions,
    conditions_hold,
    critical_pairs,
    enumerate_redexes,
    instantiate_all,
    leftmost_reductions,
    make_schema,
    normal_form,
    parse_condition,
    parse_linexpr,
    parse_pattern,
    random_normal_form,
    reduce_once,
    render_atoms,
)

from conftest import (all_words, condition_holds, evaluate, instantiate, system_from_json,
                      system_to_json)


# ---------------------------------------------------------------------------
# expression / condition / pattern parsing


def test_parse_linexpr():
    e = parse_linexpr("2n+beta-alpha+1")
    assert evaluate(e, {"alpha": 2, "beta": 5}, n=3) == 2 * 3 + 5 - 2 + 1
    assert render_atoms(compile_atoms((("a", e),), 3), {"alpha": 2, "beta": 5}) == "a" * 10
    assert evaluate(parse_linexpr("7"), {}, None) == 7
    assert parse_linexpr("alpha").is_bare_var()
    assert not parse_linexpr("alpha+1").is_bare_var()
    with pytest.raises(ValueError):
        parse_linexpr("")
    with pytest.raises(ValueError):
        parse_linexpr("2*alpha")


def test_parse_linexpr_needs_n():
    with pytest.raises(ValueError, match="^q2: expression mentions n but the system has no parameter$"):
        compile_atoms((("a", parse_linexpr("2n")),), None, "q2: ")
    with pytest.raises(ValueError):
        evaluate(parse_linexpr("2n"), {}, None)


def _holds(cond, assignment, n):
    """The compiled check's answer, which must be the reference's."""
    compiled = conditions_hold(compile_conditions((cond,), n), assignment)
    assert compiled == condition_holds(cond, assignment, n), (str(cond), assignment)
    return compiled


def test_parse_condition_chain():
    c = parse_condition("0<beta<=alpha<=2n")
    assert _holds(c, {"alpha": 3, "beta": 1}, n=2)
    assert not _holds(c, {"alpha": 5, "beta": 1}, n=2)
    assert not _holds(c, {"alpha": 3, "beta": 0}, n=2)
    assert c.variables == ("beta", "alpha")


def test_parse_condition_not_both_zero():
    c = parse_condition("not_both_zero(u,v)")
    assert _holds(c, {"u": 0, "v": 2}, None)
    assert not _holds(c, {"u": 0, "v": 0}, None)


def test_parse_condition_rejects_garbage():
    with pytest.raises(ValueError):
        parse_condition("alpha")


def test_parse_pattern():
    atoms = parse_pattern("x a^alpha c^beta+1 x")
    assert [letter for letter, _ in atoms] == ["x", "a", "c", "x"]
    assert str(atoms[1][1]) == "alpha"
    assert str(atoms[2][1]) == "beta+1"
    # plain tokens split into single letters
    assert [l for l, _ in parse_pattern("ac a")] == ["a", "c", "a"]


def test_schema_validation():
    with pytest.raises(ValueError):
        # rhs uses a variable the lhs does not bind
        make_schema("bad", "a^alpha", "b^beta")
    with pytest.raises(ValueError):
        # lhs exponents must be bare variables or constants
        make_schema("bad", "a^alpha+1", "a")
    with pytest.raises(ValueError, match="outside the alphabet"):
        # the window table is built over the alphabet
        RewriteSystem(name="bad", alphabet="ab", order="ab",
                      schemas=(make_schema("bad", "a z", "a"),))
    with pytest.raises(ValueError, match="< 0"):
        # a constant lhs exponent must not be negative once n is fixed
        RewriteSystem(name="bad", alphabet="a", order="a", parameter_n=1,
                      schemas=(make_schema("bad", "a^n-3", "a"),))


@pytest.mark.parametrize("lhs, rhs, conditions", [
    ("a^n", "a", []), ("a a", "a^n", []), ("a^alpha", "a", ["alpha<=2n"])])
def test_a_schema_mentioning_n_needs_a_parameter(lhs, rhs, conditions):
    schemas = (make_schema("ok", "b b", "b"), make_schema("uses-n", lhs, rhs, conditions))
    with pytest.raises(ValueError, match="^uses-n: expression mentions n but the system has no parameter$"):
        RewriteSystem(name="bad", alphabet="ab", order="ab", schemas=schemas)
    assert RewriteSystem(name="good", alphabet="ab", order="ab", schemas=schemas, parameter_n=1)


def test_instantiate_respects_conditions():
    schema = make_schema("r", "x a^alpha", "x", ["0<alpha"])
    assert instantiate(schema, {"alpha": 2}) == ("xaa", "x")
    with pytest.raises(ConditionError):
        instantiate(schema, {"alpha": 0})


def test_instantiate_rejects_negative_exponent():
    schema = make_schema("r", "a^alpha", "b^alpha-1")
    message = r"^r: exponent alpha-1 = -1 < 0 under \{'alpha': 0\}$"
    with pytest.raises(ConditionError, match=message):
        instantiate(schema, {"alpha": 0})
    # a step renders the rhs the same way: a^0 matches the empty word before "b"
    system = RewriteSystem(name="neg", alphabet="ab", order="ab", schemas=(schema,))
    with pytest.raises(ConditionError, match=message):
        normal_form(system, "b")
    # a pattern outside a schema has no schema id to name
    with pytest.raises(ConditionError, match=r"^exponent alpha-1 = -1 < 0 under \{'alpha': 0\}$"):
        render_atoms(compile_atoms(parse_pattern("b^alpha-1"), None), {"alpha": 0})


# ---------------------------------------------------------------------------
# reduction


def test_normal_form_q_examples():
    assert normal_form(Q_SYSTEM, "xca") == "xe"
    assert normal_form(Q_SYSTEM, "xb") == "cx"
    assert normal_form(Q_SYSTEM, "aex") == "ax"
    assert normal_form(Q_SYSTEM, "xcax") == "xex"
    # normal forms are irreducible
    assert enumerate_redexes(Q_SYSTEM, normal_form(Q_SYSTEM, "xcax")) == []


def test_enumerate_redexes_positions():
    redexes = enumerate_redexes(Q_SYSTEM, "xca")
    assert [(r.rule_id, r.position, r.word) for r in redexes] == [("q1b", 1, "xac")]


def test_reduction_trace_is_replayable():
    steps = list(leftmost_reductions(Q_SYSTEM, "xcab"))
    assert len(steps) > 1
    word = "xcab"
    for step in steps:
        assert step.matched == word[step.position:step.position + len(step.matched)]
        word = word[:step.position] + step.replacement + word[step.position + len(step.matched):]
        assert word == step.word
    assert word == normal_form(Q_SYSTEM, "xcab")


def test_random_strategy_agrees_with_leftmost():
    rng = random.Random(7)
    for word in ("xcab", "aexb", "xacacx", "bxca"):
        expected = normal_form(Q_SYSTEM, word)
        for _ in range(5):
            assert random_normal_form(Q_SYSTEM, word, rng) == expected


def test_a_seeded_random_walk_draws_from_the_redexes_in_order():
    # rng.choice over the redexes in enumerate_redexes order fixes the walk of
    # a seed, also where the normal form depends on it
    for system, words in ((DIVERGING, all_words("abc", 5)), (Q_SYSTEM, ["xcabxcab", "xacacx"])):
        for seed in range(3):
            rng, reference = random.Random(seed), random.Random(seed)
            for word in words:
                w = word
                while options := enumerate_redexes(system, w):
                    w = reference.choice(options).word
                assert random_normal_form(system, word, rng) == w, (word, seed)
            assert rng.getstate() == reference.getstate()


def test_step_limit_raises_on_loops():
    looping = RewriteSystem(
        name="loop",
        alphabet="ab",
        order="ab",
        schemas=(make_schema("r1", "a", "b"), make_schema("r2", "b", "a")),
    )
    message = r"^no normal form within 10 steps \(system loop, stuck at 'b'\)$"
    for call in (lambda: normal_form(looping, "a", 10),
                 lambda: list(leftmost_reductions(looping, "a", 10)),
                 lambda: random_normal_form(looping, "a", random.Random(0), 10)):
        with pytest.raises(StepLimitError, match=message):
            call()
    # the walk finds a step only when asked, so stopping at the limit is no error
    assert len(list(itertools.islice(leftmost_reductions(looping, "a", 10), 10))) == 10


# checked systems over a < b < c: "c" -> "a" decreases, and so does "b a" ->
# "a b"; "a b" -> "b a" (equal length, larger) and "b" -> "aa" (longer) do not
def _checked(*rules):
    return RewriteSystem(name="checked", alphabet="abc", order="abc", assert_decrease=True,
                         schemas=tuple(make_schema(*rule) for rule in rules))


@pytest.mark.parametrize("rule, word, message", [
    (("up", "a b", "b a"), "ab", "up on 'ab' -> 'ba'"),
    (("up", "a b", "b a"), "cb", "up on 'ab' -> 'ba'"),
    (("grow", "b", "aa"), "b", "grow on 'b' -> 'aa'"),
    (("grow", "b", "aa"), "cab", "grow on 'aab' -> 'aaaa'"),
    (("same", "b", "b"), "cb", "same on 'ab' -> 'ab'"),
], ids=["larger-first", "larger-later", "longer-first", "longer-later", "equal"])
def test_a_non_decreasing_step_is_rejected(rule, word, message):
    system = _checked(("down", "c", "a"), rule)
    pattern = f"^non-decreasing step {re.escape(message)}$"
    calls = [lambda: normal_form(system, word), lambda: normal_form(system, word, memo={}),
             lambda: list(leftmost_reductions(system, word))]
    if word in ("ab", "b"):
        calls.append(lambda: reduce_once(system, word))
    for call in calls:
        with pytest.raises(AssertionError, match=pattern):
            call()


def test_an_equal_length_smaller_step_passes_the_check():
    system = _checked(("down", "c", "a"), ("swap", "b a", "a b"))
    trace = list(leftmost_reductions(system, "bcba"))
    final = trace[-1].word
    assert final == normal_form(system, "bcba") == normal_form(system, "bcba", memo={})
    assert (final, [r.rule_id for r in trace]) == ("aabb", ["down", "swap", "swap", "swap"])
    assert reduce_once(system, "ba").word == "ab"


def test_step_limit_env_override(monkeypatch):
    monkeypatch.setenv("LEF_STEP_LIMIT", "3")
    looping = RewriteSystem(
        name="loop",
        alphabet="ab",
        order="ab",
        schemas=(make_schema("r1", "a", "b"), make_schema("r2", "b", "a")),
    )
    with pytest.raises(StepLimitError):
        normal_form(looping, "a")


# ---------------------------------------------------------------------------
# the compiled core: resuming leftmost reduction against the full rescan

SYSTEMS = {"q": Q_SYSTEM, "fn:1": build_fn_system(1), "fn:2": build_fn_system(2)}
# s2 turning "abcde" into "abcdd" creates an s1 match that starts
# max_lhs_atoms - 1 runs before the run holding the letter left of the edit
EDGE = RewriteSystem(name="edge", alphabet="abcde", order="abcde",
                     schemas=(make_schema("s1", "a b c d^2", "a"), make_schema("s2", "e", "d")))


def _long_words():
    rng = random.Random(320)
    yield "q", "".join(rng.choice("acebx") for _ in range(320))
    yield "fn:2", "x" + "a" * 40 + "c" * 39 + "e" * 5 + "x"
    yield "fn:2", "x" + "a" * 3 + "c" * 40 + "e" * 2 + "x" + "b" * 30
    yield "fn:2", "c" * 33 + "a" * 20 + "x" + "e" * 9 + "a" * 4 + "x"


def _full_rescan(system, w):
    """The leftmost chain of w with every step searched from position 0."""
    chain = []
    while (red := reduce_once(system, w)) is not None:
        chain.append(red)
        w = red.word
    return w, chain


def _full_rescan_largest(system, w):
    """The words of w's leftmost-largest chain, each step the first of a
    fresh walk, searched from position 0."""
    chain = []
    while (step := next(lef.rewrite._steps(system, w, 1, largest=True), None)) is not None:
        w = step[0]
        chain.append(w)
    return chain


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["edge"])
def test_resuming_normal_form_matches_full_rescan(name, monkeypatch):
    """leftmost_reductions, and normal_form, walk the steps of ``_steps``,
    which resumes near each edit; the references rescan from 0.  The step
    count of normal_form is the number of steps of its leftmost-largest
    walk."""
    steps = 0
    original = lef.rewrite._steps

    def counting(*args, **kwargs):
        nonlocal steps
        for step in original(*args, **kwargs):
            steps += 1
            yield step

    monkeypatch.setattr(lef.rewrite, "_steps", counting)
    system = SYSTEMS.get(name, EDGE)
    words = all_words(system.alphabet, 5) + [w for key, w in _long_words() if key == name]
    for word in words:
        final, chain = _full_rescan(system, word)
        assert list(leftmost_reductions(system, word)) == chain, word
        largest = _full_rescan_largest(system, word)
        before = steps
        assert normal_form(system, word) == (largest[-1] if largest else word) == final, word
        assert steps - before == len(largest), word


def _long_run_words(kmax):
    for k in range(1, kmax + 1):
        yield "x" + "a" * k + "c" * (k - 1) + "x"
        yield "x" + "a" * k + "c" * k + "e" * k + "x"


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_normal_form_is_the_end_of_the_leftmost_smallest_walk(name):
    """On a convergent system the leftmost-largest walk of normal_form and
    the leftmost-smallest walk of leftmost_reductions end at one word."""
    system = SYSTEMS[name]
    for word in all_words(system.alphabet, 6) + list(_long_run_words(60)):
        end = word
        for red in leftmost_reductions(system, word):
            end = red.word
        assert normal_form(system, word) == end, word


def test_a_long_run_takes_two_largest_steps(monkeypatch):
    """x a^k c^(k-1) x: q2 takes all of c^(k-1) at once, then q7 ends at xax;
    the smallest walk would take about k^2/2 steps."""
    steps = 0
    original = lef.rewrite._steps

    def counting(*args, **kwargs):
        nonlocal steps
        for step in original(*args, **kwargs):
            steps += 1
            yield step

    monkeypatch.setattr(lef.rewrite, "_steps", counting)
    word = "x" + "a" * 100_000 + "c" * 99_999 + "x"
    assert normal_form(Q_SYSTEM, word, step_limit=2) == "xax"
    assert steps == 2


@settings(derandomize=True, max_examples=50, deadline=None)
@given(name=st.sampled_from(sorted(SYSTEMS)),
       word=st.text(alphabet="acebx", min_size=1, max_size=40),
       seed=st.integers(0, 2**16))
def test_leftmost_normal_form_is_strategy_independent(name, word, seed):
    system = SYSTEMS[name]
    assert normal_form(system, word) == random_normal_form(system, word, random.Random(seed))



# ---------------------------------------------------------------------------
# the normal-form memo: every word of a leftmost chain maps to the chain's end

# not confluent: "ab" reduces to "a" by r1 and to "ac" by r2
DIVERGING = RewriteSystem(name="diverging", alphabet="abc", order="abc",
                          schemas=(make_schema("r1", "ab", "a"), make_schema("r2", "b", "c")))
MEMO_SYSTEMS = {**SYSTEMS, "diverging": DIVERGING}


@pytest.mark.parametrize("name", sorted(MEMO_SYSTEMS))
def test_a_shared_memo_gives_the_plain_normal_forms(name):
    system = MEMO_SYSTEMS[name]
    memo: dict[str, str] = {}
    for word in all_words(system.alphabet, 5):
        assert normal_form(system, word, memo=memo) == normal_form(system, word), word
    assert len(memo) > 0
    for key, value in memo.items():
        assert value == normal_form(system, key), key


@pytest.mark.parametrize("name", sorted(MEMO_SYSTEMS))
def test_one_memoised_call_records_its_whole_chain(name):
    system = MEMO_SYSTEMS[name]
    shared: dict[str, str] = {}
    for word in all_words(system.alphabet, 4):
        chain = [word] + [step[0] for step in _reference_chain(system, word, largest=True)]
        final = chain[-1]
        memo: dict[str, str] = {}
        assert normal_form(system, word, memo=memo) == final == normal_form(system, word)
        assert memo == dict.fromkeys(chain, final), word
        # a shared memo stays closed under the leftmost step
        normal_form(system, word, memo=shared)
        assert all(w in shared for w in chain), word


def test_memo_step_limit_counts_only_the_steps_taken():
    word = "xcabxcab"
    trace = list(leftmost_reductions(Q_SYSTEM, word))
    assert len(trace) > 2
    with pytest.raises(StepLimitError):
        normal_form(Q_SYSTEM, word, step_limit=2)
    # the chain meets the memo after two steps, so two steps are enough
    memo = {trace[1].word: normal_form(Q_SYSTEM, trace[1].word)}
    assert normal_form(Q_SYSTEM, word, step_limit=2, memo=memo) == normal_form(Q_SYSTEM, word)
    looping = RewriteSystem(name="loop", alphabet="ab", order="ab",
                            schemas=(make_schema("r1", "a", "b"), make_schema("r2", "b", "a")))
    memo = {}
    with pytest.raises(StepLimitError):
        normal_form(looping, "a", step_limit=10, memo=memo)
    assert memo == {}


def test_step_limits_below_zero_or_not_integers_are_rejected(monkeypatch):
    with pytest.raises(ValueError, match="step_limit=-1 is below 0"):
        normal_form(Q_SYSTEM, "xe", step_limit=-1)
    monkeypatch.setenv("LEF_STEP_LIMIT", "-3")
    with pytest.raises(ValueError, match="LEF_STEP_LIMIT=-3 is below 0"):
        normal_form(Q_SYSTEM, "xe")
    with pytest.raises(ValueError, match="LEF_STEP_LIMIT=-3 is below 0"):
        list(leftmost_reductions(Q_SYSTEM, "xe"))
    monkeypatch.setenv("LEF_STEP_LIMIT", "abc")
    with pytest.raises(ValueError, match="LEF_STEP_LIMIT='abc' is not an integer"):
        check_local_confluence(Q_SYSTEM, 1)
    # an explicit limit wins over the environment, and 0 allows no step
    assert normal_form(Q_SYSTEM, "xe", step_limit=0) == "xe"
    with pytest.raises(StepLimitError):
        normal_form(Q_SYSTEM, "xb", step_limit=0)

def test_compiled_state_belongs_to_its_system():
    def reduce_ab(rhs):
        system = RewriteSystem(name="ab", alphabet="ab", order="ab",
                               schemas=(make_schema("r1", "a b", rhs),))
        return normal_form(system, "aab")

    # built one after another, so the second may reuse the first's memory
    assert reduce_ab("b") == "b"
    gc.collect()
    assert reduce_ab("a") == "aa"
    # the same rule ids with exponents that depend on n
    assert normal_form(build_fn_system(1), "aaa") == "a"
    assert normal_form(build_fn_system(2), "aaa") == "aaa"
    assert normal_form(build_fn_system(2), "aaaaa") == "a"
    assert normal_form(build_fn_system(1), "xaaac") == "xe"
    assert normal_form(build_fn_system(2), "xaaac") == "xaae"


# ---------------------------------------------------------------------------
# dispatch: only the schemas that can match at a position are tried

# the first lhs atom is a variable that may be 0, so z1 can start at any letter
ZERO_START = RewriteSystem(name="zero-start", alphabet="abc", order="abc", schemas=(
    make_schema("z1", "a^alpha b^beta c^gamma", "b", ["1<alpha+beta+gamma"]),))
# the first lhs atom is a variable that is at least 1, so p1 starts at an a
ONE_START = RewriteSystem(name="one-start", alphabet="abc", order="abc", schemas=(
    make_schema("p1", "a^alpha b^beta c", "c", ["0<alpha", "beta<=alpha"]),
    make_schema("p2", "c b^beta", "c", ["0<beta<=2"])))
# constant atoms of exponent 3 and more, like f2a's a^5 in fn:2
CONSTANT = RewriteSystem(name="constant", alphabet="abc", order="abc", schemas=(
    make_schema("k1", "a^3", "a"), make_schema("k2", "b c^4", "c"),
    make_schema("k3", "c^beta a^4", "b", ["beta<3"])))
# checks that bound the last variable by an equation or not_both_zero
LAST_BOUND = RewriteSystem(name="last-bound", alphabet="abc", order="abc", schemas=(
    make_schema("e1", "a^alpha b^beta", "c", ["alpha=beta", "0<beta"]),
    make_schema("e2", "b^beta c^gamma", "a", ["not_both_zero(beta,gamma)"]),
    make_schema("e3", "c^gamma a^alpha", "b", ["2alpha=gamma+1"])))
DISPATCH = {**SYSTEMS, "edge": EDGE, "zero-start": ZERO_START,
            "one-start": ONE_START, "constant": CONSTANT, "last-bound": LAST_BOUND}


def _dispatch_words(name):
    system = DISPATCH[name]
    return all_words(system.alphabet, 5) + [w for key, w in _long_words() if key == name]


_COMPILED: dict[int, tuple] = {}  # id -> (system, its schemas with compiled conditions)


def _compiled_conditions(system):
    known, compiled = _COMPILED.get(id(system), (None, None))
    if known is not system:  # the entry holds its system, so the id is not reused
        compiled = [(s, compile_conditions(s.conditions, system.parameter_n))
                    for s in system.schemas]
        _COMPILED[id(system)] = (system, compiled)
    return compiled


def _reference_matches(system, w, first=False):
    """Every (position, rule id, assignment, consumed) by trying every schema
    at every position, each atom but the last taking its whole run, against
    all the schema's compiled conditions; with ``first``, only the matches at
    the first position that has one."""
    n = system.parameter_n
    schemas = _compiled_conditions(system)
    out = []
    for pos in range(len(w)):
        if first and out:
            break
        for schema, checks in schemas:
            assignment, cur, options = {}, pos, []
            for i, (letter, expr) in enumerate(schema.lhs):
                run = len(w) - cur - len(w[cur:].lstrip(letter))
                k = None if expr.is_bare_var() else evaluate(expr, {}, n)
                if i < len(schema.lhs) - 1:
                    if k is not None and run != k:
                        break
                    if k is None:
                        assignment[expr.var_coeffs[0][0]] = run
                    cur += run
                elif k is not None:
                    options = [(assignment, cur + k - pos)] if k <= run else []
                else:
                    name = expr.var_coeffs[0][0]
                    options = [({**assignment, name: val}, cur + val - pos)
                               for val in range(run + 1)]
            out += [(pos, schema.id, asg, consumed) for asg, consumed in options
                    if conditions_hold(checks, asg)]
    return out


@pytest.mark.parametrize("name", sorted(DISPATCH))
def test_dispatch_matches_the_unfiltered_reference(name):
    system = DISPATCH[name]
    # a letter outside the alphabet ends every run, like the end of the word,
    # also at offset 1 or 2 of a 3-letter window (a system that checks each
    # step's decrease rejects such words)
    foreign = [] if system.assert_decrease else [
        "az", "ez", "zez", "xazccc", "bzzb", "aazcccc", "aza", "abza", "xzx", "cazb", "aaza"]
    rhs = {s.id: compile_atoms(s.rhs, system.parameter_n) for s in system.schemas}
    for w in _dispatch_words(name) + foreign:
        expected = _reference_matches(system, w)
        got = [(r.position, r.rule_id, r.assignment, len(r.matched))
               for r in enumerate_redexes(system, w)]
        assert got == expected, w
        # one rule's one-step results, as the appendix rows check them
        results = {rule_id: {w[:pos] + render_atoms(rhs[rule_id], asg) + w[pos + consumed:]
                             for pos, rid, asg, consumed in expected if rid == rule_id}
                   for rule_id in rhs}
        candidates = {w}.union(*results.values())
        for rule_id, words in results.items():
            assert {v for v in candidates if _one_step(system, w, rule_id, v)} == words, \
                (w, rule_id)
        red = reduce_once(system, w)
        first = None if red is None else (red.position, red.rule_id, red.assignment,
                                          len(red.matched))
        assert first == (expected[0] if expected else None), w


def _reference_chain(system, w, largest=False):
    """The leftmost chain of w as (word, position, rule id, assignment,
    matched, replacement) tuples, each step the first of _reference_matches;
    with ``largest``, the last match of that position and rule (the largest
    assignment of the last variable)."""
    rhs = {s.id: compile_atoms(s.rhs, system.parameter_n) for s in system.schemas}
    chain = []
    while found := _reference_matches(system, w, first=True):
        if largest:
            found = [f for f in found if f[:2] == found[0][:2]][::-1]
        pos, rule_id, assignment, consumed = found[0]
        replacement = render_atoms(rhs[rule_id], assignment)
        matched = w[pos:pos + consumed]
        w = w[:pos] + replacement + w[pos + consumed:]
        chain.append((w, pos, rule_id, assignment, matched, replacement))
    return chain


@pytest.mark.parametrize("name", sorted(SYSTEMS) + ["edge"])
def test_leftmost_walk_matches_the_reference_chain(name):
    system = DISPATCH[name]
    words = all_words(system.alphabet, 5) + [w for key, w in _long_words() if key == name]
    for w in words:
        chain = _reference_chain(system, w)
        trace = list(leftmost_reductions(system, w))
        assert [(r.word, r.position, r.rule_id, r.assignment, r.matched, r.replacement)
                for r in trace] == chain, w
        largest = _reference_chain(system, w, largest=True)
        assert normal_form(system, w) == (largest[-1][0] if largest else w), w


@pytest.mark.parametrize("system", [Q_SYSTEM, build_fn_system(2)], ids=["q", "fn:2"])
def test_a_checked_step_names_a_foreign_letter(system):
    # systems that check each step's decrease rank every letter of the
    # result; a letter outside the alphabet is a ValueError naming it
    assert system.assert_decrease
    for w in ("xcaz", "zxca"):
        with pytest.raises(ValueError, match="^letter 'z' is outside the alphabet 'acebx'$"):
            reduce_once(system, w)
        with pytest.raises(ValueError, match="^letter 'z' is outside the alphabet"):
            normal_form(system, w)


@pytest.mark.parametrize("name", sorted(DISPATCH))
def test_every_match_is_filed_under_its_window(name):
    system = DISPATCH[name]
    for w in _dispatch_words(name):
        for pos in range(len(w)):
            listed = system._table[w[pos:pos + 3]]
            for m in system._matchers:
                if lef.rewrite._match_at(m, w, pos) is not None:
                    assert m in listed, (w, pos, m.schema.id)


def test_window_table_skips_schemas_that_cannot_start_there():
    q, fn2 = SYSTEMS["q"], SYSTEMS["fn:2"]
    assert {key[0] for key, ms in q._table.items()
            if any(m.schema.id == "q4" for m in ms)} == {"a"}
    assert {key[0] for key, ms in fn2._table.items()
            if any(m.schema.id == "f10" for m in ms)} == {"a"}
    assert max(len(ms) for key, ms in fn2._table.items() if key.startswith("x")) == 12
    assert all(ZERO_START._table[key] for key in ZERO_START._table if key)
    assert not ONE_START._table["ba"] and not ONE_START._table[""]
    assert [m.schema.id for m in CONSTANT._table["aaa"]] == ["k1", "k3"]
    # a key shorter than 3 letters is a window cut by the end of the word
    assert not CONSTANT._table["aa"] and not CONSTANT._table["ab"] and not CONSTANT._table["a"]
    # k3's c^beta has beta < 3, so three c's are no start of it
    assert [m.schema.id for m in CONSTANT._table["cca"]] == ["k3"] and not CONSTANT._table["ccc"]


def test_q_matching_tries_few_schemas(monkeypatch):
    """Normal forms and traces of all q words of length <= 5.  Trying every
    schema whose lhs starts with the letter at a position, or with a
    variable, takes 162,672 match attempts here; the window table must at
    least halve that."""
    calls = 0
    original = lef.rewrite._match_at

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(lef.rewrite, "_match_at", counting)
    for word in all_words(Q_SYSTEM.alphabet, 5):
        normal_form(Q_SYSTEM, word)
        list(leftmost_reductions(Q_SYSTEM, word))
    # a stepping path that bypassed the counted matcher would count nothing
    assert 0 < calls < 162_672 // 2


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_instantiate_all_enforces_every_condition(name):
    system, bound = SYSTEMS[name], 4
    n = system.parameter_n
    instances = list(instantiate_all(system, bound))
    for schema, assignment, _, _ in instances:
        assert all(condition_holds(cond, assignment, n) for cond in schema.conditions), \
            (schema.id, assignment)
    brute = sum(1 for schema in system.schemas
                for values in itertools.product(range(bound + 1),
                                                repeat=len(schema.variables))
                if all(condition_holds(cond, dict(zip(schema.variables, values)), n)
                       for cond in schema.conditions))
    assert len(instances) == brute


# ---------------------------------------------------------------------------
# termination and confluence


def test_instantiate_all_is_bounded():
    instances = list(instantiate_all(Q_SYSTEM, 2))
    assert instances
    for schema, assignment, lhs, rhs in instances:
        assert all(0 <= v <= 2 for v in assignment.values())
        assert instantiate(schema, assignment) == (lhs, rhs)


def test_q_terminates_in_shortlex_but_not_lex():
    report = check_termination_order(Q_SYSTEM, 3)
    assert report.all_shortlex_decreasing
    assert report.shortlex_violations == []
    # plain lex over the same letter order does not orient all rules
    assert sorted(rule for rule, stats in report.per_rule.items() if not stats["lex_ok"]) == \
        [f"q{i}" for i in range(2, 10)]
    assert report.checked == sum(s["instances"] for s in report.per_rule.values())


def test_fn_terminates_in_shortlex():
    report = check_termination_order(build_fn_system(1), 3)
    assert report.all_shortlex_decreasing


def test_q_locally_confluent_at_bound_two():
    report = check_local_confluence(Q_SYSTEM, 2)
    assert report.locally_confluent
    assert report.total == 835
    assert report.resolved == report.total


def test_critical_pairs_resolve():
    pairs = critical_pairs(Q_SYSTEM, 1)
    assert pairs
    for pair in pairs:
        # the pair records both one-step results; resolution is the checker's job
        assert normal_form(Q_SYSTEM, pair.left_result) == \
            normal_form(Q_SYSTEM, pair.right_result)
    report = check_local_confluence(Q_SYSTEM, 1)
    assert report.locally_confluent
    assert report.total == len(pairs)


def test_unresolved_pair_is_reported():
    # the one overlap of DIVERGING: r1 gives "a" and r2 gives "ac" from "ab"
    report = check_local_confluence(DIVERGING, 1)
    assert not report.locally_confluent
    assert (report.total, report.resolved) == (1, 0)
    assert report.unresolved == [CriticalPair("ab", "a", "ac", ("r1", {}, 0), ("r2", {}, 1))]


def _reference_critical_pairs(system, bound):
    """Every ordered pair of bounded instances at every shift, with a set
    that drops the second of two pairs naming the same joint word and the
    same two placed instances."""
    rules = [(schema.id, asg, lhs, rhs) for schema, asg, lhs, rhs in instantiate_all(system, bound)]
    seen = set()
    out = []
    for id1, asg1, l1, r1 in rules:
        for id2, asg2, l2, r2 in rules:
            n1, n2 = len(l1), len(l2)
            for shift in range(-(n2 - 1), n1):
                lo, hi = max(0, shift), min(n1, shift + n2)
                if id1 == id2 and asg1 == asg2 and shift == 0:
                    continue
                if l1[lo:hi] != l2[lo - shift:hi - shift]:
                    continue
                start = min(0, shift)
                joint = (l2[:-shift] if shift < 0 else "") + l1 + \
                        (l2[n1 - shift:] if shift + n2 > n1 else "")
                p1, p2 = -start, shift - start
                key1 = (p1, id1, tuple(sorted(asg1.items())))
                key2 = (p2, id2, tuple(sorted(asg2.items())))
                dedup = (joint,) + tuple(sorted([key1, key2]))
                if dedup in seen:
                    continue
                seen.add(dedup)
                left = joint[:p1] + r1 + joint[p1 + n1:]
                right = joint[:p2] + r2 + joint[p2 + n2:]
                out.append(CriticalPair(joint, left, right,
                                        (id1, dict(asg1), p1), (id2, dict(asg2), p2)))
    return out


OVERLAP_CASES = [("q", Q_SYSTEM, bound) for bound in range(4)] + [
    ("fn:1", build_fn_system(1), 3), ("fn:2", build_fn_system(2), 2),
    ("fn:3", build_fn_system(3), 2),
] + [(name, DISPATCH[name], 3) for name in ("edge", "zero-start", "one-start", "constant")]


@pytest.mark.parametrize("name, system, bound", OVERLAP_CASES,
                         ids=[f"{name}-{bound}" for name, _, bound in OVERLAP_CASES])
def test_critical_pairs_match_the_all_pairs_reference(name, system, bound):
    assert critical_pairs(system, bound) == _reference_critical_pairs(system, bound)


CONFLUENCE_CASES = OVERLAP_CASES + [("diverging", DIVERGING, 1)]


@pytest.mark.parametrize("name, system, bound", CONFLUENCE_CASES,
                         ids=[f"{name}-{bound}" for name, _, bound in CONFLUENCE_CASES])
def test_confluence_report_matches_the_listed_pairs(name, system, bound):
    pairs = critical_pairs(system, bound)
    unresolved = [pair for pair in pairs if normal_form(system, pair.left_result)
                  != normal_form(system, pair.right_result)]
    report = check_local_confluence(system, bound)
    assert report.total == len(pairs)
    assert report.resolved == len(pairs) - len(unresolved)
    assert report.unresolved == unresolved
    # each kept pair owns its assignments, though the instances' dicts are shared while streaming
    owned = [rule[1] for pair in report.unresolved for rule in (pair.rule1, pair.rule2)]
    assert len({id(assignment) for assignment in owned}) == len(owned)


def test_local_confluence_keeps_no_list_of_its_pairs():
    # a list of Q's 5,986 pairs at bound 3, at about 900 bytes a pair, would alone take 5.4 MB
    tracemalloc.start()
    try:
        report = check_local_confluence(Q_SYSTEM, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.total == report.resolved == 5986
    assert peak < 2.5e6, f"check_local_confluence(Q, 3) peaked at {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("bound", [-1, -2])
def test_negative_exponent_bounds_are_rejected(bound):
    with pytest.raises(ValueError, match="below 0"):
        list(instantiate_all(Q_SYSTEM, bound))
    with pytest.raises(ValueError, match="below 0"):
        check_local_confluence(Q_SYSTEM, bound)
    with pytest.raises(ValueError, match="below 0"):
        check_termination_order(build_fn_system(1), bound)


# ---------------------------------------------------------------------------
# pinned outputs


# SHA-256 of the canonical JSON of _pinned_outputs(); a change to any normal
# form, Reduction field or seeded random walk on Q, F_1 or F_2 changes it
PINNED_DIGEST = "be3da5b9ef9b8c9e16ee93b98eeb2d261419a814ac585ae7e32a1d96f7e0697d"


def _pinned_outputs() -> dict:
    rng = random.Random(28)
    short = all_words("acebx", 5)
    long = ["".join(rng.choice("acebx") for _ in range(rng.randint(10, 40))) for _ in range(200)]
    out = {}
    for name, system in (("q", Q_SYSTEM), ("fn:1", build_fn_system(1)), ("fn:2", build_fn_system(2))):
        walk = random.Random(5)
        out[name] = {
            "normal_form": [normal_form(system, w) for w in short + long],
            "leftmost": [[dataclasses.asdict(r) for r in leftmost_reductions(system, w)]
                         for w in short],
            "redexes": [[dataclasses.asdict(r) for r in enumerate_redexes(system, w)]
                        for w in short],
            "random": [random_normal_form(system, w, walk) for w in long],
        }
    return out


def test_the_rewriting_outputs_match_their_pinned_digest():
    text = json.dumps(_pinned_outputs(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_DIGEST


# ---------------------------------------------------------------------------
# serialization


def test_system_json_round_trip():
    data = system_to_json(Q_SYSTEM)
    clone = system_from_json(data)
    assert clone.name == Q_SYSTEM.name
    assert clone.alphabet == Q_SYSTEM.alphabet
    assert clone.order == Q_SYSTEM.order
    for word in ("xcab", "aexb", "xacacx"):
        assert normal_form(clone, word) == normal_form(Q_SYSTEM, word)


def test_system_json_round_trip_with_parameter():
    fn = build_fn_system(2)
    clone = system_from_json(system_to_json(fn))
    assert clone.parameter_n == 2
    for word in ("aaaaa", "xaacax", "xbxb"):
        assert normal_form(clone, word) == normal_form(fn, word)
