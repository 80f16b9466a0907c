"""The joinability tables for the overlap analysis of Q and F_n: row lookup,
pattern rendering, the row checker, and full-table verification (smoke bounds
here; the acceptance tests run the full bounds)."""

import dataclasses
import itertools
from collections import Counter

import pytest

import lef.appendix
import lef.rewrite
from lef.appendix import (
    A_ROWS,
    B_ROWS,
    AppendixReport,
    check_row,
    verify_appendix,
)
from conftest import get_row, render_pattern
from lef.presets import Q_SYSTEM, build_fn_system
from lef.rewrite import (_UNBOUNDED, bounded_assignments, compile_conditions,
                         conditions_hold, enumerate_redexes, parse_condition)

# rows that admit no assignment at n = 1: every row whose side conditions
# demand an open window like n < alpha - beta < 2n collapses when n = 1
B_EMPTY_AT_N1 = {
    "B5", "B6", "B7", "B10", "B13", "B15", "B16", "B17", "B36", "B38",
    "B43", "B52", "B57", "B58", "B72", "B79", "B81", "B83", "B85", "B88",
    "B90", "B95", "B97", "B100", "B102", "B105", "B107", "B109", "B111",
    "B115", "B116", "B118", "B122", "B124",
}


def test_table_sizes():
    assert len(A_ROWS) == 26
    assert len(B_ROWS) == 125


def test_get_row():
    row = get_row("A3")
    assert row.label == "A3"
    assert (row.first_rule, row.second_rule) == ("q1a", "q6")
    assert row.t == "x c^beta e^gamma x b"
    b79 = get_row("B79")
    assert (b79.first_rule, b79.second_rule) == ("f3", "f10")
    assert b79.t0 == "x c^2n-alpha+beta e x"
    with pytest.raises(KeyError):
        get_row("A99")
    with pytest.raises(KeyError):
        get_row("C1")


def test_row_variables():
    row = get_row("A3")
    assert set(row.variables) == {"beta", "gamma"}


def test_render_pattern():
    assert render_pattern("x a^alpha c^beta+1 x", {"alpha": 2, "beta": 0}, None) \
        == "xaacx"
    assert render_pattern("x e^2n", {}, 2) == "xeeee"
    with pytest.raises(ValueError):
        render_pattern("a^alpha-1", {"alpha": 0}, None)


def test_check_row_single():
    report = check_row(Q_SYSTEM, get_row("A1"), bound=2)
    assert report.instantiable
    assert report.ok
    assert report.distinct <= report.assignments


def test_verify_appendix_a_smoke():
    report = verify_appendix("A", max_exp=2)
    assert report.all_joined
    assert report.rows_instantiable >= 20
    assert report.bound == 2
    lines = report.summary_lines()
    assert len(lines) == 27  # one per row plus the verdict
    assert "all joined" in lines[-1]


def test_verify_appendix_b_n1():
    report = verify_appendix("B", n=1, max_exp=4)
    assert report.all_joined
    assert report.rows_instantiable == 91
    assert set(report.rows_empty) == B_EMPTY_AT_N1
    assert report.bound == 4  # max(max_exp, 2n) = 4 at n = 1
    data = report.as_json()
    assert data["rows_total"] == 125
    assert data["all_joined"] is True


def test_verify_appendix_reduces_each_word_once(monkeypatch):
    """The rows of one call share normal forms: no word starts a second
    leftmost walk, and the report is the one the rows give when each is
    checked on its own."""
    walked = Counter()
    original = lef.rewrite._steps

    def counting(system, word, *args, **kwargs):
        walked[word] += 1
        return original(system, word, *args, **kwargs)

    monkeypatch.setattr(lef.rewrite, "_steps", counting)
    shared = verify_appendix("A").as_json()
    assert walked and max(walked.values()) == 1
    monkeypatch.undo()
    one_by_one = AppendixReport(table="A", n=None, max_exp=4, bound=4,
                                rows=[check_row(Q_SYSTEM, row, 4) for row in A_ROWS]).as_json()
    del shared["elapsed_seconds"], one_by_one["elapsed_seconds"]
    assert shared == one_by_one


def test_verify_appendix_argument_validation():
    with pytest.raises(ValueError):
        verify_appendix("B")  # needs n
    with pytest.raises(ValueError):
        verify_appendix("A", n=1)  # has no parameter
    with pytest.raises(ValueError):
        verify_appendix("C")
    for which, n in (("A", None), ("B", 1)):
        with pytest.raises(ValueError, match="below 0"):
            verify_appendix(which, n=n, max_exp=-1)
    with pytest.raises(ValueError, match="below 0"):
        check_row(Q_SYSTEM, get_row("A1"), bound=-1)


# ---------------------------------------------------------------------------
# the row checker against its reference: the full 0..bound product and every
# rule's redexes


def _fold_nothing(checks, variables):
    return dict.fromkeys(variables, 0), dict.fromkeys(variables, _UNBOUNDED), list(checks)


def _via_all_redexes(system, w, rule_id):
    return {r.word for r in enumerate_redexes(system, w) if r.rule_id == rule_id}


def _reference_check_row(monkeypatch, system, row, bound):
    with monkeypatch.context() as m:
        m.setattr(lef.rewrite, "_split_bounds", _fold_nothing)
        m.setattr(lef.appendix, "_rule_results", _via_all_redexes)
        return check_row(system, row, bound)


def _reference_cases():
    yield from ((Q_SYSTEM, row) for row in A_ROWS)
    for n in (1, 2):
        yield from ((build_fn_system(n), row) for row in B_ROWS)
    yield Q_SYSTEM, dataclasses.replace(get_row("A3"), t1="x c^beta e^gamma x c x")
    yield build_fn_system(2), dataclasses.replace(get_row("B79"), t0="x c^2n-alpha+beta x")
    # t1 and t2 are one-step results of t, each under the other row's rule
    a3 = get_row("A3")
    yield Q_SYSTEM, dataclasses.replace(a3, first_rule=a3.second_rule, second_rule=a3.first_rule)


def test_check_row_matches_the_full_product_reference(monkeypatch):
    for system, row in _reference_cases():
        expected = _reference_check_row(monkeypatch, system, row, 4).as_json()
        assert check_row(system, row, 4).as_json() == expected, (row.label, system.name)


def test_bounded_assignments_keep_every_admissible_assignment():
    """Every row's and every schema's conditions at n = 1, 2 over bounds
    0..3: the assignments are the filtered full product, order included."""
    alpha = compile_conditions((parse_condition("0<alpha<=2n"),), 1)
    assert list(bounded_assignments(alpha, ("alpha", "beta"), 4)) == [
        {"alpha": a, "beta": b} for a in (1, 2) for b in range(5)]
    with pytest.raises(ValueError, match="exponent bound -1 is below 0"):
        next(bounded_assignments(alpha, ("alpha",), -1))
    cases = [(row.parsed[1], row.variables, None) for row in A_ROWS]
    cases += [(row.parsed[1], row.variables, n) for row in B_ROWS for n in (1, 2)]
    cases += [(schema.conditions, schema.variables, system.parameter_n)
              for system in (Q_SYSTEM, build_fn_system(1), build_fn_system(2))
              for schema in system.schemas]
    for conditions, variables, n in cases:
        checks = compile_conditions(conditions, n)
        for bound in range(4):
            full = [dict(zip(variables, values))
                    for values in itertools.product(range(bound + 1), repeat=len(variables))]
            full = [assignment for assignment in full if conditions_hold(checks, assignment)]
            assert list(bounded_assignments(checks, variables, bound)) == full, \
                (conditions, n, bound)


# ---------------------------------------------------------------------------
# transcription regressions: variant cells that circulate in other copies of
# these tables fail mechanically, the adopted cells pass


def test_a3_variant_with_stray_x_fails():
    row = get_row("A3")
    variant = dataclasses.replace(row, t1="x c^beta e^gamma x c x")
    report = check_row(Q_SYSTEM, variant, bound=4)
    assert report.instantiable
    assert report.failure_count == report.distinct == 12
    good = check_row(Q_SYSTEM, row, bound=4)
    assert good.ok and good.distinct == 12


def test_b79_variant_missing_e_fails():
    row = get_row("B79")
    variant = dataclasses.replace(row, t0="x c^2n-alpha+beta x")
    system = build_fn_system(2)
    report = check_row(system, variant, bound=4)
    assert report.instantiable
    assert report.failure_count == report.distinct == 4
    good = check_row(system, row, bound=4)
    assert good.ok and good.distinct == 4
    # the failure evidence names the diverging normal forms
    assert "normal forms differ" in report.failures[0]["problems"][0]
