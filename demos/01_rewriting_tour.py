#!/usr/bin/env python3
"""A tour of the parametric rewriting machinery.

The system Q rewrites words over {a, c, e, b, x} with twelve rule schemas
whose exponents are variables subject to linear side conditions.  This demo
reduces a few words step by step, confirms the system is locally confluent on
bounded critical pairs, and shows why the termination order must be shortlex
rather than plain lexicographic.
"""

from lef.presets import Q_SYSTEM, build_fn_system
from lef.rewrite import (
    check_local_confluence,
    check_termination_order,
    leftmost_reductions,
    normal_form,
)


def show_trace(word: str) -> None:
    print(f"\n  {word}")
    for step in leftmost_reductions(Q_SYSTEM, word):
        print(f"    --{step.rule_id} at {step.position}--> {step.word}")
    print(f"  normal form: {normal_form(Q_SYSTEM, word)}")


def main() -> None:
    print("== Reduction traces in Q ==")
    for word in ("xca", "xcab", "aexb", "xacacx"):
        show_trace(word)

    print("\n== The schemas themselves ==")
    for schema in Q_SYSTEM.schemas:
        print(f"  {schema.describe()}")

    print("\n== Local confluence (critical pairs at exponent bound 2) ==")
    report = check_local_confluence(Q_SYSTEM, 2)
    print(f"  {report.total} critical pairs, {report.resolved} resolved "
          f"-> locally confluent: {report.locally_confluent}")

    print("\n== Termination: shortlex versus plain lex ==")
    report = check_termination_order(Q_SYSTEM, 3)
    print(f"  {report.checked} bounded rule instances")
    print(f"  shortlex(a<c<e<b<x) violations: {len(report.shortlex_violations)}")
    bad_lex = sorted(rule for rule, stats in report.per_rule.items() if not stats["lex_ok"])
    print(f"  plain-lex failures (why shortlex is the order): {', '.join(bad_lex)}")

    print("\n== The same checks for the parametric family F_n ==")
    for n in (1, 2):
        fn = build_fn_system(n)
        conf = check_local_confluence(fn, 2)
        term = check_termination_order(fn, 3)
        print(f"  F_{n}: {conf.total} critical pairs resolved={conf.resolved}, "
              f"shortlex violations={len(term.shortlex_violations)}")
        print(f"       sample: a^{2 * n + 1} reduces to "
              f"{normal_form(fn, 'a' * (2 * n + 1))!r}")


if __name__ == "__main__":
    main()
