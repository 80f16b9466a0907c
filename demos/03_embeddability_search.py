#!/usr/bin/env python3
"""Bounded embeddability search for partial multiplication tables.

A partial table is embeddable when some finite semigroup contains an injective
copy of it that preserves every defined product.  The four-element fragment
{1, a, b, ba} of the bicyclic monoid (ab = 1) is the canonical example of a
partial table with NO such finite host; the backtracking search certifies this
up to a stated order bound by exhausting every choice.  A Malcev-style witness
forces cu = dv in any group, so a table declaring them distinct embeds in no
group, yet it embeds in a semigroup of its own order.  A bound below a
table's element count is refused: no host that small holds the table.
"""

from lef.fsg import PartialTable
from lef.presets import bicyclic4_table
from lef.search import embed_partial_table, malcev_witness_table


def show(name: str, result) -> None:
    print(f"\n== {name} ==")
    print(f"  status:   {result.status}")
    print(f"  explored: {result.explored} decisions up to order {result.bound}")
    if result.witness is not None:
        mt, injection = result.witness
        print(f"  host order {mt.order}, injection {injection}")


def main() -> None:
    pt = bicyclic4_table()
    print("the bicyclic fragment: elements", ", ".join(pt.elements))
    for (u, v), w in sorted(pt.products.items()):
        print(f"  {u} * {v} = {w}")
    show("bicyclic fragment vs all semigroups of order <= 4",
         embed_partial_table(pt, 4))

    # an embeddable table for contrast
    ok = PartialTable(elements=("p", "q"),
                      products={("p", "q"): "q", ("q", "p"): "q"})
    show("a two-element partial table", embed_partial_table(ok, 3))

    # the class filter changes the answer: p*p = q, q*q = p needs an element
    # of period 3, which no aperiodic (J-trivial) semigroup contains
    cycle = PartialTable(elements=("p", "q"),
                         products={("p", "p"): "q", ("q", "q"): "p"})
    show("period-3 table vs any semigroup", embed_partial_table(cycle, 3))
    show("period-3 table vs J-trivial semigroups only",
         embed_partial_table(cycle, 4, class_filter="j_trivial"))

    # a bound below the element count leaves nothing to search, so the
    # search refuses it rather than certify a vacuous negative
    malcev = malcev_witness_table()
    print("\n== Malcev witness vs groups of order <= 4 ==")
    try:
        embed_partial_table(malcev, 4, class_filter="group")
    except ValueError as exc:
        print(f"  refused: {exc}")
    show("Malcev witness vs all semigroups of order <= 13",
         embed_partial_table(malcev, 13))


if __name__ == "__main__":
    main()
