"""Bounded exhaustive searches: embed a partial multiplication table into a
finite semigroup of bounded order (optionally in one of the classes that
``fsg`` names), and stream relation-satisfying assignments inside a given
table, filtered on columns of assignments by ``fsg._assignment_columns`` and
counted without streaming them (``relational_assignments``).

The embedding search runs the table engine of ``fsg`` (also behind
enumeration).  It fixes the injection onto the first indices of a flat
table, backtracks over undefined cells in row-major order trying values
ascending, and closes each decision under associativity before descending:
every assigned cell goes on a worklist, and only the triples that read a
cell from it are re-checked.  Backtracking undoes a trail of assigned cells
instead of copying the table.  Forced products are forced in every
completion, so exhaustion at the bound is a complete-search certificate.
Finished tables are checked in stacks: one associativity guard per stack,
then the class mask from ``fsg``'s registry, which reads associative stacks;
the witness and the decision count reported are those of the first completion
that passes, as if each table were checked when found.  An order whose
search ran to its end earlier, under any class filter, is read from
``fsg``'s memo instead of searched again (``group`` searches, which the
Latin pruning changes, are kept apart from the rest).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fsg import (CLASS_MASKS, MulTable, PartialTable, _assignment_columns, _completions,
                  _word_values, associative_mask, relation_variables)

__all__ = ["SearchResult", "embed_partial_table", "check_partial_associativity",
           "malcev_witness_table", "relational_assignments", "MAX_ASSIGN_ORDER"]

MAX_ASSIGN_ORDER = 8
ASSIGN_CHUNK = 4096  # assignment rows turned into Python values at a time


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a bounded embedding search.

    witness, when present, is the host table together with the injection of
    the partial table's elements onto its first indices.  explored counts
    value decisions tried across all orders; bound echoes max_order.
    """

    status: str        # embeddable | not_embeddable_up_to_bound
    witness: tuple[MulTable, dict[str, int]] | None
    explored: int
    bound: int

    def as_json(self) -> dict:
        out = {"status": self.status, "explored": self.explored,
               "bound": self.bound}
        if self.witness is not None:
            table, injection = self.witness
            out["witness"] = {"table": table.to_json(),
                              "injection": dict(injection)}
        return out


def check_partial_associativity(pt: PartialTable) -> None:
    """Raises ValueError when some product points outside the element set or
    the two groupings of a fully defined triple disagree."""
    members = set(pt.elements)
    for (x, y), z in pt.products.items():
        if x not in members or y not in members or z not in members:
            raise ValueError(f"product {x!r}*{y!r}={z!r} uses unknown elements")
    for x in pt.elements:
        for y in pt.elements:
            xy = pt.products.get((x, y))
            for z in pt.elements:
                yz = pt.products.get((y, z))
                left = pt.products.get((xy, z)) if xy is not None else None
                right = pt.products.get((x, yz)) if yz is not None else None
                if left is not None and right is not None and left != right:
                    raise ValueError(
                        f"partial associativity fails on ({x},{y},{z}): "
                        f"({x}{y}){z} = {left} but {x}({y}{z}) = {right}")


def malcev_witness_table() -> PartialTable:
    """The thirteen-element partial table whose defined products encode
    ax = by, cx = dy, au = bv while keeping cu and dv distinct; it embeds in
    no group, since groups force cu = dv from the three equalities."""
    elements = ("a", "b", "c", "d", "x", "y", "u", "v",
                "ax", "cx", "au", "cu", "dv")
    products = {
        ("a", "x"): "ax", ("b", "y"): "ax",
        ("c", "x"): "cx", ("d", "y"): "cx",
        ("a", "u"): "au", ("b", "v"): "au",
        ("c", "u"): "cu", ("d", "v"): "dv",
    }
    return PartialTable(elements=elements, products=products)


def relational_assignments(mt: MulTable, relations, distinctness=()):
    """(count, rows): every mapping of the relations' variables into the
    table under which all relation equalities hold, as a generator of
    (assignment, violations) rows, and their count, read off the filtered
    columns, so a caller that lists only the first rows turns no others into
    Python values.

    violations lists the distinctness pairs whose two sides nevertheless
    evaluate to the same element.  Such assignments are reported rather than
    suppressed: a forced collapse is usually the interesting output.
    Assignments come in C order of the grid of assignments, from the column
    filter of ``fsg`` that ``check_implication`` uses; the distinctness pairs
    are evaluated on the columns that are left, ``ASSIGN_CHUNK`` rows at a time.
    """
    relations = [tuple(r) for r in relations]
    distinctness = [tuple(d) for d in distinctness]
    variables = relation_variables(relations + distinctness)
    if len(variables) > 8:
        raise ValueError("at most 8 distinct variables are supported")
    if mt.order > MAX_ASSIGN_ORDER:
        raise ValueError(f"assignment search is bounded at order "
                         f"{MAX_ASSIGN_ORDER}, got {mt.order}")
    if not variables:
        return 1, iter([({}, [])])
    table, cols = _assignment_columns(mt, variables, relations)
    collapsed = [_word_values(table, cols, u) == _word_values(table, cols, v)
                 for u, v in distinctness]
    count = len(cols[variables[0]])

    def rows():
        for at in range(0, count, ASSIGN_CHUNK):
            chunk = slice(at, at + ASSIGN_CHUNK)
            values = zip(*(cols[x][chunk].tolist() for x in variables))
            for row, *hits in zip(values, *(c[chunk].tolist() for c in collapsed)):
                yield dict(zip(variables, row)), [d for d, hit in zip(distinctness, hits) if hit]
    return count, rows()


def _filler_labels(base: tuple[str, ...], n: int) -> tuple[str, ...]:
    labels = list(base)
    i = len(base)
    while len(labels) < n:
        name = f"_{i}"
        while name in labels:
            name += "'"
        labels.append(name)
        i += 1
    return tuple(labels)


def _check_witness(mt: MulTable, pt: PartialTable, at: dict[str, int],
                   class_filter: str) -> None:
    """Raise AssertionError unless the witness is associative (one blocked
    scan), holds every product of the partial table and lies in the class
    asked for (the class's mask)."""
    if not mt.is_associative():
        raise AssertionError("the witness is not associative")
    for (x, y), z in pt.products.items():
        if mt.mul(at[x], at[y]) != at[z]:
            raise AssertionError(f"the witness breaks the pinned product {x}*{y} = {z}")
    if not CLASS_MASKS[class_filter](mt.table[None])[0]:
        raise AssertionError(f"the witness is not in the class {class_filter!r}")


def embed_partial_table(pt: PartialTable, max_order: int,
                        class_filter: str = "any") -> SearchResult:
    """Complete search for a semigroup of order |elements|..max_order hosting
    the partial table, elements pinned to the first indices.

    Each decision assigns one cell; propagation then re-checks only the
    triples that read a newly assigned cell (as pq, qr, (pq)r or p(qr)) and
    forces the product their other three determine, and backtracking undoes
    the trail of assigned cells.  ``explored`` counts the values tried.

    Class filters are tested on finished tables only; the group filter
    additionally prunes row or column repeats eagerly.  Finished tables are
    checked in stacks of up to 1,024 (``fsg._Completions``): the
    associativity guard and the class mask each run once per stack.  The
    witness is the first completion in search order that passes, and
    ``explored`` is the decision count at which it was found, both as with
    checking each table when it is found.  R-, L- and J-related pairs
    witnessed by products already defined (s = tu and t = sv for R, and the
    like) stay related in every completion, so R/L/J-triviality could prune
    partial tables too; it does not, so an exhausted search explores the
    same decisions under every filter but ``group``.  Each order's search
    that ran to its end earlier in the process is therefore read from
    ``fsg``'s memo, and ``explored`` still counts the decisions of the
    search tree, as a live search would.  The witness is checked again
    before it is returned: associative, holding every product of the
    partial table, and in the class; a failure raises AssertionError.  A
    max_order below the element count raises ValueError: it leaves no order
    to search, and an empty search would certify nothing.
    """
    if class_filter not in CLASS_MASKS:
        raise ValueError(f"unknown class filter {class_filter!r}; choose from "
                         f"{sorted(CLASS_MASKS)}")
    k = len(pt.elements)
    if max_order < k:
        raise ValueError(f"max order {max_order} is below the {k} elements "
                         f"of the partial table")
    check_partial_associativity(pt)
    in_class = CLASS_MASKS[class_filter]
    at = {label: i for i, label in enumerate(pt.elements)}
    explored = 0
    for n in range(k, max_order + 1):
        pins = [(at[x] * n + at[y], at[z]) for (x, y), z in pt.products.items()]
        run = _completions(n, latin=class_filter == "group", pins=pins)
        for stack, found_at in run.stacks():
            if not associative_mask(stack).all():
                raise AssertionError("propagation let an inassociative table through")
            hits = np.flatnonzero(in_class(stack))
            if hits.size:
                i = hits[0]
                mt = MulTable(stack[i].astype(np.int64), labels=_filler_labels(pt.elements, n))
                _check_witness(mt, pt, at, class_filter)
                return SearchResult(status="embeddable", witness=(mt, dict(at)),
                                    explored=explored + int(found_at[i]),
                                    bound=max_order)
        explored += run.decisions
    return SearchResult(status="not_embeddable_up_to_bound", witness=None,
                        explored=explored, bound=max_order)
