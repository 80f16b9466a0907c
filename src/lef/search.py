"""Bounded exhaustive searches: embed a partial multiplication table into a
finite semigroup of bounded order (optionally restricted to a class), and
stream relation-satisfying assignments inside a given table.

The embedding search fixes the injection onto the first indices, backtracks
over undefined cells in row-major order trying values ascending, and closes
each decision under associativity before descending, so exhaustion at the
bound is a complete-search certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fsg import (MulTable, PartialTable, is_clifford, is_completely_simple,
                  is_group, is_j_trivial, is_l_trivial, is_r_trivial,
                  relation_grid, relation_variables, word_value_grid)

__all__ = ["SearchResult", "embed_partial_table", "check_partial_associativity",
           "malcev_witness_table", "find_relational_assignments",
           "CLASS_FILTERS", "MAX_ASSIGN_ORDER"]

MAX_ASSIGN_ORDER = 8

CLASS_FILTERS = {
    "any": lambda mt: True,
    "group": is_group,
    "j_trivial": is_j_trivial,
    "l_trivial": is_l_trivial,
    "r_trivial": is_r_trivial,
    "completely_simple": is_completely_simple,
    "clifford": is_clifford,
}


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


def find_relational_assignments(mt: MulTable, relations, distinctness=()):
    """Yield (assignment, violations) for every mapping of the relations'
    variables into the table under which all relation equalities hold.

    violations lists the distinctness pairs whose two sides nevertheless
    evaluate to the same element.  Such assignments are reported rather than
    suppressed: a forced collapse is usually the interesting output.
    """
    relations = [tuple(r) for r in relations]
    distinctness = [tuple(d) for d in distinctness]
    variables = relation_variables(relations + distinctness)
    if len(variables) > 8:
        raise ValueError("at most 8 distinct variables are supported")
    if mt.order > MAX_ASSIGN_ORDER:
        raise ValueError(f"assignment search is bounded at order "
                         f"{MAX_ASSIGN_ORDER}, got {mt.order}")
    if mt.order ** len(variables) > 20_000_000:
        raise ValueError("assignment grid too large: order ** variables "
                         "exceeds the configured budget")
    if not variables:
        yield {}, []
        return
    sat = np.ones((mt.order,) * len(variables), dtype=bool)
    for rel in relations:
        sat &= relation_grid(mt, rel, variables)
    pair_grids = [(word_value_grid(mt, u, variables),
                   word_value_grid(mt, v, variables))
                  for u, v in distinctness]
    for combo in np.argwhere(sat):
        key = tuple(int(c) for c in combo)
        violated = [d for d, (gu, gv) in zip(distinctness, pair_grids)
                    if gu[key] == gv[key]]
        yield dict(zip(variables, key)), violated


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


def _set_cell(T: list[list[int]], i: int, j: int, v: int, n: int,
              latin: bool) -> bool:
    cur = T[i][j]
    if cur == v:
        return True
    if cur != -1:
        return False
    if latin:
        # group tables are Latin squares; repeats in a row or column can
        # never extend to a cancellative table
        row = T[i]
        if v in row:
            return False
        for p in range(n):
            if T[p][j] == v:
                return False
    T[i][j] = v
    return True


def _close(T: list[list[int]], n: int, latin: bool) -> bool:
    """Associativity closure: force the missing half of any triple whose
    other half is defined; False on conflict."""
    changed = True
    while changed:
        changed = False
        for p in range(n):
            rowp = T[p]
            for q in range(n):
                pq = rowp[q]
                rowq = T[q]
                for r in range(n):
                    qr = rowq[r]
                    left = T[pq][r] if pq >= 0 else -1
                    right = rowp[qr] if qr >= 0 else -1
                    if left >= 0:
                        if right >= 0:
                            if left != right:
                                return False
                        elif qr >= 0:
                            if not _set_cell(T, p, qr, left, n, latin):
                                return False
                            changed = True
                    elif right >= 0 and pq >= 0:
                        if not _set_cell(T, pq, r, right, n, latin):
                            return False
                        changed = True
    return True


def embed_partial_table(pt: PartialTable, max_order: int,
                        class_filter: str = "any") -> SearchResult:
    """Complete search for a semigroup of order |elements|..max_order hosting
    the partial table, elements pinned to the first indices.

    Class filters are tested on finished tables only; the group filter
    additionally prunes row or column repeats eagerly.  R-, L- and J-related
    pairs witnessed by products already defined (s = tu and t = sv for R,
    and the like) stay related in every completion, so R/L/J-triviality
    could prune partial tables too; it does not, so an exhausted search
    explores the same decisions under every filter but ``group``.  When
    max_order is below the element count the order range is empty and the
    negative certificate is vacuous.
    """
    if class_filter not in CLASS_FILTERS:
        raise ValueError(f"unknown class filter {class_filter!r}; choose from "
                         f"{sorted(CLASS_FILTERS)}")
    check_partial_associativity(pt)
    passes = CLASS_FILTERS[class_filter]
    latin = class_filter == "group"
    k = len(pt.elements)
    at = {label: i for i, label in enumerate(pt.elements)}
    explored = 0

    def extend(T: list[list[int]], n: int, labels: tuple[str, ...]):
        nonlocal explored
        cell = next(((i, j) for i in range(n) for j in range(n)
                     if T[i][j] == -1), None)
        if cell is None:
            mt = MulTable(np.array(T, dtype=np.int64), labels=labels)
            if not mt.is_associative():
                raise AssertionError("closure let an inassociative table through")
            return mt if passes(mt) else None
        i, j = cell
        for v in range(n):
            explored += 1
            T2 = [row[:] for row in T]
            if _set_cell(T2, i, j, v, n, latin) and _close(T2, n, latin):
                found = extend(T2, n, labels)
                if found is not None:
                    return found
        return None

    for n in range(k, max_order + 1):
        T = [[-1] * n for _ in range(n)]
        ok = True
        for (x, y), z in pt.products.items():
            if not _set_cell(T, at[x], at[y], at[z], n, latin):
                ok = False
                break
        if not ok or not _close(T, n, latin):
            continue
        witness = extend(T, n, _filler_labels(pt.elements, n))
        if witness is not None:
            return SearchResult(status="embeddable", witness=(witness, dict(at)),
                                explored=explored, bound=max_order)
    return SearchResult(status="not_embeddable_up_to_bound", witness=None,
                        explored=explored, bound=max_order)
