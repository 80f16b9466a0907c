"""Finite semigroups as multiplication tables: associativity, Green's
relations, structural classification, enumeration, and word equations
evaluated over a table.

Tables are numpy int arrays with table[i, j] = index of the product of i and j
(row = left factor).  This module owns the table classes: ``CLASS_MASKS``
maps each name (any, group, J-, L- and R-trivial, completely simple,
Clifford) to a mask over a stack of tables of one order, checked in one
numpy pass, and ``CLASS_FILTERS`` holds the same classes as predicates on
one table.  The masks read associative stacks: associativity is decided
once, per stack (``associative_mask``, the embedding search's guard) or per
table (one blocked scan), so no one-table question builds order^3 arrays.
Enumeration, and the embedding search in ``search``, run one propagation
engine on flat tables (``_TableSearch``), which indexes its cells by value
and writes forced cells in place; enumeration up to isomorphism keeps the
first table of each class in lexicographic order and skips the rest of its
orbit.  A search
that runs to its end is kept for the rest of the process, keyed by (order,
Latin pruning, pins): its completions as one read-only uint8 stack, the
decision count at which each was found, the total, and the rows of the class
representatives once asked for.  The memo holds at most SEARCH_MEMO_BYTES
(16 MiB) and evicts the least recently used search; a search stopped early,
or one whose completions pass the bound, is not kept.  So every class
filter and every enumeration after the first reads the same search, with
the same decision counts as searching again.  Word
equations over a table are filtered on columns of assignments
(``_assignment_columns``), one column per variable, for ``check_implication``
and ``search.relational_assignments`` alike; the columns grow one
relation at a time from the rows the earlier relations kept.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial

import numpy as np


def _pointer(key: str) -> str:
    """key as one JSON-pointer segment (RFC 6901), for the errors of every
    ``from_json`` that names a key of the data."""
    return key.replace("~", "~0").replace("/", "~1")


@dataclass(eq=False)
class MulTable:
    table: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self.table = np.asarray(self.table)
        if self.table.dtype.kind not in "iu":
            self.table = self.table.astype(np.int64)
        n = self.order
        if self.table.shape != (n, n):
            raise ValueError("table must be square")
        if self.table.size and (self.table.max() >= n or self.table.min() < 0):
            raise ValueError("table entries must be element indices")
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != n or len(set(self.labels)) != n:
                raise ValueError("labels must be distinct, one per element")

    @property
    def order(self) -> int:
        return self.table.shape[0]

    def label(self, i: int) -> str:
        return self.labels[i] if self.labels else f"s{i}"

    def index(self, label: str) -> int:
        """The i with label(i) == label; a KeyError names any other label."""
        if self.labels is not None and label in self.labels:
            return self.labels.index(label)
        i = int(label[1:]) if self.labels is None and label[1:].isdecimal() else -1
        if 0 <= i < self.order and label == f"s{i}":
            return i
        raise KeyError(f"no element labelled {label!r} in a table of order {self.order}")

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def is_associative(self) -> bool:
        """One blocked scan for a failing triple, not order^3 arrays."""
        return not associativity_failures(self, limit=1)

    def idempotents(self) -> list[int]:
        return [i for i in range(self.order) if self.table[i, i] == i]

    def identity(self) -> int | None:
        for e in range(self.order):
            if (self.table[e] == np.arange(self.order)).all() and \
               (self.table[:, e] == np.arange(self.order)).all():
                return e
        return None

    def is_commutative(self) -> bool:
        return bool((self.table == self.table.T).all())

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "labels": [self.label(i) for i in range(self.order)],
            "table": self.table.tolist(),
        }

    @classmethod
    def from_json(cls, data, where: str = "") -> "MulTable":
        """Validate Table JSON {"order", "labels", "table"} and build the table.

        Errors are ValueErrors with JSON-pointer paths under the prefix
        `where`, e.g. `/table/2/1: entry 7 outside 0..3`.
        """
        if not isinstance(data, dict):
            raise ValueError(f"{where or '/'}: expected an object with "
                             f"'order' and 'table'")
        for key in ("order", "table"):
            if key not in data:
                raise ValueError(f"{where}/{key}: missing")
        order = data["order"]
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ValueError(f"{where}/order: expected a positive integer, "
                             f"got {order!r}")
        rows = data["table"]
        if not isinstance(rows, list) or len(rows) != order:
            raise ValueError(f"{where}/table: expected {order} rows")
        # shapes and types in one pass in C, the range in numpy; the walk names the bad cell
        table = None
        if all(type(row) is list and len(row) == order for row in rows) \
                and set(map(type, itertools.chain.from_iterable(rows))) <= {int}:
            try:
                table = np.array(rows, dtype=np.int64).reshape(order, order)
            except OverflowError:
                pass
        if table is None or table.size and not 0 <= table.min() <= table.max() < order:
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != order:
                    raise ValueError(f"{where}/table/{i}: expected {order} entries")
                for j, v in enumerate(row):
                    if not isinstance(v, int) or isinstance(v, bool) \
                            or not 0 <= v < order:
                        raise ValueError(f"{where}/table/{i}/{j}: entry {v!r} "
                                         f"outside 0..{order - 1}")
            table = np.array(rows, dtype=np.int64).reshape(order, order)
        labels = data.get("labels")
        if labels is not None:
            if not isinstance(labels, list) or len(labels) != order:
                raise ValueError(f"{where}/labels: expected {order} labels")
            for i, lab in enumerate(labels):
                if not isinstance(lab, str):
                    raise ValueError(f"{where}/labels/{i}: expected a string")
            if len(set(labels)) != order:
                raise ValueError(f"{where}/labels: labels must be distinct")
        return cls(table=table, labels=tuple(labels) if labels else None)


@dataclass
class PartialTable:
    """A partial binary operation on named elements; products absent from the
    dict are undefined."""

    elements: tuple[str, ...]
    products: dict[tuple[str, str], str]

    def __post_init__(self):
        self.elements = tuple(self.elements)
        if not self.elements:
            raise ValueError("a partial table needs at least one element")
        names = set(self.elements)
        if len(names) != len(self.elements):
            raise ValueError("duplicate element names")
        for (u, v), w in self.products.items():
            if u not in names or v not in names or w not in names:
                raise ValueError(f"product ({u},{v})->{w} uses unknown element")

    def to_json(self) -> dict:
        return {
            "elements": list(self.elements),
            "products": {f"{u},{v}": w for (u, v), w in self.products.items()},
        }

    @classmethod
    def from_json(cls, data) -> "PartialTable":
        """Validate {"elements", "products"} with products keyed "u,v"; errors
        are ValueErrors with JSON-pointer paths."""
        if not isinstance(data, dict):
            raise ValueError("/: expected an object with 'elements' and "
                             "'products'")
        for key in ("elements", "products"):
            if key not in data:
                raise ValueError(f"/{key}: missing")
        elements = data["elements"]
        if not isinstance(elements, list) or not elements or \
                any(not isinstance(e, str) for e in elements):
            raise ValueError("/elements: expected a non-empty list of strings")
        if len(set(elements)) != len(elements):
            raise ValueError("/elements: element names must be distinct")
        products = data["products"]
        if not isinstance(products, dict):
            raise ValueError("/products: expected an object keyed 'u,v'")
        parsed = {}
        for key, w in products.items():
            parts = [p.strip() for p in key.split(",")]
            if len(parts) != 2:
                raise ValueError(f"/products/{_pointer(key)}: key must be 'u,v'")
            for name in parts + [w]:
                if not isinstance(name, str) or name not in elements:
                    raise ValueError(f"/products/{_pointer(key)}: unknown element {name!r}")
            parsed[tuple(parts)] = w
        return cls(elements=tuple(elements), products=parsed)


def associativity_failures(mt: MulTable, limit: int = 10) -> list[tuple[int, int, int]]:
    """Triples (p, q, r) with (pq)r != p(qr), at most `limit` of them, in
    order.  The rows p are compared a block at a time, about 2**22 triples,
    so a large table costs time but not order**3 memory."""
    T = mt.table
    step = max(1, (1 << 22) // max(1, mt.order ** 2))
    out: list[tuple[int, int, int]] = []
    for start in range(0, mt.order, step):
        rows = T[start:start + step]
        bad = np.argwhere(T[rows] != rows[:, T])[:limit - len(out)]
        out += [(start + int(p), int(q), int(r)) for p, q, r in bad]
        if len(out) == limit:
            break
    return out


# ---------------------------------------------------------------------------
# Green's relations

@dataclass
class GreenRelations:
    r_classes: list[tuple[int, ...]]
    l_classes: list[tuple[int, ...]]
    h_classes: list[tuple[int, ...]]
    j_classes: list[tuple[int, ...]]

    @property
    def r_trivial(self) -> bool:
        return all(len(c) == 1 for c in self.r_classes)

    @property
    def l_trivial(self) -> bool:
        return all(len(c) == 1 for c in self.l_classes)

    @property
    def h_trivial(self) -> bool:
        return all(len(c) == 1 for c in self.h_classes)

    @property
    def j_trivial(self) -> bool:
        return all(len(c) == 1 for c in self.j_classes)


def _classes_from_leq(leq: np.ndarray) -> list[tuple[int, ...]]:
    mutual = leq & leq.T
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(mutual):
        groups.setdefault(row.tobytes(), []).append(i)
    return sorted((tuple(g) for g in groups.values()), key=lambda c: c[0])


def _preorders(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The R and L orders of each table in a stack, leq[t, x, y] iff x lies
    below y in table t.  One-sided ideals need only single products since
    x(st) = (xs)t keeps principal ideals closed."""
    k, n = S.shape[:2]
    t = np.arange(k)[:, None, None]
    idx = np.arange(n)
    leq_r = np.broadcast_to(np.eye(n, dtype=bool), (k, n, n)).copy()
    leq_l = leq_r.copy()
    leq_r[t, S, idx[:, None]] = True    # y*s lies R-below y
    leq_l[t, S, idx] = True             # s*y lies L-below y
    return leq_r, leq_l


def _antisymmetric(leq: np.ndarray) -> np.ndarray:
    """Per table, no two distinct elements lie below each other, i.e. every
    class of the (reflexive) preorder is a singleton."""
    return (leq & leq.swapaxes(1, 2)).sum(axis=(1, 2)) == leq.shape[1]


def green(mt: MulTable) -> GreenRelations:
    """R, L, H, J classes.  x lies J-below y iff x <=_L u <=_R y for some u
    (x = s(yt) with u = yt), so the J order is the boolean product of the L
    and R orders."""
    leq_r, leq_l = (leq[0] for leq in _preorders(mt.table[None]))
    return GreenRelations(
        r_classes=_classes_from_leq(leq_r),
        l_classes=_classes_from_leq(leq_l),
        h_classes=_classes_from_leq(leq_r & leq_l),
        j_classes=_classes_from_leq(leq_l @ leq_r),
    )


# ---------------------------------------------------------------------------
# class predicates, each a mask over a stack S of k tables of order n, shape
# (k, n, n), marking the tables in the class.  Apart from associative_mask,
# the masks read associative stacks and do not check associativity; their
# callers decide it once first: the per-stack guard of
# search.embed_partial_table, classify's check, the blocked scan in _holds
# (the table engine's completions are associative by construction).


def associative_mask(S: np.ndarray) -> np.ndarray:
    k, n = S.shape[:2]
    left = S[np.arange(k)[:, None, None], S]                        # [t, p, q, r] = (pq)r
    right = np.take_along_axis(S, S.reshape(k, 1, n * n), axis=2)  # [t, p, qn + r] = p(qr)
    return (left == right.reshape(k, n, n, n)).all(axis=(1, 2, 3))


def _idempotent(S: np.ndarray) -> np.ndarray:
    """[t, x] iff x*x = x in table t."""
    idx = np.arange(S.shape[1])
    return S[:, idx, idx] == idx


def group_mask(S: np.ndarray) -> np.ndarray:
    """Associative Latin squares are the groups."""
    want = np.arange(S.shape[1])
    return ((np.sort(S, axis=2) == want).all(axis=(1, 2))
            & (np.sort(S, axis=1) == want[:, None]).all(axis=(1, 2)))


def completely_simple_mask(S: np.ndarray) -> np.ndarray:
    """A single J-class (finiteness then gives an idempotent in it)."""
    leq_r, leq_l = _preorders(S)
    return (leq_l @ leq_r).all(axis=(1, 2)) & _idempotent(S).any(axis=1)


def clifford_mask(S: np.ndarray) -> np.ndarray:
    """Every element in a subgroup (x H-related to its square) and all
    idempotents central."""
    k, n = S.shape[:2]
    leq_r, leq_l = _preorders(S)
    t = np.arange(k)[:, None]
    idx = np.arange(n)
    square = S[:, idx, idx]
    # x*x always lies H-below x, so x H x*x iff x lies H-below x*x
    in_subgroup = (leq_r[t, idx, square] & leq_l[t, idx, square]).all(axis=1)
    central = (S == S.swapaxes(1, 2)).all(axis=2)   # [t, e]: row e = column e
    return in_subgroup & (central | ~_idempotent(S)).all(axis=1)


def j_trivial_mask(S: np.ndarray) -> np.ndarray:
    leq_r, leq_l = _preorders(S)
    return _antisymmetric(leq_l @ leq_r)


def l_trivial_mask(S: np.ndarray) -> np.ndarray:
    return _antisymmetric(_preorders(S)[1])


def r_trivial_mask(S: np.ndarray) -> np.ndarray:
    return _antisymmetric(_preorders(S)[0])


# class name -> mask over an associative stack; the one registry of classes
CLASS_MASKS = {
    "any": lambda S: np.ones(len(S), dtype=bool),
    "group": group_mask,
    "j_trivial": j_trivial_mask,
    "l_trivial": l_trivial_mask,
    "r_trivial": r_trivial_mask,
    "completely_simple": completely_simple_mask,
    "clifford": clifford_mask,
}


def _holds(mask, mt: MulTable) -> bool:
    """One blocked associativity scan, then the mask on the stack of one."""
    return mt.is_associative() and bool(mask(mt.table[None])[0])


# the same classes as predicates on one MulTable, False on one not associative
CLASS_FILTERS = {name: partial(_holds, mask) for name, mask in CLASS_MASKS.items()}


# the classes of the paper's results, under their own names
is_group, is_completely_simple, is_clifford, is_j_trivial = (
    CLASS_FILTERS[name] for name in ("group", "completely_simple", "clifford", "j_trivial"))


def direct_product(a: MulTable, b: MulTable) -> MulTable:
    """Componentwise product on pairs; pair (i, j) sits at index i*|b| + j."""
    na, nb = a.order, b.order
    ia = np.arange(na)
    ib = np.arange(nb)
    ta = a.table.astype(np.int64)
    tb = b.table.astype(np.int64)
    # product of (i1,j1) and (i2,j2) = (a[i1,i2], b[j1,j2]), flattened
    T = (ta[ia[:, None, None, None], ia[None, None, :, None]] * nb
         + tb[ib[None, :, None, None], ib[None, None, None, :]])
    T = T.reshape(na * nb, na * nb)
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = tuple(f"({a.label(i)},{b.label(j)})"
                       for i in range(na) for j in range(nb))
    return MulTable(T, labels)


def classify(mt: MulTable) -> dict:
    """Structural summary used by the command-line `classify` verb; the
    class flags are the masks, read after the one associativity check."""
    failures = associativity_failures(mt)
    out = {
        "order": mt.order,
        "associative": not failures,
        "commutative": mt.is_commutative(),
        "idempotents": len(mt.idempotents()),
    }
    if failures:
        out["associativity_failures"] = failures
        return out
    g = green(mt)
    out.update({
        "r_classes": len(g.r_classes),
        "l_classes": len(g.l_classes),
        "h_classes": len(g.h_classes),
        "j_classes": len(g.j_classes),
        "r_trivial": g.r_trivial,
        "l_trivial": g.l_trivial,
        "h_trivial": g.h_trivial,
        "j_trivial": g.j_trivial,
        **{name: bool(CLASS_MASKS[name](mt.table[None])[0])
           for name in ("group", "completely_simple", "clifford")},
    })
    return out


# ---------------------------------------------------------------------------
# word equations: their values over every assignment of variables into a table


def relation_variables(relations) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for u, v in relations:
        for ch in u + v:
            seen.setdefault(ch)
    return tuple(sorted(seen))


def _word_values(table: np.ndarray, cols: dict[str, np.ndarray], word: str) -> np.ndarray:
    """The word's value on each assignment row of ``cols``."""
    val = cols[word[0]]
    for ch in word[1:]:
        val = table[val, cols[ch]]
    return val


def _cross(cols: dict[str, np.ndarray], new: list[str], n: int, dtype) -> dict[str, np.ndarray]:
    """Each row of ``cols`` followed by every assignment of ``new``, rows in C order."""
    if not new:
        return cols
    rows, block = len(next(iter(cols.values()))) if cols else 1, n ** len(new)
    grid = np.indices((n,) * len(new), dtype=dtype).reshape(len(new), block)
    out = {x: np.repeat(col, block) for x, col in cols.items()}
    out.update(zip(new, np.tile(grid, rows)))
    return out


def _assignment_columns(mt: MulTable, variables: tuple[str, ...], premises,
                        conclusions=()) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """The assignments of ``variables`` into mt under which every premise
    holds and no conclusion does, as (table, columns): one column of values
    per variable, one row per assignment, rows in C order of the grid of
    assignments.

    Premises, then conclusions, each cross in only the variables they
    introduce and keep only the rows they allow; variables no relation names
    come last.  Rows are then in C order of the variables in the order they
    came in; when that is not ``variables``, one argsort of each row's index
    in the grid, a flat key in the smallest unsigned type that holds
    order ** variables (uint32 up to 8 variables over order 8), puts them in
    grid order.
    Values are stored in the smallest unsigned type that holds them;
    ``table`` is mt's table in that type, for ``_word_values``."""
    n, k = mt.order, len(variables)
    dtype = np.min_scalar_type(max(n - 1, 0))
    table = mt.table.astype(dtype)
    cols: dict[str, np.ndarray] = {}
    for keep_equal, relations in ((True, premises), (False, conclusions)):
        for u, v in relations:
            cols = _cross(cols, [x for x in variables if x in u + v and x not in cols], n, dtype)
            keep = (_word_values(table, cols, u) == _word_values(table, cols, v)) == keep_equal
            cols = {x: col[keep] for x, col in cols.items()}
    cols = _cross(cols, [x for x in variables if x not in cols], n, dtype)
    if list(cols) != list(variables):
        key = np.zeros(len(cols[variables[0]]), dtype=np.min_scalar_type(max(n ** k - 1, 0)))
        for x in variables:
            key *= n
            key += cols[x]
        order = np.argsort(key)
        cols = {x: cols[x][order] for x in variables}
    return table, cols


def check_implication(mt: MulTable, premises, conclusions) -> dict | None:
    """None when every assignment satisfying all premises satisfies at least
    one conclusion; otherwise a counterexample assignment, the first in C
    order of the grid of assignments: the first row that
    ``_assignment_columns`` keeps."""
    variables = relation_variables(list(premises) + list(conclusions))
    _, cols = _assignment_columns(mt, variables, premises, conclusions)
    if variables and not cols[variables[0]].size:
        return None
    return {x: int(col[0]) for x, col in cols.items()}   # {} is the one empty assignment


# ---------------------------------------------------------------------------
# table search: one propagation engine for enumeration and embedding


class _TableSearch:
    """Backtracking completion of a partial n x n table under associativity.

    The table is a flat list of n*n ints, cell i*n + j holding the product of
    i and j, -1 where undefined; ``pins`` are (cell, value) pairs defined at
    the start.  Every defined cell goes on a trail, and the trail from the
    point ``propagate`` starts at is its worklist: ``propagate`` re-checks
    only the triples (p, q, r) that read a cell on it -- as pq, as qr, as
    (pq)r or as p(qr) -- and forces the missing product of any triple whose
    other three are defined.  Forcing is monotone, so a conflict-free
    fixpoint is unique whatever the order of the worklist.  Backtracking
    cuts the trail back to a mark.  With ``latin`` set, a value may not
    repeat in a row or a column (group tables); ``propagate`` checks that
    for each cell it takes from the worklist.

    ``occ[v]`` lists the cells that hold v, in trail order, so cutting the
    trail pops from each list exactly the cells it clears.  The triples that
    read a cell (a, b) as (pq)r or p(qr) are those with pq = a or qr = b, so
    ``propagate`` walks ``occ[a]`` and ``occ[b]`` instead of scanning all n*n
    cells for them.
    """

    def __init__(self, n: int, latin: bool = False, pins=()):
        self.n = n
        self.latin = latin
        self.T = [-1] * (n * n)
        self.pairs = [divmod(c, n) for c in range(n * n)]
        self.occ: list[list[int]] = [[] for _ in range(n)]
        self.trail: list[int] = []
        self.decisions = 0
        for cell, v in pins:
            self.T[cell] = v
            self.occ[v].append(cell)
            self.trail.append(cell)

    def propagate(self, start: int = 0) -> bool:
        """Check every triple that reads a cell of the trail from ``start``
        on, writing each forced cell in place and appending it to the trail;
        False on a conflict.  Row b and column a of the cell (a, b) are read
        as slices, so a cell forced while its triples are checked may read as
        undefined there; that cell is on the trail, and checking it re-checks
        each triple the stale slice skipped, so the fixpoint, the decisions
        and the completions are the same as with live reads."""
        T, n, trail, pairs, occ, latin = (self.T, self.n, self.trail, self.pairs,
                                          self.occ, self.latin)
        i = start
        while i < len(trail):
            c = trail[i]
            i += 1
            a, b = pairs[c]
            v = T[c]
            an, vn = a * n, v * n
            if latin and (T[an:an + n].count(v) > 1 or T[b::n].count(v) > 1):
                return False
            for r, qr in enumerate(T[b * n:b * n + n]):    # pq = c: (ab)r against a(br)
                if qr >= 0 and T[vn + r] != T[an + qr]:     # a conflict, or one side undefined
                    left, right = T[vn + r], T[an + qr]
                    if left >= 0 and right >= 0:
                        return False
                    x, w = (an + qr, left) if right < 0 else (vn + r, right)
                    T[x] = w
                    occ[w].append(x)
                    trail.append(x)
            for p, pq in enumerate(T[a::n]):                # qr = c: (pa)b against p(ab)
                if pq >= 0 and T[pq * n + b] != T[p * n + v]:
                    left, right = T[pq * n + b], T[p * n + v]
                    if left >= 0 and right >= 0:
                        return False
                    x, w = (p * n + v, left) if right < 0 else (pq * n + b, right)
                    T[x] = w
                    occ[w].append(x)
                    trail.append(x)
            for y in occ[a]:                    # (pq)r = c, y the cell pq
                p, q = pairs[y]
                qr = T[q * n + b]
                if qr >= 0:
                    x = p * n + qr
                    if T[x] < 0:
                        T[x] = v
                        occ[v].append(x)
                        trail.append(x)
                    elif T[x] != v:
                        return False
            for y in occ[b]:                    # p(qr) = c, y the cell qr
                q, r = pairs[y]
                pq = T[an + q]
                if pq >= 0:
                    x = pq * n + r
                    if T[x] < 0:
                        T[x] = v
                        occ[v].append(x)
                        trail.append(x)
                    elif T[x] != v:
                        return False
        return True

    def completions(self):
        """Yield the live table at each completion: the first undefined cell
        in row-major order takes each value in ascending order, so the
        completions come in lexicographic order of the flat table.  Each
        step first cuts the trail back to its mark, clearing those cells."""
        T, n, trail, occ = self.T, self.n, self.trail, self.occ
        if -1 not in T:
            yield T
            return
        stack = [(T.index(-1), len(trail), 0)]   # (cell, trail mark, next value)
        while stack:
            c, mark, v = stack.pop()
            for x in trail[mark:]:
                occ[T[x]].pop()
                T[x] = -1
            del trail[mark:]
            if v == n:
                continue
            stack.append((c, mark, v + 1))
            self.decisions += 1
            T[c] = v
            occ[v].append(c)
            trail.append(c)
            if self.propagate(mark):
                try:
                    stack.append((T.index(-1, c + 1), len(trail), 0))
                except ValueError:
                    yield T


# ---------------------------------------------------------------------------
# finished searches, kept for the life of the process

SEARCH_MEMO_BYTES = 16 * 2**20   # about three times the order-5 search (5.3 MB)
MAX_BATCH = 1024    # completions handed out, and checked by search, together


class _Completions:
    """The completions of ``_TableSearch(n, latin, pins)`` after its first
    ``propagate``, in search order, from the memo (see ``_completions``) or
    from a live search.  A live stream that runs to its end sets
    ``decisions``, the search's decision count, and, unless its completions
    pass SEARCH_MEMO_BYTES, ``tables`` (one read-only stack of shape
    (k, n, n)) and ``found_at`` (the decision count at which each was
    found), and goes into the memo; one its reader leaves early keeps
    nothing.  ``classes`` holds the rows of the first completion of each
    isomorphism class once an up-to-isomorphism reader has asked for them.
    """

    def __init__(self, n: int, latin: bool = False, pins=()):
        self.n, self.latin, self.pins = n, latin, pins
        self.key = (n, latin, tuple(sorted(pins)))
        self.tables = self.found_at = self.decisions = self.classes = None

    def stacks(self):
        """(stack, found_at) pairs: a stack of shape (k, n, n) in the
        smallest unsigned type that holds n - 1, and the decision count at
        which each of its tables was found.  A live search hands them out k
        = 1, 2, 4, ... up to MAX_BATCH at a time, so that a reader that stops
        at an early completion has not paid for many more; the memo, MAX_BATCH
        at a time."""
        if self.tables is None:
            yield from self._search()
            return
        for at in range(0, len(self.tables), MAX_BATCH):
            yield self.tables[at:at + MAX_BATCH], self.found_at[at:at + MAX_BATCH]

    def _search(self):
        n = self.n
        dtype = np.min_scalar_type(max(n - 1, 0))
        search = _TableSearch(n, self.latin, self.pins)
        completions = search.completions() if search.propagate() else iter(())
        kept, nbytes, size = [], 0, 1
        while True:
            cells, found_at = [], []
            for flat in itertools.islice(completions, size):
                cells += flat
                found_at.append(search.decisions)
            if not found_at:
                break
            stack = np.array(cells, dtype=dtype).reshape(-1, n, n)
            if nbytes <= SEARCH_MEMO_BYTES:     # past the bound, keep no more
                kept.append((stack, found_at))
                nbytes += stack.nbytes + 8 * len(found_at)
            yield stack, found_at
            size = min(2 * size, MAX_BATCH)
        if nbytes <= SEARCH_MEMO_BYTES:
            self.tables = np.concatenate([s for s, _ in kept] or [np.zeros((0, n, n), dtype)])
            self.found_at = np.array([d for _, f in kept for d in f],
                                     dtype=np.min_scalar_type(search.decisions))
            self.tables.flags.writeable = self.found_at.flags.writeable = False
            _keep(self)
        self.decisions = search.decisions


# key -> _Completions run to the end, least recently used first.  The key
# sorts the pins: their fixpoint, hence every decision after it, does not
# depend on their order.
_search_memo: OrderedDict[tuple, _Completions] = OrderedDict()


def _completions(n: int, latin: bool = False, pins=()) -> _Completions:
    run = _Completions(n, latin, pins)
    if run.key not in _search_memo:
        return run
    _search_memo.move_to_end(run.key)
    return _search_memo[run.key]


def _memo_bytes() -> int:
    return sum(a.nbytes for run in _search_memo.values()
               for a in (run.tables, run.found_at, run.classes) if a is not None)


def _keep(run: _Completions) -> None:
    """Store ``run`` as the most recent entry, then evict the least recently
    used ones until the memo is within SEARCH_MEMO_BYTES."""
    _search_memo[run.key] = run
    _search_memo.move_to_end(run.key)
    while _memo_bytes() > SEARCH_MEMO_BYTES:
        _search_memo.popitem(last=False)


def _permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of range(n) in itertools order, and their inverses."""
    perms = np.array(list(itertools.permutations(range(n))))
    return perms, np.argsort(perms, axis=1)


def _orbit(T: np.ndarray, perms: np.ndarray, inv: np.ndarray) -> dict[bytes, None]:
    """The keys (``bytes`` of the flat uint8 table) of T's relabellings by
    every permutation p, in order, p relabelling T as p T(p^-1, p^-1)."""
    n = len(T)
    cells = T[inv[:, :, None], inv[:, None, :]].reshape(len(perms), n * n)
    return dict.fromkeys(map(bytes, np.take_along_axis(perms, cells, 1).astype(np.uint8)))


def _classes(run: _Completions) -> np.ndarray:
    """The first completion of each isomorphism class, in search order.  The
    n! relabellings are computed once per class, not per labeled table, and
    the representatives' rows are kept on the memo entry, so a later reader
    of the same search skips the orbits."""
    if run.classes is not None:
        return run.tables[run.classes]
    n = run.n
    perms, inv = _permutations(n)
    seen: set[bytes] = set()
    reps, rows, at = [], [], 0
    for stack, _ in run.stacks():
        for i, key in enumerate(map(bytes, stack.reshape(len(stack), n * n))):
            if key not in seen:
                seen.update(_orbit(stack[i], perms, inv))
                reps.append(stack[i])
                rows.append(at + i)
        at += len(stack)
    if run.tables is not None:
        run.classes = np.array(rows, dtype=np.intp)
        _keep(run)
    return np.array(reps).reshape(-1, n, n)


def _as_table(flat, n: int) -> MulTable:
    """A MulTable on its own int64 array, whatever it was built from."""
    return MulTable(np.array(flat, dtype=np.int64).reshape(n, n))


MAX_ENUM_ORDER = 4          # exhaustive table enumeration without a filter
MAX_ENUM_ORDER_FILTERED = 5  # 1,915 classes, every one offered to the filter
MAX_GROUP_ORDER = 6


def enumerate_semigroups(order: int, filter=None, up_to_iso: bool = True) -> list[MulTable]:
    """One representative per isomorphism class (or every labeled table with
    up_to_iso=False), in deterministic search order: the first labeled table
    of each class in lexicographic order of its rows.

    The optional filter is a predicate MulTable -> bool; it must be invariant
    under isomorphism for "one per class" to make sense, and up to
    isomorphism it runs once per class.  Bounded to order 4 plain and order 5
    with a filter, where the search visits all 183,732 labeled tables.
    """
    if order < 1:
        raise ValueError("order must be positive")
    bound = MAX_ENUM_ORDER_FILTERED if filter is not None else MAX_ENUM_ORDER
    if order > bound:
        raise ValueError(
            f"enumeration is bounded at order {bound}"
            f"{' with a filter' if filter is not None else ''}; got {order}")
    run = _completions(order)
    found = _classes(run) if up_to_iso else (T for stack, _ in run.stacks() for T in stack)
    out = []
    for T in found:
        mt = _as_table(T, order)
        if filter is None or filter(mt):
            out.append(mt)
    return out


def enumerate_groups(order: int, up_to_iso: bool = True) -> list[MulTable]:
    """Group tables of the given order.  The search fixes the identity at 0,
    which covers every group up to isomorphism; up_to_iso=False relabels each
    class in every way to list all labeled group tables."""
    if order < 1:
        raise ValueError("order must be positive")
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group enumeration is bounded at order {MAX_GROUP_ORDER}; got {order}")
    identity = [(i, i) for i in range(order)] + [(i * order, i) for i in range(1, order)]
    reps = _classes(_completions(order, latin=True, pins=identity))   # 0's row and column
    if up_to_iso:
        return [_as_table(T, order) for T in reps]
    perms, inv = _permutations(order)
    return [_as_table(list(key), order) for T in reps for key in _orbit(T, perms, inv)]
