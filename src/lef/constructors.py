"""Builders for the finite carriers the rest of the package computes with:
Rees matrix semigroups over a group, strong semilattices of semigroups,
quotients of free semigroups by a length ideal, and the finite shadow
semigroups F_n of the infinite presentation Q.

ReesSpec.mul and SemilatticeSpec.mul are the one place each product rule is
written: the table builders here fill every cell from them, and the
approximation checkers multiply handles with the same methods.
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass

import numpy as np

from .fsg import MulTable, is_completely_simple, is_group
from .presets import build_fn_system, preset_presentation  # noqa: F401  (re-export)
from .rewrite import RewriteSystem, normal_form
from .words import block_count_s, one_step_words


def mul_in(S, x, y):
    """Product of x and y in S: a MulTable multiplies element indices, any
    other semigroup (a group handle) applies its op to values."""
    return S.mul(x, y) if isinstance(S, MulTable) else S.op(x, y)


def _from_products(mul, handles, labels) -> MulTable:
    """The table whose cell (a, b) is the index of mul(handles[a], handles[b])."""
    at = {h: k for k, h in enumerate(handles)}
    return MulTable(np.array([[at[mul(x, y)] for y in handles] for x in handles],
                             dtype=np.int64).reshape(len(handles), len(handles)),
                    labels)


# ---------------------------------------------------------------------------
# Rees matrix semigroups M(G; I, Lambda; P)


@dataclass(frozen=True)
class ReesSpec:
    """Data for a Rees matrix semigroup: a group, row and column index sets,
    and a sandwich matrix indexed sandwich[col][row] with group entries.

    The group is a MulTable for the finite construction; the approximation
    path also accepts handle objects for groups given only by their
    multiplication rule.
    """

    group: object
    rows: tuple[str, ...]
    cols: tuple[str, ...]
    sandwich: tuple[tuple[object, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(str(r) for r in self.rows))
        object.__setattr__(self, "cols", tuple(str(c) for c in self.cols))
        object.__setattr__(self, "sandwich",
                           tuple(tuple(row) for row in self.sandwich))
        if not self.rows or not self.cols:
            raise ValueError("row and column index sets must be nonempty")
        if len(self.sandwich) != len(self.cols) or \
                any(len(r) != len(self.rows) for r in self.sandwich):
            raise ValueError("sandwich matrix must be cols x rows")

    def mul(self, x, y):
        """(i, g, l)(j, h, m) = (i, g P[l][j] h, m) on (row, g, col) handles."""
        i, g, lam = x
        j, h, mu = y
        p = self.sandwich[self.cols.index(lam)][self.rows.index(j)]
        return (i, mul_in(self.group, mul_in(self.group, g, p), h), mu)


def rees_matrix(spec: ReesSpec) -> MulTable:
    """The Rees matrix semigroup as a table over the handles (row, g, col),
    rows slowest and columns fastest, with g a group element index."""
    G = spec.group
    if not isinstance(G, MulTable):
        raise TypeError("rees_matrix needs a finite group as a MulTable; "
                        "group handles belong to the approximation path")
    if not is_group(G):
        raise ValueError("the underlying table is not a group")
    P = np.array(spec.sandwich, dtype=np.int64)
    if P.min() < 0 or P.max() >= G.order:
        raise ValueError("sandwich entries must be group element indices")
    handles = [(r, g, c) for r in spec.rows for g in range(G.order)
               for c in spec.cols]
    out = _from_products(spec.mul, handles,
                         [f"({r},{G.label(g)},{c})" for r, g, c in handles])
    if not is_completely_simple(out):
        raise RuntimeError("constructed Rees table is not completely simple; "
                           "the input data is inconsistent")
    return out


# ---------------------------------------------------------------------------
# strong semilattices of semigroups


@dataclass(frozen=True)
class SemilatticeSpec:
    """A meet semilattice E (as a MulTable), one component semigroup per
    element of E, and connecting homomorphisms downward.

    homs[(e1, e2)] for e1 >= e2 maps component e1 into component e2 as a tuple
    of element indices (or, for handle components, a callable).  The identity
    homs (e, e) may be omitted.
    """

    meet: MulTable
    components: dict[str, MulTable]
    homs: dict[tuple[str, str], tuple[int, ...]]

    def down(self, src: str, dst: str, value):
        """Image of a value of component src under the hom into dst."""
        if src == dst:
            return value
        hom = self.homs[(src, dst)]
        return hom(value) if callable(hom) else hom[value]

    def mul(self, x, y):
        """x in S_e1 times y in S_e2 lands in S_m for m = e1^e2, as
        (x phi_{e1,m})(y phi_{e2,m}), on (meet label, value) handles."""
        e1, v1 = x
        e2, v2 = y
        E = self.meet
        m = E.label(E.mul(E.index(e1), E.index(e2)))
        return (m, mul_in(self.components[m], self.down(e1, m, v1),
                          self.down(e2, m, v2)))


def semilattice_semigroup(spec: SemilatticeSpec) -> MulTable:
    """The strong semilattice of semigroups as a table over the handles
    (meet label, x), components in meet order and x an element index."""
    E = spec.meet
    if not E.is_associative() or not E.is_commutative():
        raise ValueError("meet table must be associative and commutative")
    if any(E.mul(i, i) != i for i in range(E.order)):
        raise ValueError("meet table must be idempotent")
    names = tuple(E.label(i) for i in range(E.order))
    for name in names:
        if name not in spec.components:
            raise ValueError(f"no component semigroup for meet element {name!r}")
    comp = {name: spec.components[name] for name in names}
    for name, table in comp.items():
        if not table.is_associative():
            raise ValueError(f"component {name!r} is not associative")

    # leq[i][j]: element i lies below element j
    leq = [[E.mul(i, j) == i for j in range(E.order)] for i in range(E.order)]

    homs: dict[tuple[str, str], tuple[int, ...]] = {}
    for i, ei in enumerate(names):
        homs[(ei, ei)] = tuple(range(comp[ei].order))
    for (e1, e2), phi in spec.homs.items():
        if e1 not in comp or e2 not in comp:
            raise ValueError(f"hom ({e1},{e2}) names unknown meet elements")
        if not leq[names.index(e2)][names.index(e1)]:
            raise ValueError(f"hom ({e1},{e2}) does not point downward")
        phi = tuple(int(v) for v in phi)
        if len(phi) != comp[e1].order or \
                any(v < 0 or v >= comp[e2].order for v in phi):
            raise ValueError(f"hom ({e1},{e2}) has the wrong shape")
        if e1 == e2 and phi != homs[(e1, e1)]:
            raise ValueError(f"hom ({e1},{e1}) must be the identity")
        homs[(e1, e2)] = phi
    for i, ei in enumerate(names):
        for j, ej in enumerate(names):
            if leq[j][i] and (ei, ej) not in homs:
                raise ValueError(f"missing hom ({ei},{ej})")

    # each hom must be multiplicative
    for (e1, e2), phi in homs.items():
        t1, t2 = comp[e1], comp[e2]
        for x in range(t1.order):
            for y in range(t1.order):
                if phi[t1.mul(x, y)] != t2.mul(phi[x], phi[y]):
                    raise ValueError(
                        f"hom ({e1},{e2}) is not multiplicative at "
                        f"({t1.label(x)},{t1.label(y)})")
    # and the downward homs must compose
    for i, ei in enumerate(names):
        for j, ej in enumerate(names):
            if not leq[j][i]:
                continue
            for k, ek in enumerate(names):
                if not leq[k][j]:
                    continue
                lo = homs[(ej, ek)]
                hi = homs[(ei, ej)]
                direct = homs[(ei, ek)]
                for x in range(comp[ei].order):
                    if lo[hi[x]] != direct[x]:
                        raise ValueError(
                            f"homs fail to compose on ({ei},{ej},{ek}) at "
                            f"{comp[ei].label(x)}")

    handles = [(name, x) for name in names for x in range(comp[name].order)]
    out = _from_products(spec.mul, handles,
                         [f"{name}:{comp[name].label(x)}" for name, x in handles])
    if not out.is_associative():
        raise RuntimeError("strong semilattice product came out non-associative; "
                           "the input data is inconsistent")
    return out


# ---------------------------------------------------------------------------
# quotients of a free semigroup by the ideal of long words


def _check_length_ideal_args(alphabet: str, max_len: int, relations) -> tuple:
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        raise ValueError("alphabet must be nonempty distinct letters")
    if "0" in alphabet:
        raise ValueError("the letter '0' is reserved for the zero class")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    rels = tuple((str(u), str(v)) for u, v in relations)
    for u, v in rels:
        if not u or not v:
            raise ValueError("relation sides must be nonempty")
        if set(u + v) - set(alphabet):
            raise ValueError(f"relation ({u},{v}) uses letters outside the alphabet")
        if len(u) != len(v):
            raise ValueError(
                f"relation ({u},{v}) changes length; the length ideal is only "
                "a congruence class for length-preserving relations")
    return rels


@functools.lru_cache(maxsize=None)
def _length_ideal_classes(alphabet: str, max_len: int, relations: tuple):
    """Equivalence classes of nonempty words of length <= max_len under the
    congruence the relations generate.  Returns (ordered reps, word -> index)
    with index 0 reserved for the zero class."""
    rank = {ch: i for i, ch in enumerate(alphabet)}

    word_class: dict[str, int] = {}
    reps: list[str] = ["0"]
    words = [""]
    for _ in range(max_len):
        words = [w + ch for w in words for ch in alphabet]
        for w in sorted(words, key=lambda s: tuple(rank[c] for c in s)):
            if w in word_class:
                continue
            index = len(reps)
            stack = [w]
            word_class[w] = index
            while stack:
                cur = stack.pop()
                for nxt in one_step_words(cur, relations):
                    if nxt not in word_class:
                        word_class[nxt] = index
                        stack.append(nxt)
            reps.append(w)
    return tuple(reps), word_class


def quotient_by_length_ideal(alphabet: str, max_len: int, relations=()) -> MulTable:
    """The free semigroup on the alphabet modulo the relations, with every
    word longer than max_len collapsed to a zero (index 0, label "0").

    Relations must preserve length, so each congruence class stays within one
    length level and the collapsed set really is an ideal.
    """
    rels = _check_length_ideal_args(alphabet, max_len, relations)
    reps, word_class = _length_ideal_classes(alphabet, max_len, rels)
    n = len(reps)
    # reps come in length order, so the partners short enough for reps[i]
    # form a prefix of reps[1:]; every other product stays in the zero class
    lengths = [len(w) for w in reps[1:]]
    T = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        stop = 1 + bisect.bisect_right(lengths, max_len - lengths[i - 1])
        T[i, 1:stop] = [word_class[reps[i] + v] for v in reps[1:stop]]
    return MulTable(T, reps)


def quotient_word_map(alphabet: str, max_len: int, relations=()) -> dict[str, int]:
    """Index in quotient_by_length_ideal's table of every word of length
    <= max_len (the natural map, minus the zero class)."""
    rels = _check_length_ideal_args(alphabet, max_len, relations)
    _, word_class = _length_ideal_classes(alphabet, max_len, rels)
    return dict(word_class)


# ---------------------------------------------------------------------------
# the finite shadows F_n


@dataclass(frozen=True)
class FnHandle:
    """Access to the finite semigroup F_n through its confluent rewriting
    system: elements are normal forms, with one absorbing zero for every word
    whose x/b block count exceeds n."""

    n: int
    system: RewriteSystem
    zero: str = "0"

    def element(self, word: str) -> str:
        """Normal form of the word, or the zero sentinel."""
        if not word:
            raise ValueError("the empty word names no element")
        nf = normal_form(self.system, word)
        return self.zero if block_count_s(nf) > self.n else nf

    def equal(self, u: str, v: str) -> bool:
        return self.element(u) == self.element(v)

    def mul(self, u: str, v: str) -> str:
        """Element named by the concatenation."""
        return self.element(u + v)


@functools.lru_cache(maxsize=None)
def build_fn(n: int) -> FnHandle:
    """The shadow semigroup F_n; rewriting-system construction is cached."""
    return FnHandle(n=n, system=build_fn_system(n))
