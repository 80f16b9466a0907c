"""Builders for the finite carriers the rest of the package computes with:
Rees matrix semigroups over a group, strong semilattices of semigroups,
quotients of free semigroups by a length ideal, and the finite shadow
semigroups F_n of the infinite presentation Q.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fsg import MulTable, is_completely_simple, is_group
from .presets import build_fn_system, preset_presentation  # noqa: F401  (re-export)
from .rewrite import RewriteSystem, normal_form
from .words import block_count_s, one_step_words


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


def rees_matrix(spec: ReesSpec) -> MulTable:
    """The Rees matrix semigroup as a table: elements are triples
    (row, g, col) and (i,g,l)(j,h,m) = (i, g*P[l][j]*h, m)."""
    G = spec.group
    if not isinstance(G, MulTable):
        raise TypeError("rees_matrix needs a finite group as a MulTable; "
                        "group handles belong to the approximation path")
    if not is_group(G):
        raise ValueError("the underlying table is not a group")
    ni, ng, nl = len(spec.rows), G.order, len(spec.cols)
    P = np.array(spec.sandwich, dtype=np.int64)
    if P.min() < 0 or P.max() >= ng:
        raise ValueError("sandwich entries must be group element indices")

    def idx(i: int, g: int, lam: int) -> int:
        return (i * ng + g) * nl + lam

    n = ni * ng * nl
    T = np.empty((n, n), dtype=np.int64)
    for i in range(ni):
        for g in range(ng):
            for lam in range(nl):
                a = idx(i, g, lam)
                for j in range(ni):
                    left = G.mul(g, int(P[lam, j]))
                    for h in range(ng):
                        prod = G.mul(left, h)
                        for mu in range(nl):
                            T[a, idx(j, h, mu)] = idx(i, prod, mu)
    labels = tuple(f"({spec.rows[i]},{G.label(g)},{spec.cols[lam]})"
                   for i in range(ni) for g in range(ng) for lam in range(nl))
    out = MulTable(T, labels)
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
    of element indices.  The identity homs (e, e) may be omitted.
    """

    meet: MulTable
    components: dict[str, MulTable]
    homs: dict[tuple[str, str], tuple[int, ...]]


def _meet_labels(meet: MulTable) -> tuple[str, ...]:
    return tuple(meet.label(i) for i in range(meet.order))


def semilattice_semigroup(spec: SemilatticeSpec) -> MulTable:
    """The strong semilattice of semigroups: x in S_e1 times y in S_e2 lands
    in S_m for m = e1^e2, as (x phi_{e1,m})(y phi_{e2,m})."""
    E = spec.meet
    if not E.is_associative() or not E.is_commutative():
        raise ValueError("meet table must be associative and commutative")
    if any(E.mul(i, i) != i for i in range(E.order)):
        raise ValueError("meet table must be idempotent")
    names = _meet_labels(E)
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

    offsets = {}
    total = 0
    for name in names:
        offsets[name] = total
        total += comp[name].order

    def global_index(name: str, x: int) -> int:
        return offsets[name] + x

    T = np.empty((total, total), dtype=np.int64)
    for i, e1 in enumerate(names):
        for j, e2 in enumerate(names):
            m = names[E.mul(i, j)]
            phi1 = homs[(e1, m)]
            phi2 = homs[(e2, m)]
            tm = comp[m]
            for x in range(comp[e1].order):
                for y in range(comp[e2].order):
                    T[global_index(e1, x), global_index(e2, y)] = \
                        global_index(m, tm.mul(phi1[x], phi2[y]))
    labels = tuple(f"{name}:{comp[name].label(x)}"
                   for name in names for x in range(comp[name].order))
    out = MulTable(T, labels)
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
    T = np.zeros((n, n), dtype=np.int64)
    for i in range(1, n):
        for j in range(1, n):
            w = reps[i] + reps[j]
            T[i, j] = word_class.get(w, 0) if len(w) <= max_len else 0
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
