"""Builders for the finite carriers the rest of the package computes with:
Rees matrix semigroups over a group, strong semilattices of semigroups,
Rees quotients of free semigroups by a length ideal (held as product rules,
IdealQuotient), and the finite shadow semigroups F_n of the infinite
presentation Q.

ReesSpec.mul and SemilatticeSpec.mul are the one place each product rule is
written: the table builders here fill every cell from them, and the
approximation checkers multiply handles with the same methods.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fsg import MulTable, is_completely_simple, is_group
from .presets import build_fn_system, preset_letters
from .rewrite import RewriteSystem, normal_form
from .words import block_count_s, check_words


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
# Rees quotients of a free semigroup by the ideal of long words


_SM_LETTERS = "".join(sorted(set(preset_letters("s")) - {"e"}))   # abcx


class IdealQuotient:
    """A Rees quotient of a free semigroup by the ideal of long words, held
    as its product rule: no table is built.

    The elements are the words with at most `bound` letters from `letters`,
    and a zero at index 0 (label "0") absorbing every longer product.  With
    m >= 2 the letter e is not counted and its runs fold modulo e**m = e, so
    an element is a word whose runs of e are shorter than m.  The two kinds,
    and the only ones a wrap file names, are quotient_by_length_ideal (no e)
    and sm_ideal_quotient (letters abcx).

    A word with k counted letters alternates k + 1 runs of e with them.  Its
    code reads these 2k + 1 digits in the mixed radix m, len(letters), m, ...,
    m, and its index is the code plus the codes on the levels below k; the
    empty word, code 0 of level 0, leaves index 0 to the zero.  A product is
    index arithmetic: the left factor's digits but its last run, the joined
    run folded, then the right factor's digits but its first run.
    """

    def __init__(self, letters: str, bound: int, m: int = 1):
        if m > 1 and letters != _SM_LETTERS:
            raise ValueError(f"runs of e fold only over the letters {_SM_LETTERS}")
        self.letters, self.bound, self.m = letters, bound, m
        self.fold = "e" if m > 1 else ""
        self.radix = m * len(letters)
        self._rank = {ch: r for r, ch in enumerate(letters)}
        # with radix >= 2, level 63 alone holds 2**63 codes
        if self.radix > 1 and bound >= 63 or self._start(bound + 1) > 2 ** 63:
            raise ValueError("the carrier would have more than 2**63 elements")
        self.order = self._start(bound + 1)

    def _start(self, k: int) -> int:
        """Number of codes on the levels below k."""
        if self.radix == 1:
            return self.m * k
        return self.m * (self.radix ** k - 1) // (self.radix - 1)

    def _locate(self, i: int) -> tuple[int, int]:
        """Level and code of index i."""
        k, start, size = 0, 0, self.m
        while i >= start + size:
            k, start, size = k + 1, start + size, size * self.radix
        return k, i - start

    def mul(self, i: int, j: int) -> int:
        if i == 0 or j == 0:
            return 0
        ki, ci = self._locate(i)
        kj, cj = self._locate(j)
        if ki + kj > self.bound:
            return 0
        scale = self.radix ** kj
        head, last = divmod(ci, self.m)
        first, tail = divmod(cj, scale)
        run = last + first
        if run >= self.m:
            run = (run - 1) % (self.m - 1) + 1
        return self._start(ki + kj) + (head * self.m + run) * scale + tail

    def label(self, i: int) -> str:
        if i == 0:
            return "0"
        k, code = self._locate(i)
        code, run = divmod(code, self.m)
        parts = [self.fold * run]
        for _ in range(k):
            code, letter = divmod(code, len(self.letters))
            code, run = divmod(code, self.m)
            parts += [self.letters[letter], self.fold * run]
        return "".join(reversed(parts))

    def index(self, word: str) -> int:
        """Index of a canonical word of the carrier, or of the label "0";
        raises ValueError for any other string."""
        if word == "0":
            return 0
        code = run = k = 0
        for ch in word:
            if ch == self.fold:
                run += 1
                if run == self.m:
                    raise ValueError(f"{word!r} is not canonical: it holds "
                                     f"a run of {self.m} e's")
            elif ch in self._rank:
                code = (code * self.m + run) * len(self.letters) + self._rank[ch]
                run, k = 0, k + 1
            else:
                raise ValueError(f"{word!r} has a letter outside "
                                 f"{self.letters + self.fold}")
        if not word:
            raise ValueError("the empty word names no element")
        if k > self.bound:
            raise ValueError(f"{word!r} lies in the ideal: it has {k} letters "
                             f"from {self.letters}, above {self.bound}")
        return self._start(k) + code * self.m + run

    def to_json(self) -> dict:
        if self.m > 1:
            return {"kind": "sm_ideal", "m": self.m, "bound": self.bound}
        return {"kind": "length_ideal", "alphabet": self.letters,
                "max_len": self.bound}

    @classmethod
    def from_json(cls, data, where: str = "") -> "IdealQuotient":
        """Validate {"kind": "length_ideal", "alphabet", "max_len"} or
        {"kind": "sm_ideal", "m", "bound"}; errors are ValueErrors with
        JSON-pointer paths under the prefix `where`."""
        if not isinstance(data, dict):
            raise ValueError(f"{where or '/'}: expected an object with 'kind'")

        def integer(key: str, least: int) -> int:
            v = data.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < least:
                raise ValueError(f"{where}/{key}: expected an integer of at "
                                 f"least {least}, got {v!r}")
            return v
        kind = data.get("kind")
        if kind == "length_ideal":
            alphabet = data.get("alphabet")
            if not isinstance(alphabet, str):
                raise ValueError(f"{where}/alphabet: expected a string, "
                                 f"got {alphabet!r}")
            build = functools.partial(quotient_by_length_ideal, alphabet,
                                      integer("max_len", 1))
        elif kind == "sm_ideal":
            build = functools.partial(sm_ideal_quotient, integer("m", 2),
                                      integer("bound", 0))
        else:
            raise ValueError(f"{where}/kind: expected 'length_ideal' or "
                             f"'sm_ideal', got {kind!r}")
        try:
            return build()
        except ValueError as exc:
            raise ValueError(f"{where or '/'}: {exc}") from None


def quotient_by_length_ideal(alphabet: str, max_len: int) -> IdealQuotient:
    """The free semigroup on the alphabet with every word longer than
    max_len collapsed to a zero (index 0, label "0")."""
    if len(set(alphabet)) != len(alphabet) or not alphabet:
        raise ValueError("alphabet must be nonempty distinct letters")
    if "0" in alphabet:
        raise ValueError("the letter '0' is reserved for the zero class")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    return IdealQuotient(alphabet, max_len)


def sm_ideal_quotient(m: int, bound: int) -> IdealQuotient:
    """Finite carrier over the five-letter alphabet acebx with runs of e
    folded modulo e**m = e: canonical words of e-reduced length at most
    bound, plus a zero at index 0 absorbing every longer product."""
    if m < 2:
        raise ValueError("the e-run modulus m must be at least 2")
    if bound < 0:
        raise ValueError("the e-reduced length bound must be nonnegative")
    return IdealQuotient(_SM_LETTERS, bound, m)


# ---------------------------------------------------------------------------
# the finite shadows F_n


@dataclass(frozen=True)
class FnHandle:
    """Access to the finite semigroup F_n through its confluent rewriting
    system: elements are normal forms, with one absorbing zero for every word
    whose x/b block count exceeds n.  ``oracle.word_equal_nf("fn:<n>", u, v)``
    compares two words by ``element``."""

    n: int
    system: RewriteSystem
    zero: str = "0"

    def element(self, word: str) -> str:
        """Normal form of the word, or the zero sentinel."""
        check_words(f"fn:{self.n}", (word,))
        nf = normal_form(self.system, word)
        return self.zero if block_count_s(nf) > self.n else nf

    def mul(self, u: str, v: str) -> str:
        """Element named by the concatenation."""
        return self.element(u + v)


def build_fn(n: int) -> FnHandle:
    """The shadow semigroup F_n, its system compiled on each call: none is kept."""
    return FnHandle(n=n, system=build_fn_system(n))
