"""Shared helpers and fixtures for the test suite.

The randomized Rees-matrix and semilattice instance generators are used both
by the unit tests and by the acceptance campaign, so they live here.  Sizes
are kept small on purpose: integer values in [-3, 3] (Rees) or [-2, 2]
(semilattice) and hom multipliers in {-1, 0, 1} keep every approximating
carrier below a few hundred elements, which the dense-table checks handle
instantly.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time

import numpy as np
import pytest

from lef.approx import INT_GROUP, ApproxPair, FiniteSubset, WrapMap, host_mul
from lef.constructors import ReesSpec, SemilatticeSpec
from lef.fsg import MulTable, generate_subsemigroup
from lef.lwf import build_lwf_wrapping
from lef.oracle import sm_canonical
from lef.words import ALPHABETS, one_step_words


def all_words(alphabet: str, max_len: int, min_len: int = 1) -> list[str]:
    """Every word over the alphabet with min_len <= length <= max_len."""
    letters = sorted(alphabet)
    return [
        "".join(tup)
        for length in range(min_len, max_len + 1)
        for tup in itertools.product(letters, repeat=length)
    ]


def word_value_grid(mt: MulTable, word: str, variables: tuple[str, ...]) -> np.ndarray:
    """The word's value over every assignment into mt, one axis per variable:
    the full-grid reference for the column filters of ``lef.fsg``."""
    n, k = mt.order, len(variables)

    def axis_grid(ch: str) -> np.ndarray:
        shape = [1] * k
        shape[variables.index(ch)] = n
        return np.arange(n).reshape(shape)
    val = np.broadcast_to(axis_grid(word[0]), (n,) * k)
    for ch in word[1:]:
        val = mt.table[val, axis_grid(ch)]
    return val


def relation_grid(mt: MulTable, relation: tuple[str, str],
                  variables: tuple[str, ...]) -> np.ndarray:
    """Where the relation's two words agree, over the grid of assignments."""
    u, v = relation
    return word_value_grid(mt, u, variables) == word_value_grid(mt, v, variables)


# ---------------------------------------------------------------------------
# the congruence closure of a word under a presentation's relations


def bounded_closure(relations, seeds, length_bound: int,
                    node_bound: int = 1_000_000) -> tuple[set[str], bool]:
    """Closure of the seed set under single relation applications, keeping
    words of length <= length_bound: the reference that the relation
    classes of dense_length_ideal_quotient are checked against.  The flag
    reports completeness: False as soon as any successor was discarded for
    length or the node budget ran out, in which case the set is a genuine
    subset of the congruence closure."""
    seen = set(seeds)
    frontier = list(seen)
    complete = True
    while frontier:
        nxt = []
        for w in frontier:
            for w2 in one_step_words(w, relations):
                if w2 in seen:
                    continue
                if len(w2) > length_bound:
                    complete = False
                    continue
                if len(seen) >= node_bound:
                    return seen, False
                seen.add(w2)
                nxt.append(w2)
        frontier = nxt
    return seen, complete


# ---------------------------------------------------------------------------
# dense references for the two wrapping carriers, the product rules of
# lef.constructors.IdealQuotient


def sm_ideal_blocks(m: int, bound: int) -> tuple[list[str], list[tuple]]:
    """The block fill that built sm_ideal_quotient's dense table before it
    became a product rule.

    Returns the labels (index 0 the zero, then each level of e-reduced
    length by word length and alphabet) and, for each pair of levels whose
    products stay within the bound, (first row, first column, block of
    product indices).  Every cell outside these blocks is the zero.  Each
    block is filled at once from word codes in the mixed radix m, 4, m, ...,
    m, through the result level's code-to-index array.
    """
    runs = ["e" * r for r in range(m)]
    skeleton = sorted(set(ALPHABETS["s"]) - {"e"})
    radix = m * len(skeleton)      # one letter and the run after it
    words = ["0"]
    by_level: list[range] = []
    code_index: list[np.ndarray] = []   # per level: code -> table index
    codes: list[np.ndarray] = []        # per level: each word's code, by index
    for k in range(bound + 1):
        # product counts in the mixed radix, so a word's position is its
        # code; the empty word (code 0 of level 0) is no element
        level = ["".join(p) for p in itertools.product(*[runs, skeleton] * k, runs)]
        order = sorted(range(1 if k == 0 else 0, len(level)),
                       key=lambda c: (len(level[c]), level[c]))
        start = len(words)
        words.extend(level[c] for c in order)
        by_level.append(range(start, start + len(order)))
        at = np.zeros(len(level), dtype=np.int64)
        at[order] = np.arange(start, start + len(order))
        code_index.append(at)
        codes.append(np.array(order, dtype=np.int64))
    fold = np.array([len(sm_canonical("e" * r, m)) for r in range(2 * m - 1)])
    blocks = []
    for ki, rows in enumerate(by_level):
        head, last_run = np.divmod(codes[ki], m)
        for kj in range(bound + 1 - ki):
            first_run, tail = np.divmod(codes[kj], radix ** kj)
            code = ((head * m * radix ** kj)[:, None]
                    + fold[last_run[:, None] + first_run[None, :]] * radix ** kj
                    + tail[None, :])
            blocks.append((rows.start, by_level[kj].start,
                           code_index[ki + kj][code]))
    return words, blocks


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


def dense_length_ideal_quotient(alphabet: str, max_len: int,
                                relations=()) -> MulTable:
    """The free semigroup on the alphabet modulo the relations, with every
    word longer than max_len collapsed to a zero (index 0, label "0"), as a
    dense table: quotient_by_length_ideal's builder before it became a
    product rule, with the relations it has since dropped.

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
    """Index in dense_length_ideal_quotient's table of every word of length
    <= max_len (the natural map, minus the zero class)."""
    rels = _check_length_ideal_args(alphabet, max_len, relations)
    _, word_class = _length_ideal_classes(alphabet, max_len, rels)
    return dict(word_class)


# ---------------------------------------------------------------------------
# deriving a wrapping map from an approximating pair (finite hosts)


def wrap_from_pair(H: FiniteSubset, pair: ApproxPair) -> WrapMap:
    """The LEF => LWF direction on a finite table host: a wrapping map over
    an explicit table, mechanically from an approximating pair.  Restrict F
    to the subsemigroup its image generates, send image points back through f,
    send image products to the host products they must represent, and dump
    everything else on an element outside H.

    Fails (with an error) when F identifies two subset products that differ in
    the host; such a pair carries too little information to wrap.
    """
    mt = H.host
    if not isinstance(mt, MulTable):
        raise TypeError("wrap derivation needs a finite table host")
    image = sorted({pair.f[x] for x in H.elements})
    sub = generate_subsemigroup(pair.F, image)
    local = {g: i for i, g in enumerate(sub)}
    table = np.array([[local[pair.F.mul(a, b)] for b in sub] for a in sub])
    D = MulTable(table, labels=tuple(pair.F.label(g) for g in sub))

    assigned: dict[int, str] = {}
    for x in H.elements:
        assigned[local[pair.f[x]]] = x
    for x, y in itertools.product(H.elements, repeat=2):
        z = local[pair.F.mul(pair.f[x], pair.f[y])]
        want = host_mul(mt, x, y)
        if assigned.get(z, want) != want:
            raise ValueError(
                f"pair does not separate subset products: F-element {z} would "
                f"need d-values {assigned[z]!r} and {want!r}")
        assigned[z] = want

    members = set(H.elements)
    fallback = next((mt.label(i) for i in range(mt.order)
                     if mt.label(i) not in members), None)
    if fallback is None and len(assigned) < D.order:
        raise ValueError("subset exhausts the host; no fallback element "
                         "for the unassigned part of D")
    return WrapMap(D=D, d=assigned, fallback=fallback)


# ---------------------------------------------------------------------------
# randomized constructions over the additive integers


def random_rees_instance(rng: random.Random) -> tuple[ReesSpec, list[tuple]]:
    """A Rees matrix spec over the additive integers plus a member list."""
    nrows = rng.randint(1, 3)
    ncols = rng.randint(1, 3)
    rows = tuple(f"r{k}" for k in range(nrows))
    cols = tuple(f"s{k}" for k in range(ncols))
    sandwich = tuple(
        tuple(rng.randint(-3, 3) for _ in range(nrows)) for _ in range(ncols)
    )
    spec = ReesSpec(group=INT_GROUP, rows=rows, cols=cols, sandwich=sandwich)
    triples = {
        (rng.choice(rows), rng.randint(-3, 3), rng.choice(cols))
        for _ in range(rng.randint(1, 5))
    }
    return spec, sorted(triples)


def _chain_meet(k: int) -> MulTable:
    """Meet table of the chain m0 < m1 < ... < m{k-1} (m0 is the bottom)."""
    table = np.minimum.outer(np.arange(k), np.arange(k))
    return MulTable(table, labels=tuple(f"m{i}" for i in range(k)))


def _vee_meet() -> MulTable:
    """Meet table of the V-shape: two tops t1, t2 over a bottom b."""
    table = np.array([[0, 0, 0], [0, 1, 0], [0, 0, 2]])
    return MulTable(table, labels=("b", "t1", "t2"))


def random_semilattice_instance(
    rng: random.Random,
) -> tuple[SemilatticeSpec, list[tuple]]:
    """A strong semilattice of copies of the additive integers, with
    multiplication-by-constant connecting homs, plus a member list."""
    shape = rng.choice(("point", "chain2", "chain3", "vee"))
    mult = lambda k: (lambda v, k=k: k * v)  # noqa: E731
    homs: dict[tuple[str, str], object] = {}
    if shape == "point":
        meet = _chain_meet(1)
    elif shape == "chain2":
        meet = _chain_meet(2)
        homs[("m1", "m0")] = mult(rng.choice((-1, 0, 1)))
    elif shape == "chain3":
        meet = _chain_meet(3)
        k10 = rng.choice((-1, 0, 1))
        k21 = rng.choice((-1, 0, 1))
        homs[("m1", "m0")] = mult(k10)
        homs[("m2", "m1")] = mult(k21)
        homs[("m2", "m0")] = mult(k10 * k21)  # composition, so the spec is strong
    else:
        meet = _vee_meet()
        homs[("t1", "b")] = mult(rng.choice((-1, 0, 1)))
        homs[("t2", "b")] = mult(rng.choice((-1, 0, 1)))
    names = tuple(meet.label(i) for i in range(meet.order))
    components = {name: INT_GROUP for name in names}
    spec = SemilatticeSpec(meet=meet, components=components, homs=homs)
    pairs = {
        (rng.choice(names), rng.randint(-2, 2)) for _ in range(rng.randint(1, 5))
    }
    return spec, sorted(pairs)


# ---------------------------------------------------------------------------
# the two wrapping constructions, built once per session and timed


@pytest.fixture(scope="session")
def wrap_t_n1():
    """Wrapping map for all T-words of length <= 1, with build time."""
    words = all_words("abcdex", 1)
    start = time.perf_counter()
    wrap = build_lwf_wrapping("t", words, 1)
    return wrap, words, time.perf_counter() - start


@pytest.fixture(scope="session")
def wrap_s_n1():
    """Wrapping map for all S-words of length <= 1, with build time."""
    words = all_words("acebx", 1)
    start = time.perf_counter()
    wrap = build_lwf_wrapping("s", words, 1)
    return wrap, words, time.perf_counter() - start
