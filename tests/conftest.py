"""Shared helpers and fixtures for the test suite.

The randomized Rees-matrix and semilattice instance generators are used both
by the unit tests and by the acceptance campaign, so they live here.  Sizes
are kept small on purpose: integer values in [-3, 3] (Rees) or [-2, 2]
(semilattice) and hom multipliers in {-1, 0, 1} keep every approximating
carrier below a few hundred elements, which the dense-table checks handle
instantly.
"""

from __future__ import annotations

import itertools
import random
import time

import numpy as np
import pytest

from lef.approx import INT_GROUP
from lef.constructors import ReesSpec, SemilatticeSpec
from lef.fsg import MulTable
from lef.lwf import build_lwf_wrapping


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
