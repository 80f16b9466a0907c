"""Approximating pairs and wrapping maps: witness checking plus the
constructive cases (integer subsets, Rees matrix semigroups over an
approximable group, strong semilattices of approximable components).

An approximating pair (F, f) for a finite subset H of a semigroup S is an
injection f of H into a finite semigroup F that respects every product that
stays inside H.  A wrapping map (D, d) covers H by the image of a total map d
from a finite semigroup D and respects products whenever both d-values lie in
H, with no condition on where the product itself lands.

The products of Rees and semilattice handles are ReesSpec.mul and
SemilatticeSpec.mul in constructors, the same rules the table builders use.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constructors import IdealQuotient, ReesSpec, SemilatticeSpec, mul_in, \
    rees_matrix, semilattice_semigroup
from .fsg import MulTable, _pointer, associativity_failures, direct_product
from . import oracle
from .words import check_words


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class FiniteSubset:
    """A finite subset of a host semigroup.

    Hosts: a MulTable (handles are its labels), a preset id string like "t" or
    "free:<letters>" (handles are words; "free:int" takes integers), a
    ReesSpec (handles are (row, g, col) triples) or a SemilatticeSpec
    (handles are (meet-element, value) pairs).  defined_products lists the
    triples (x, y, xy) whose product falls back into the subset.
    """

    host: object
    elements: tuple
    defined_products: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "defined_products",
                           tuple((x, y, z) for x, y, z in self.defined_products))
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("subset elements must be distinct handles")
        members = set(self.elements)
        for x, y, z in self.defined_products:
            if x not in members or y not in members or z not in members:
                raise ValueError(f"product triple ({x},{y},{z}) leaves the subset")


@dataclass(frozen=True)
class ApproxPair:
    F: MulTable
    f: dict

    def as_json(self) -> dict:
        return {"table": self.F.to_json(),
                "map": {_handle_key(k): int(v) for k, v in self.f.items()}}

    @classmethod
    def from_json(cls, data) -> "ApproxPair":
        """Validate {"table", "map"}; errors are ValueErrors with JSON-pointer
        paths."""
        if not isinstance(data, dict) or "table" not in data or "map" not in data:
            raise ValueError("/: expected an object with 'table' and 'map'")
        table = MulTable.from_json(data["table"], "/table")
        mapping = data["map"]
        if not isinstance(mapping, dict):
            raise ValueError("/map: expected an object of element-word -> index")
        for key, val in mapping.items():
            if not isinstance(val, int) or isinstance(val, bool) \
                    or not 0 <= val < table.order:
                raise ValueError(f"/map/{_pointer(key)}: index {val!r} outside "
                                 f"0..{table.order - 1}")
        return cls(F=table, f=dict(mapping))


@dataclass(frozen=True)
class WrapMap:
    """A wrapping map (D, d), D an explicit MulTable or an IdealQuotient
    product rule.  d holds the entries {D index: host handle}; every other
    index maps to `fallback`, which may be None only when d is total.  Over
    a rule carrier the JSON is {"carrier", "d": {carrier word: host word},
    "fallback"}, its size independent of D's order; over a MulTable it is
    {"table", "d_words"} with one word per index."""

    D: MulTable | IdealQuotient
    d: dict
    fallback: object = None

    def __post_init__(self):
        object.__setattr__(self, "d", dict(self.d))
        for i in self.d:
            if not 0 <= i < self.D.order:
                raise ValueError(f"d has an entry at {i!r}, outside D")
        if self.fallback is None and len(self.d) != self.D.order:
            raise ValueError("d must be total on D when there is no fallback")

    def value(self, i: int):
        """d(i)."""
        return self.d.get(i, self.fallback)

    @property
    def images(self) -> set:
        partial = len(self.d) < self.D.order
        return set(self.d.values()) | ({self.fallback} if partial else set())

    def as_json(self) -> dict:
        if isinstance(self.D, MulTable):
            return {"table": self.D.to_json(),
                    "d_words": [_handle_key(self.value(i))
                                for i in range(self.D.order)]}
        return {"carrier": self.D.to_json(),
                "d": {self.D.label(i): _handle_key(h)
                      for i, h in sorted(self.d.items())},
                "fallback": _handle_key(self.fallback)}

    def check_images(self, host) -> "WrapMap":
        """The map with its images read as handles of ``host`` (elements of a
        word preset, labels of a table, integers of "free:int", any word of
        "free:<letters>"), else a ValueError at the image's JSON pointer."""
        dense = isinstance(self.D, MulTable)

        def read(where: str, w: str):
            try:
                if host == "free:int":
                    if not w.strip().removeprefix("-").isdecimal():
                        raise ValueError(f"{w!r} is not an integer")
                    return int(w)
                if isinstance(host, MulTable):
                    host.index(w)
                elif isinstance(host, str) and not host.startswith("free:"):
                    check_words(host, (w,))
                return w
            except (KeyError, ValueError) as exc:  # MulTable.index raises KeyError
                raise ValueError(f"{where}: {exc.args[0]}") from None

        d = {i: read(f"/d_words/{i}" if dense else f"/d/{_pointer(self.D.label(i))}", w)
             for i, w in self.d.items()}
        fallback = None if self.fallback is None else read("/fallback", self.fallback)
        return WrapMap(self.D, d, fallback)

    @classmethod
    def from_json(cls, data) -> "WrapMap":
        """Validate {"carrier", "d", "fallback"} or {"table", "d_words"};
        errors are ValueErrors with JSON-pointer paths."""
        if isinstance(data, dict) and "carrier" in data:
            D = IdealQuotient.from_json(data["carrier"], "/carrier")
            entries = data.get("d")
            if not isinstance(entries, dict):
                raise ValueError("/d: expected an object of carrier word -> "
                                 "host word")
            d = {}
            for key, w in entries.items():
                try:
                    d[D.index(key)] = w
                except ValueError as exc:
                    raise ValueError(f"/d/{_pointer(key)}: {exc}") from None
                if not isinstance(w, str):
                    raise ValueError(f"/d/{_pointer(key)}: expected a string")
            if "fallback" not in data:
                raise ValueError("/fallback: missing")
            if not isinstance(data["fallback"], str):
                raise ValueError("/fallback: expected a string")
            return cls(D=D, d=d, fallback=data["fallback"])
        if not isinstance(data, dict) or "table" not in data \
                or "d_words" not in data:
            raise ValueError("/: expected an object with 'carrier', 'd' and "
                             "'fallback', or with 'table' and 'd_words'")
        table = MulTable.from_json(data["table"], "/table")
        d_words = data["d_words"]
        if not isinstance(d_words, list) or len(d_words) != table.order:
            raise ValueError(f"/d_words: expected {table.order} entries")
        for i, w in enumerate(d_words):
            if not isinstance(w, str):
                raise ValueError(f"/d_words/{i}: expected a string")
        return cls(D=table, d=dict(enumerate(d_words)))


@dataclass(frozen=True)
class GroupHandle:
    """A group known only through its operation, together with a procedure
    producing an approximating pair for any finite subset."""

    description: str
    op: Callable
    approximator: Callable


def _handle_key(handle) -> str:
    if isinstance(handle, str):
        return handle
    if isinstance(handle, tuple):
        return "(" + ",".join(_handle_key(h) for h in handle) + ")"
    return str(handle)


@dataclass(frozen=True)
class CheckResult:
    valid: bool
    # associativity | injectivity | product | coverage
    reason: str | None = None
    counterexample: tuple | None = None

    def as_json(self) -> dict:
        return {"valid": self.valid, "reason": self.reason,
                "counterexample": [_handle_key(h) for h in self.counterexample]
                if self.counterexample else None}


# ---------------------------------------------------------------------------
# host dispatch


def host_equal(host, x, y) -> bool:
    """Equality of two element handles in the host; raises when the word
    oracle cannot settle it."""
    if isinstance(host, MulTable) or isinstance(host, (ReesSpec, SemilatticeSpec)):
        return x == y
    if isinstance(host, str):
        pid = host.lower()
        if pid.startswith("free:"):
            return x == y
        verdict = oracle.word_equal(pid, x, y)
        if verdict.status == "unknown":
            raise RuntimeError(
                f"oracle cannot settle {x!r} = {y!r} in {pid}: {verdict.evidence}")
        return verdict.status == "equal"
    raise TypeError(f"unsupported host {host!r}")


def host_mul(host, x, y):
    """Product of two element handles in the host."""
    if isinstance(host, MulTable):
        return host.label(host.mul(host.index(x), host.index(y)))
    if isinstance(host, (ReesSpec, SemilatticeSpec)):
        return host.mul(x, y)
    if isinstance(host, str):
        return x + y  # words concatenate, "free:int" handles add
    raise TypeError(f"unsupported host {host!r}")


# ---------------------------------------------------------------------------
# subset constructors


def _with_products(host, elements) -> FiniteSubset:
    """The subset with every product recorded that equals a member in the
    host, as the triple (x, y, first such member)."""
    products = []
    for x, y in itertools.product(elements, repeat=2):
        xy = host_mul(host, x, y)
        z = next((w for w in elements if host_equal(host, xy, w)), None)
        if z is not None:
            products.append((x, y, z))
    return FiniteSubset(host=host, elements=tuple(elements),
                        defined_products=tuple(products))


def subset_from_table(mt: MulTable, members) -> FiniteSubset:
    """Subset of a finite table given by labels or indices, with every
    internal product recorded."""
    return _with_products(mt, [mt.label(m) if isinstance(m, int)
                               else mt.label(mt.index(m)) for m in members])


def subset_from_words(host: str, words) -> FiniteSubset:
    """Subset of a word host; elements must be pairwise distinct there, and
    products are recorded whenever the concatenation equals a member."""
    words = [str(w) for w in words]
    for a, b in itertools.combinations(words, 2):
        if host_equal(host, a, b):
            raise ValueError(f"{a!r} and {b!r} name the same element of {host}")
    return _with_products(host, words)


def subset_from_integers(values) -> FiniteSubset:
    """Subset of the additive integers (host "free:int"), with every sum
    recorded that lands back in it."""
    return _with_products("free:int", [int(v) for v in values])


def rees_subset(spec: ReesSpec, triples) -> FiniteSubset:
    """Subset of a Rees matrix semigroup from (row, g, col) triples."""
    triples = [tuple(t) for t in triples]
    for i, g, lam in triples:
        if i not in spec.rows or lam not in spec.cols:
            raise ValueError(f"triple ({i},{g},{lam}) uses unknown indices")
    return _with_products(spec, triples)


def semilattice_subset(spec: SemilatticeSpec, pairs) -> FiniteSubset:
    """Subset of a strong semilattice of semigroups from (component, value)
    pairs."""
    pairs = [tuple(p) for p in pairs]
    names = {spec.meet.label(i) for i in range(spec.meet.order)}
    for e, _ in pairs:
        if e not in names:
            raise ValueError(f"unknown component {e!r}")
    return _with_products(spec, pairs)


# ---------------------------------------------------------------------------
# checkers


def _associativity(*tables) -> CheckResult | None:
    """The failure of the first explicit table among them that is not
    associative, named by a triple of its labels.  IdealQuotient carriers
    are Rees quotients of a free semigroup, associative by construction, and
    other hosts multiply by a rule; neither is checked."""
    for mt in tables:
        if isinstance(mt, MulTable):
            for triple in associativity_failures(mt, limit=1):
                return CheckResult(False, "associativity",
                                   tuple(mt.label(i) for i in triple))
    return None


def check_approximating_pair(H: FiniteSubset, pair: ApproxPair) -> CheckResult:
    """Valid iff an explicit host table and F are associative, and f is
    injective on H and respects every defined product.  f is read by handle
    key, which a pair read from JSON has too."""
    keyed = {_handle_key(k): v for k, v in pair.f.items()}
    for x in H.elements:
        if _handle_key(x) not in keyed:
            raise ValueError(f"f is not total on the subset: {x!r} missing")
    f = {x: keyed[_handle_key(x)] for x in H.elements}
    failure = _associativity(H.host, pair.F)
    if failure:
        return failure
    seen: dict[int, object] = {}
    for x in H.elements:
        v = f[x]
        if v in seen:
            return CheckResult(False, "injectivity", (seen[v], x))
        seen[v] = x
    for x, y, z in H.defined_products:
        if pair.F.mul(f[x], f[y]) != f[z]:
            return CheckResult(False, "product", (x, y, z))
    return CheckResult(True)


def check_lwf_wrapping(H: FiniteSubset, wrap: WrapMap) -> CheckResult:
    """Valid iff an explicit host table and D are associative, d's image
    covers H and d(x'y') = d(x')d(y') whenever both d-values lie in H
    (regardless of where the product lands).

    The factors are read off d's entries; the other indices of D join them
    only when the fallback itself lies in H."""
    failure = _associativity(H.host, wrap.D)
    if failure:
        return failure
    host = H.host
    images = sorted(wrap.images, key=_handle_key)
    in_h = {val: any(host_equal(host, val, h) for h in H.elements)
            for val in images}
    for h in H.elements:
        if not any(host_equal(host, val, h) for val in images):
            return CheckResult(False, "coverage", (h,))
    factors = range(wrap.D.order) if in_h.get(wrap.fallback) else sorted(wrap.d)
    triggers = [i for i in factors if in_h[wrap.value(i)]]
    for i in triggers:
        for j in triggers:
            x, y, xy = wrap.value(i), wrap.value(j), wrap.value(wrap.D.mul(i, j))
            expected = host_mul(host, x, y)
            if not host_equal(host, xy, expected):
                return CheckResult(False, "product", (x, y, xy, expected))
    return CheckResult(True)


# ---------------------------------------------------------------------------
# integers


def cyclic_table(m: int) -> MulTable:
    """The additive group of residues mod m."""
    if m < 1:
        raise ValueError("modulus must be positive")
    grid = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    return MulTable(grid, labels=tuple(str(i) for i in range(m)))


def approx_integers(values) -> ApproxPair:
    """Approximating pair for a finite set of integers under addition: reduce
    mod the spread, which cannot collide inside the set."""
    vals = sorted({int(v) for v in values})
    if not vals:
        return ApproxPair(F=cyclic_table(1), f={})
    m = vals[-1] - vals[0] + 1
    return ApproxPair(F=cyclic_table(m), f={v: v % m for v in vals})


INT_GROUP = GroupHandle(description="additive integers", op=operator.add,
                        approximator=approx_integers)


def _approximate(S, K) -> ApproxPair:
    """Approximating pair for the finite set K inside a component S: a finite
    table approximates itself, a group handle runs its approximator."""
    if isinstance(S, MulTable):
        return ApproxPair(F=S, f={v: int(v) for v in K})
    if not K:
        return ApproxPair(F=cyclic_table(1), f={})
    return S.approximator(K)


# ---------------------------------------------------------------------------
# Rees matrix semigroups over an approximable group


def approx_rees(spec: ReesSpec, Hp: FiniteSubset) -> ApproxPair:
    """Approximating pair for a finite subset of M(G; I, Lambda; P): collect
    the touched rows J and columns Sigma, the middle entries X and sandwich
    entries Y, approximate X u Y closed under products of length <= 3 inside
    G, and rebuild the Rees table over the finite image group."""
    triples = [tuple(t) for t in Hp.elements]
    if not triples:
        raise ValueError("empty subset")
    touched_rows = {t[0] for t in triples}
    touched_cols = {t[2] for t in triples}
    J = tuple(r for r in spec.rows if r in touched_rows)
    Sigma = tuple(c for c in spec.cols if c in touched_cols)
    row_at = {r: k for k, r in enumerate(spec.rows)}
    col_at = {c: k for k, c in enumerate(spec.cols)}

    X = {g for _, g, _ in triples}
    Y = {spec.sandwich[col_at[lam]][row_at[i]] for lam in Sigma for i in J}
    base = X | Y
    K = set(base)
    for g, h in itertools.product(base, repeat=2):
        K.add(mul_in(spec.group, g, h))
    for g, h, k in itertools.product(base, repeat=3):
        K.add(mul_in(spec.group, mul_in(spec.group, g, h), k))
    gp = _approximate(spec.group, K)

    P_image = tuple(tuple(gp.f[spec.sandwich[col_at[lam]][row_at[i]]] for i in J)
                    for lam in Sigma)
    F = rees_matrix(ReesSpec(group=gp.F, rows=J, cols=Sigma, sandwich=P_image))
    ng, nl = gp.F.order, len(Sigma)
    f = {(i, g, lam): (J.index(i) * ng + gp.f[g]) * nl + Sigma.index(lam)
         for i, g, lam in triples}
    return ApproxPair(F=F, f=f)


# ---------------------------------------------------------------------------
# strong semilattices of approximable components


def approx_semilattice(spec: SemilatticeSpec, H: FiniteSubset) -> ApproxPair:
    """Approximating pair for a finite subset of a strong semilattice of
    semigroups whose components are finite tables or approximable groups.

    The carrier is again a strong semilattice: over each touched-downward meet
    element e sits the direct product of the component approximations at or
    below e, connected by coordinate projections.
    """
    E = spec.meet
    names = tuple(E.label(i) for i in range(E.order))
    at = {name: i for i, name in enumerate(names)}
    pairs = [tuple(p) for p in H.elements]
    touched = {e for e, _ in pairs}
    for e in touched:
        if e not in at:
            raise ValueError(f"unknown component {e!r}")

    closure = set(touched)
    while True:
        extra = {names[E.mul(at[e1], at[e2])]
                 for e1, e2 in itertools.product(closure, repeat=2)} - closure
        if not extra:
            break
        closure |= extra
    eprime = tuple(name for name in names if name in closure)

    def below(e1: str, e2: str) -> bool:
        return names[E.mul(at[e1], at[e2])] == e1   # e1 lies below e2

    K: dict[str, set] = {e: set() for e in eprime}
    for e1, v in pairs:
        for e2 in eprime:
            if below(e2, e1):
                K[e2].add(spec.down(e1, e2, v))
    comp_pair = {e: _approximate(spec.components[e], K[e]) for e in eprime}

    # the component over e is the direct product of the approximations at or
    # below e, flattened row-major in factors_of[e] order as direct_product
    # lays out its pairs
    factors_of = {e: tuple(e2 for e2 in eprime if below(e2, e)) for e in eprime}
    shape = {e: tuple(comp_pair[e2].F.order for e2 in factors_of[e])
             for e in eprime}
    components = {e: functools.reduce(direct_product,
                                      [comp_pair[e2].F for e2 in factors_of[e]])
                  for e in eprime}

    homs: dict[tuple[str, str], tuple[int, ...]] = {}
    for e1 in eprime:
        coords = dict(zip(factors_of[e1],
                          np.unravel_index(np.arange(components[e1].order),
                                           shape[e1])))
        for e2 in factors_of[e1]:
            if e2 != e1:
                homs[(e1, e2)] = tuple(np.ravel_multi_index(
                    [coords[x] for x in factors_of[e2]], shape[e2]).tolist())

    meet_sub = MulTable(
        np.array([[eprime.index(names[E.mul(at[e1], at[e2])])
                   for e2 in eprime] for e1 in eprime]),
        labels=eprime)
    F = semilattice_semigroup(SemilatticeSpec(meet=meet_sub,
                                              components=components, homs=homs))
    offsets = dict(zip(eprime, itertools.accumulate(
        (components[e].order for e in eprime), initial=0)))
    f = {(e, v): offsets[e] + int(np.ravel_multi_index(
            [comp_pair[x].f[spec.down(e, x, v)] for x in factors_of[e]],
            shape[e]))
         for e, v in pairs}
    return ApproxPair(F=F, f=f)
