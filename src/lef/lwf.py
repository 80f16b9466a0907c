"""Wrapping-map construction for the two six-relation word hosts.

A word is pre-accurate for the subset of host elements carrying a
representative of length at most n when its own element lies in that subset
and, unless it is a single letter, it splits into two pre-accurate words.
Concatenations of pre-accurate words then cover every product of subset
elements, which lets a finite cut-off of the free semigroup wrap the subset:
by plain length for the t host, and by e-reduced length with runs of e folded
below a fixed modulus for the s host, whose pre-accurate words pump
arbitrarily long runs of e.

Membership of a candidate word is mostly a lookup: the class of each base
representative is walked once (``oracle.congruence_class``), and a word of
a class that closed under the length bound is in the subset exactly when
the lookup finds it; for q the lookup is by normal form.  Only a word
sharing its conserved quantities with a class that stays open costs an
oracle call, ``equal_to_any`` against the representatives of the open
classes that share them.  Both carriers (``quotient_by_length_ideal`` for t,
``sm_ideal_quotient`` for s) are product rules on word codes, so a wrapping
map stores only the canonical forms of the pre-accurate words and one
fallback word, never a table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .approx import FiniteSubset, WrapMap
from .constructors import quotient_by_length_ideal, sm_ideal_quotient
from .oracle import (congruence_class, equal_to_any, normal_form_map, sm_canonical,
                     word_equal)
from .presets import PRESENTATIONS, has_normal_forms, preset_letters
from .words import check_words, conserved_vector, e_reduced_length, words_up_to


@dataclass(frozen=True)
class PreAccurateSet:
    """Pre-accurate words for the subset bounded by representative length n,
    enumerated up to length_cap.

    base_elements holds one representative per distinct element among the
    defining words of length <= n.  Words whose membership the oracle could
    not settle are listed in indeterminate and conservatively excluded.
    """

    preset: str
    n: int
    length_cap: int
    base_words: tuple[str, ...]
    base_elements: tuple[str, ...]
    words: tuple[str, ...]
    indeterminate: tuple[str, ...]

    @property
    def max_length(self) -> int:
        return max(len(w) for w in self.words)

    @property
    def truncated(self) -> bool:
        """True when the cap stopped short of twice the observed maximum
        length plus two, the point past which emptiness of every longer
        length follows by induction on splits."""
        return self.length_cap < 2 * self.max_length + 2

    def as_json(self) -> dict:
        return {
            "preset": self.preset,
            "n": self.n,
            "length_cap": self.length_cap,
            "base_words": list(self.base_words),
            "base_elements": list(self.base_elements),
            "words": list(self.words),
            "max_length": self.max_length,
            "truncated": self.truncated,
            "indeterminate": list(self.indeterminate),
        }


def enumerate_preaccurate(preset: str, n: int,
                          length_cap: int | None = None) -> PreAccurateSet:
    """All pre-accurate words up to the cap, by increasing length.

    Every word of length <= n is pre-accurate outright.  A longer word
    qualifies when it concatenates two pre-accurate words and equals some
    defining word in the host, so candidates at each length come from joining
    shorter pre-accurate words, and membership is settled against the base
    representatives, the base words being partitioned the same way.

    For s, t and c the class of each new representative is walked once up to
    length cap + 4.  A class that closes is exact (a congruence class is a
    connected component of the one-step graph), so a word in it is in the
    subset, and a word outside every closed class is not, unless it shares
    its conserved quantities with a class that stayed open (s: the class of
    ax, which pumps a e^k x).  The open classes' representatives are kept
    by their key (``words.conserved_vector``), and such a word goes through
    one ``equal_to_any`` call against the representatives under its own key,
    with length bound the word's length plus the longest of them plus 4.
    A representative under another key is separated from the word by a
    quantity, and no closed class can hold the word, so neither would add
    anything to the search.  For a word shorter than cap - n that bound is
    below the walk's, so the lookup settles a word whose path to its
    representative, or whose separating closure, passes the shorter bound:
    a search per candidate would have left it open.  For q each class is
    its representative's normal form, so no oracle call is made.
    Quantities are computed only once a class stays open.  Raises when the
    base words themselves cannot be partitioned.
    """
    pid = preset.lower()
    if pid not in PRESENTATIONS:
        raise ValueError("pre-accurate enumeration covers the word presets "
                         "q, s, t and c")
    if n < 1:
        raise ValueError("the subset bound n must be at least 1")
    cap = 2 * n + 4 if length_cap is None else length_cap
    if cap < n:
        raise ValueError(f"length cap {cap} falls below the subset bound {n}")
    base_words = words_up_to(pid, n)

    # q: the normal forms decide, so the closed set holds the reps' forms
    form = normal_form_map(pid) if has_normal_forms(pid) else None
    reps: list[str] = []
    closed: set[str] = set()    # every word of a class that closed
    # the reps whose class stays open, by their conserved-quantity key
    open_classes: dict[tuple, list[str]] = {}

    def in_subset(w: str) -> bool | None:
        if (form(w) if form else w) in closed:
            return True
        same = open_classes and open_classes.get(conserved_vector(w, pid))
        if not same:
            return False
        status = equal_to_any(pid, w, same).status
        return None if status == "unknown" else status == "equal"

    for w in base_words:
        verdict = in_subset(w)
        if verdict is None:
            # name the pairs left open, as the pairwise oracle sees them
            same = open_classes[conserved_vector(w, pid)]
            open_pairs = [r for r in same
                          if word_equal(pid, w, r).status == "unknown"] or same
            raise RuntimeError(
                f"cannot partition the defining words: {w!r} vs "
                f"{', '.join(map(repr, open_pairs))} is undecided")
        if verdict:
            continue
        reps.append(w)
        if form:
            closed.add(form(w))
            continue
        members = congruence_class(pid, w, cap + 4)
        if members is not None:
            closed |= members
        else:
            open_classes.setdefault(conserved_vector(w, pid), []).append(w)

    by_length: dict[int, list[str]] = {
        ell: list(group) for ell, group in itertools.groupby(base_words, len)}
    indeterminate: list[str] = []
    for ell in range(n + 1, cap + 1):
        candidates = sorted({u + v
                             for j in range(1, ell)
                             for u in by_length.get(j, ())
                             for v in by_length.get(ell - j, ())})
        found = []
        for w in candidates:
            verdict = in_subset(w)
            if verdict:
                found.append(w)
            elif verdict is None:
                indeterminate.append(w)
        if found:
            by_length[ell] = found
    words = tuple(w for ell in sorted(by_length) for w in by_length[ell])
    return PreAccurateSet(preset=pid, n=n, length_cap=cap,
                          base_words=base_words, base_elements=tuple(reps),
                          words=words, indeterminate=tuple(indeterminate))


def fallback_element(preset: str, bound: int) -> str:
    """First word of length bound+1 (alphabetically) that the conserved
    quantities separate from every word of length <= bound; its element is
    guaranteed to lie outside the length-bound subset."""
    pid = preset.lower()
    letters = sorted(preset_letters(pid))
    shorter = {conserved_vector(w, pid) for w in words_up_to(pid, bound)}
    for t in itertools.product(letters, repeat=bound + 1):
        w = "".join(t)
        if conserved_vector(w, pid) not in shorter:
            return w
    raise RuntimeError(f"no invariant-separated word of length {bound + 1} "
                       f"over preset {pid}")


def build_lwf_wrapping(preset: str, subset, n: int) -> WrapMap:
    """Wrapping map for a set of words of length <= n in the s or t host.

    subset is a FiniteSubset over the preset or a plain iterable of words.
    The pre-accurate words for the doubled bound 2n are enumerated first;
    they absorb every product of two subset elements, so mapping them to
    themselves and everything else to an element outside the doubled subset
    yields the wrapping.  The t carrier cuts the free semigroup off past the
    longest pre-accurate word.  The s carrier folds runs of e modulo 2n+1 and
    cuts off on e-reduced length, after verifying that words sharing a folded
    form are equal in the host.
    """
    pid = preset.lower()
    if pid not in ("s", "t"):
        raise ValueError("the wrapping construction covers the s and t presets")
    if n < 1:
        raise ValueError("the subset bound n must be at least 1")
    if isinstance(subset, FiniteSubset):
        if subset.host != pid:
            raise ValueError(f"subset host {subset.host!r} does not match "
                             f"preset {pid!r}")
        members = tuple(subset.elements)
    else:
        members = tuple(str(w) for w in subset)
    if not members:
        raise ValueError("the subset must be nonempty")
    check_words(pid, members)
    for w in members:
        if len(w) > n:
            raise ValueError(f"{w!r} exceeds the representative bound {n}")
    if pid == "t":
        return _wrap_t(n)
    return _wrap_s(n)


def _require_settled(pre: PreAccurateSet) -> None:
    if pre.indeterminate:
        sample = ", ".join(repr(w) for w in pre.indeterminate[:5])
        raise RuntimeError(f"subset membership undecided for {sample}")


def _wrap_t(n: int) -> WrapMap:
    nn = 2 * n
    cap = 2 * nn + 4
    for _ in range(3):
        pre = enumerate_preaccurate("t", nn, cap)
        _require_settled(pre)
        if not pre.truncated:
            break
        cap = 2 * pre.max_length + 2
    else:
        raise RuntimeError(f"pre-accurate words still appearing at length {cap}")
    D = quotient_by_length_ideal(preset_letters("t"), pre.max_length)
    return WrapMap(D=D, d={D.index(w): w for w in pre.words},
                   fallback=fallback_element("t", nn))


def _wrap_s(n: int) -> WrapMap:
    nn = 2 * n
    m = nn + 1
    cap = 2 * nn + 6
    pre = enumerate_preaccurate("s", nn, cap)
    _require_settled(pre)

    groups: dict[str, list[str]] = {}
    early: set[str] = set()
    for w in pre.words:
        c = sm_canonical(w, m)
        groups.setdefault(c, []).append(w)
        if len(w) <= cap - 2:
            early.add(c)
    if early != set(groups):
        fresh = ", ".join(repr(c) for c in sorted(set(groups) - early)[:5])
        raise RuntimeError(f"folded forms still appearing near the length "
                           f"cap: {fresh}")

    rep: dict[str, str] = {}
    for c, ws in groups.items():
        ws.sort(key=lambda w: (len(w), w))
        head = ws[0]
        for other in ws[1:]:
            if word_equal("s", head, other).status != "equal":
                raise RuntimeError(f"{head!r} and {other!r} share the folded "
                                   f"form {c!r} but are not provably equal")
        rep[c] = head

    bound = max(e_reduced_length(c) for c in groups)
    D = sm_ideal_quotient(m, bound)
    return WrapMap(D=D, d={D.index(c): w for c, w in rep.items()},
                   fallback=fallback_element("s", nn))
