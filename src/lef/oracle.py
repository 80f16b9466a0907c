"""Word-problem oracles for the preset presentations.

Exact answers come from one map, ``normal_form_map``: confluent rewriting for q
and fn:<n>, canonical forms for sm:<m>, each built once while a bounded cache,
the one holder of compiled fn:<n> systems, keeps it, and for q and fn:<n> only
once the system passes a local-confluence pass (a terminating system is
confluent iff it is locally confluent: Book & Otto, String-Rewriting Systems,
1993).  For q, s, t and c the bounded oracle decides in tiers, all in
``_search_verdict``: a target that a conserved quantity separates from the word
is distinct from it; the others meet it in a bounded bidirectional closure of
the single-relation-application graph from the word, or one side's closure
completes without meeting, or the bounds ran out.  ``word_equal`` dispatches to
``word_equal_nf`` (normal forms) or ``word_equal_bfs`` (the bounded oracle, one
target), ``equal_to_any`` runs the bounded oracle against several targets, and
``congruence_class`` lists a word's whole class under a length bound.  Each
entry, ``replay_path`` included, checks its words with ``words.check_words``,
and the public fn:<n> and sm:<m> maps (``FnHandle.element``, ``sm_canonical``)
check them again; the quantities and one-step successors come from ``words``.

``equal_to_any`` asks whether a word equals one of several targets with one
search: side 1 starts from every target that no quantity separates from the
word, and the root of the back chain through the meeting word names the
target met.  When every pairwise ``word_equal_bfs`` call is decided, this one
search decides the same way, node budget permitting.  A pair that a quantity
settles is settled the same way here.  For the rest, the length bound is at
least each pair's bound, and a larger bound loses nothing: a path within a
pair's bound stays within it, and a class that closed under a pair's bound
lies wholly below it and closes again.  So a target equal to the word is met,
and if every pair was settled distinct, either the word's own class closes
(side 0) or every searched target's class does, and then so does their union
(side 1).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import groupby

from .constructors import build_fn
from .presets import (PRESENTATIONS, Q_SYSTEM, family_parameter, has_normal_forms,
                      preset_letters, preset_presentation, sm_presentation)
from .rewrite import check_local_confluence, normal_form
from .words import check_letters, check_words, one_step_words, separating_quantity


@dataclass(frozen=True)
class EqualityVerdict:
    status: str      # equal | distinct | unknown
    evidence: dict

    def as_json(self) -> dict:
        return {"status": self.status, "evidence": dict(self.evidence)}


# ---------------------------------------------------------------------------
# exact oracles


_CONFLUENCE_SANITY_BOUND = 2
_EXACT_MAPS_SIZE = 16  # maps kept, least recent out; q's and fn:<n>'s hold a compiled system


def _ensure_locally_confluent(system) -> None:
    """One cheap local-confluence pass; RuntimeError names a pair whose two
    results keep distinct normal forms.  The heavyweight campaigns at higher
    exponent bounds belong to the verification suite."""
    report = check_local_confluence(system, exponent_bound=_CONFLUENCE_SANITY_BOUND)
    if report.unresolved:
        pair = report.unresolved[0]
        raise RuntimeError(
            f"system {system.name} is not locally confluent: "
            f"{pair.joint!r} splits to {pair.left_result!r} / {pair.right_result!r}")


@functools.lru_cache(maxsize=_EXACT_MAPS_SIZE)
def _exact_map(family: str, k: int | None):
    """The map of ``normal_form_map`` for q, fn:<k> or sm:<k>; for q and
    fn:<k> only once the system passes ``_ensure_locally_confluent``."""
    if family == "sm":
        sm_presentation(k)  # an m below 2 is refused here, so it is never kept
        return functools.partial(sm_canonical, m=k)
    if family == "q":
        system, form = Q_SYSTEM, functools.partial(normal_form, Q_SYSTEM)
    else:
        handle = build_fn(k)
        system, form = handle.system, handle.element
    _ensure_locally_confluent(system)
    return form


def normal_form_map(preset: str):
    """The map from a word to its normal form: for q and fn:<n> by the
    confluent rewriting system, for sm:<m> its canonical form."""
    pid = preset.lower()
    if not has_normal_forms(pid):
        raise ValueError(f"no normal forms for preset {preset!r}; "
                         "use word_equal_bfs")
    return _exact_map("q", None) if pid == "q" else _exact_map(pid[:2], family_parameter(pid))


def word_equal_nf(preset: str, u: str, v: str) -> EqualityVerdict:
    """Equality by normal form; presets q, fn:<n> and sm:<m> only, never
    unknown."""
    pid = preset.lower()
    form = normal_form_map(pid)
    check_words(pid, (u, v))
    nu, nv = form(u), form(v)
    evidence = {"kind": "normal_form", "left": nu, "right": nv}
    return EqualityVerdict("equal" if nu == nv else "distinct", evidence)


def sm_canonical(word: str, m: int) -> str:
    """Canonical form in Sm: each maximal run of m or more e's drops down to
    its residue ((k-1) mod (m-1)) + 1, other letters untouched; m >= 2."""
    check_letters(word, preset_letters(f"sm:{m}"), f"sm:{m}")
    out = []
    for ch, run in groupby(word):
        k = sum(1 for _ in run)
        if ch == "e" and k >= m:
            k = ((k - 1) % (m - 1)) + 1
        out.append(ch * k)
    return "".join(out)


# ---------------------------------------------------------------------------
# the relation graph


def _back_chain(parents: dict[str, str | None], w: str) -> list[str]:
    out = [w]
    while parents[out[-1]] is not None:
        out.append(parents[out[-1]])
    return out


def _bidirectional_search(relations, u: str, targets, length_bound: int,
                          node_bound: int):
    """Meet-in-the-middle over the relation graph, from u on side 0 and from
    every target at once on side 1.  Returns (path, None, nodes) on success,
    the path running from u to the target it met (the root of side 1's back
    chain), (None, closure_info, nodes) when a side's closure completed
    without meeting, or (None, None, nodes) when the bounds ran out.

    Side 1 is the union of the targets' balls, so a complete side-1 closure
    without u, or a complete side-0 closure without any target, shows u
    distinct from every target.  With one target this is the pairwise search.
    """
    if u in targets:
        return [u], None, 1
    parents = ({u: None}, dict.fromkeys(targets))
    frontier: list[list[str]] = [[u], list(parents[1])]
    complete = [True, True]
    exhausted = [False, False]
    nodes = 1 + len(parents[1])

    def path_through(meet: str) -> list[str]:
        left = _back_chain(parents[0], meet)
        right = _back_chain(parents[1], meet)
        return list(reversed(left)) + right[1:]

    while True:
        live = [s for s in (0, 1) if not exhausted[s]]
        if not live:
            break
        s = min(live, key=lambda side: len(frontier[side]))
        nxt = []
        for w in frontier[s]:
            for w2 in one_step_words(w, relations):
                if w2 in parents[s]:
                    continue
                if len(w2) > length_bound:
                    complete[s] = False
                    continue
                parents[s][w2] = w
                if w2 in parents[1 - s]:
                    return path_through(w2), None, nodes + 1
                nxt.append(w2)
                nodes += 1
                if nodes > node_bound:
                    complete[s] = False
                    return None, None, nodes
        frontier[s] = nxt
        if not nxt:
            exhausted[s] = True
            # a complete closure that never met the other word settles the
            # question no matter how far the other side still reaches
            if complete[s]:
                return None, {"side": "left" if s == 0 else "right",
                              "closure_size": len(parents[s])}, nodes
    return None, None, nodes


# ---------------------------------------------------------------------------
# the bounded oracle


DEFAULT_NODE_BOUND = 1_000_000

_VERDICT_MEMO_SIZE = 4096  # verdicts kept; the least recently used goes first


def _search_verdict(pid: str, u: str, targets, length_bound: int | None,
                    node_bound: int) -> EqualityVerdict:
    """The verdict on u against the targets, in the oracle's tiers.

    A target that a conserved quantity separates from u is distinct from it,
    so it drops out; when none is left the answer is distinct by the
    quantity separating u from the first target.  Otherwise one
    bidirectional search runs from u against the targets left, with length
    bound len(u) + the longest of them + 4 unless one is given.
    """
    names = [separating_quantity(u, r, pid) for r in targets]
    kept = tuple(r for r, name in zip(targets, names) if name is None)
    if not kept:
        return EqualityVerdict("distinct", {"kind": "invariant", "name": names[0]})
    if length_bound is None:
        length_bound = len(u) + max(map(len, kept)) + 4
    path, closure, nodes = _bidirectional_search(
        preset_presentation(pid).relations, u, kept, length_bound, node_bound)
    if path is not None:
        return EqualityVerdict("equal", {"kind": "path", "path": path})
    if closure is not None:
        return EqualityVerdict(
            "distinct", {"kind": "closure", "explored": nodes, **closure})
    return EqualityVerdict(
        "unknown", {"kind": "bound", "length_bound": length_bound,
                    "node_bound": node_bound, "explored": nodes})


@functools.lru_cache(maxsize=_VERDICT_MEMO_SIZE)
def _verdict_memo(pid: str, u: str, v: str, length_bound: int | None,
                  node_bound: int) -> EqualityVerdict:
    """The verdict on u against v, searched from u."""
    return _search_verdict(pid, u, (v,), length_bound, node_bound)


def _bounded_preset(preset: str) -> str:
    """The preset id, when the bounded oracle covers it."""
    pid = preset.lower()
    if pid not in PRESENTATIONS:
        raise ValueError(f"the bounded oracle covers the presets "
                         f"{', '.join(PRESENTATIONS)}, not {preset!r}")
    return pid


def word_equal_bfs(preset: str, u: str, v: str, length_bound: int | None = None,
                   node_bound: int = DEFAULT_NODE_BOUND) -> EqualityVerdict:
    """Equality by the bounded oracle: s, t, c, and q for cross-checking.

    Three tiers: a conserved quantity that differs settles distinctness; a
    meeting of the two relation-graph balls settles equality with a replayable
    path from u to v; a side whose entire congruence class fit under the
    bounds settles distinctness by exhaustion ("left" is u's class).
    Anything else is unknown.
    """
    pid = _bounded_preset(preset)
    check_words(pid, (u, v))
    return _verdict_memo(pid, u, v, length_bound, node_bound)


def word_equal(preset: str, u: str, v: str) -> EqualityVerdict:
    """Equality in any word preset: normal forms where ``has_normal_forms``
    (q, fn:<n>, sm:<m>), the bounded oracle for s, t and c."""
    equal = word_equal_nf if has_normal_forms(preset) else word_equal_bfs
    return equal(preset.lower(), u, v)


def equal_to_any(preset: str, w: str, targets) -> EqualityVerdict:
    """Whether w equals one of the targets, settled at once rather than one
    pair at a time, by the bounded oracle of ``word_equal_bfs`` (q, s, t, c).

    Targets that a conserved quantity separates from w drop out; the others
    take part in one search from w, with length bound len(w) + the longest
    of them + 4 and the default node bound.  See the module docstring for
    why it decides whenever every pairwise ``word_equal_bfs`` would.

    An equal verdict names the target under "target" (a path ends there);
    distinct means distinct from every target.
    """
    targets = tuple(targets)
    if not targets:
        raise ValueError("equal_to_any needs at least one target")
    pid = _bounded_preset(preset)
    check_words(pid, (w, *targets))
    verdict = _search_verdict(pid, w, targets, None, DEFAULT_NODE_BOUND)
    if verdict.status != "equal":
        return verdict
    return EqualityVerdict("equal", {**verdict.evidence,
                                     "target": verdict.evidence["path"][-1]})


def congruence_class(preset: str, w: str, length_bound: int) -> frozenset[str] | None:
    """Every word equal to w in a preset with defining relations, when the
    class lies within the length bound; None as soon as a word passes the
    bound or the walk passes DEFAULT_NODE_BOUND words.

    A class of the congruence a presentation defines is a connected component
    of the one-step graph (Book & Otto, String-Rewriting Systems, 1993), and
    ``one_step_words`` applies every relation in both directions at every
    position, so a walk that runs out of new words without dropping one has
    found the whole class.
    """
    pid = preset.lower()
    check_words(pid, (w,))
    relations = preset_presentation(pid).relations
    seen = {w}
    stack = [w]
    while stack:
        for v in one_step_words(stack.pop(), relations):
            if v not in seen:
                if len(v) > length_bound or len(seen) >= DEFAULT_NODE_BOUND:
                    return None
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def replay_path(preset: str, path) -> bool:
    """Check that consecutive path entries differ by one relation application;
    a word that names no element of the preset raises ValueError."""
    pid = preset.lower()
    relations = preset_presentation(pid).relations
    path = list(path)
    check_words(pid, path)
    if not path:
        return False
    for cur, nxt in zip(path, path[1:]):
        if nxt not in one_step_words(cur, relations):
            return False
    return True
