#!/usr/bin/env python3
"""Wrapping maps and the word-equality oracles.

The presentations S and T are not locally embeddable into finite semigroups,
but they satisfy the weaker wrapping property: for every finite subset H of
words there is a finite semigroup D and a total map d from D onto a superset
of H that respects products whenever both factors lie in H.  This demo
enumerates the pre-accurate word sets L_n that drive the construction, builds
the wrappings for S and T at n = 1, and exercises the three-tier equality
oracle (conserved quantities, bidirectional search, closure exhaustion) that
certifies which words name distinct elements.
"""

import itertools

from lef.approx import check_lwf_wrapping, subset_from_words
from lef.lwf import build_lwf_wrapping, enumerate_preaccurate, fallback_element
from lef.oracle import replay_path, word_equal_bfs
from lef.presets import Q_SYSTEM
from lef.rewrite import normal_form


def main() -> None:
    print("== pre-accurate words for T ==")
    for n in (1, 2):
        pre = enumerate_preaccurate("t", n)
        by_len = {}
        for w in pre.words:
            by_len.setdefault(len(w), []).append(w)
        layers = ", ".join(f"{k}: {len(v)}" for k, v in sorted(by_len.items()))
        print(f"  L_{n}(T): {len(pre.words)} words (by length {layers}); "
              f"truncated={pre.truncated}")
    print(f"  L_2(S) is infinite; a length cap keeps "
          f"{len(enumerate_preaccurate('s', 2, length_cap=10).words)} words")
    print(f"  fallback element outside the window for T, n=2: "
          f"{fallback_element('t', 2)!r}")

    print("\n== wrapping maps at n = 1 ==")
    for preset, alphabet in (("t", "abcdex"), ("s", "acebx")):
        words = list(alphabet)
        wrap = build_lwf_wrapping(preset, words, 1)
        H = subset_from_words(preset, words)
        result = check_lwf_wrapping(H, wrap)
        # the carrier is a product rule; d stores only the non-fallback entries
        print(f"  {preset.upper()}: carrier order {wrap.D.order}, "
              f"{len(wrap.d)} stored entries, {len(wrap.images)} distinct "
              f"images, valid={result.valid}")

    print("\n== the equality oracle on T ==")
    queries = [("xcd", "xe"), ("axb", "acx"), ("a", "d"), ("xexb", "bxex")]
    for u, v in queries:
        verdict = word_equal_bfs("t", u, v)
        kind = verdict.evidence.get("kind")
        extra = ""
        if kind == "path":
            path = verdict.evidence["path"]
            extra = f" (path of {len(path)} words, replay={replay_path('t', path)})"
        elif kind == "invariant":
            extra = f" (separated by {verdict.evidence['name']})"
        print(f"  {u} vs {v}: {verdict.status} via {kind}{extra}")

    print("\n== closure exhaustion on the Malcev presentation ==")
    # every relation of the preset preserves length, so equivalence classes
    # of short words are finite and distinctness is decided exactly
    for u, v in (("ax", "by"), ("ax", "cx")):
        verdict = word_equal_bfs("c", u, v)
        print(f"  {u} vs {v}: {verdict.status} via {verdict.evidence['kind']}")

    print("\n== sanity: BFS oracle versus normal forms on Q ==")
    words = ["".join(t) for k in (1, 2)
             for t in itertools.product("acebx", repeat=k)]
    agree = 0
    total = 0
    for u, v in itertools.combinations(words, 2):
        total += 1
        nf_equal = normal_form(Q_SYSTEM, u) == normal_form(Q_SYSTEM, v)
        bfs = word_equal_bfs("q", u, v).status
        if (bfs == "equal") == nf_equal and bfs != "unknown":
            agree += 1
    print(f"  {agree}/{total} pairs of words of length <= 2 agree")


if __name__ == "__main__":
    main()
