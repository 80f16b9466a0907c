"""Facts about a word over a preset's letters (``presets.preset_letters``).

``check_words`` is the one test that a word names an element (nonempty, and
spelled in the preset's letters by ``check_letters``, the one letter test).
Besides it: single applications of defining relations, the block count and
e-reduced length that size the finite carriers, and the conserved quantities
that no relation step of a preset changes (and that therefore tell elements
apart), read from one table of letter groups per preset into one hashable
key, ``conserved_vector``."""

from __future__ import annotations

import itertools

from .presets import preset_letters


def check_letters(word: str, alphabet: str, preset: str) -> None:
    """Raise ValueError when the word uses letters outside the alphabet."""
    if word.strip(alphabet):   # a letter outside the alphabet stops the strip
        bad = set(word) - set(alphabet)
        raise ValueError(f"word {word!r} uses letters {sorted(bad)} outside "
                         f"the {preset} alphabet {alphabet!r}")


def check_words(pid: str, words) -> None:
    """Every word names an element of the preset: it is nonempty and spelled
    in the preset's letters."""
    letters = preset_letters(pid)
    for w in words:
        if not w:
            raise ValueError("the empty word names no element")
        check_letters(w, letters, pid)


def words_up_to(pid: str, n: int) -> tuple[str, ...]:
    """Every word of length 1 to n over the preset's letters, by length, then
    alphabetically."""
    letters = sorted(preset_letters(pid))
    return tuple("".join(t) for ell in range(1, n + 1)
                 for t in itertools.product(letters, repeat=ell))


def one_step_words(w: str, relations) -> list[str]:
    """Every word reachable from w by one application of a relation, in either
    direction, at any position."""
    out = []
    seen = {w}
    for l, r in relations:
        for big, small in ((l, r), (r, l)):
            start = 0
            while True:
                pos = w.find(big, start)
                if pos < 0:
                    break
                w2 = w[:pos] + small + w[pos + len(big):]
                if w2 not in seen:
                    seen.add(w2)
                    out.append(w2)
                start = pos + 1
    return out


def block_count_s(w: str) -> int:
    """Number of maximal subwords of the form x, b^q or xb^q.

    Within a maximal run over {x,b} every x starts a new block, plus one block
    for a leading b-run.  Defined only over the s letters.
    """
    check_letters(w, preset_letters("s"), "s")
    blocks = 0
    prev = None  # previous character inside the current {x,b} run, else None
    for ch in w:
        if ch == "x":
            blocks += 1
            prev = ch
        elif ch == "b":
            if prev is None:
                blocks += 1  # run starts with b: its own block
            prev = ch
        else:
            prev = None
    return blocks


def e_reduced_length(w: str) -> int:
    """Length of w after deleting every e."""
    return len(w) - w.count("e")


# Per preset, besides x_count: the balance #plus - #minus, the letters
# counted before the first x and those counted after the last x, each under
# its quantity name.  The c relations preserve only length.
_QS_GROUPS = (("diff_a_minus_bc", "a", "bc"), ("prefix_a_count", "a"),
              ("suffix_ae_count", "ae"))
_LETTER_GROUPS = {
    "q": _QS_GROUPS,
    "s": _QS_GROUPS,
    "t": (("diff_ad_minus_bc", "ad", "bc"), ("prefix_ad_count", "ad"),
          ("suffix_ade_count", "ade")),
    "c": None,
}


def conserved_vector(w: str, preset: str) -> tuple[tuple[str, int], ...]:
    """The quantities of w that single applications of the preset's relations
    preserve, as (name, value) pairs in a fixed order: a hashable key that two
    words share exactly when no conserved quantity separates them.

    q, s, t: x_count, the balance of two letter groups (e.g.
    diff_a_minus_bc), then the counts before the first x and after the last x
    (e.g. prefix_a_count, suffix_ae_count), present only when x occurs.
    c: length.
    """
    key = preset.lower()
    if key not in _LETTER_GROUPS:
        raise ValueError(f"no conserved-quantity registry for preset {preset!r}")
    check_letters(w, preset_letters(key), key)
    groups = _LETTER_GROUPS[key]
    if groups is None:
        return (("length", len(w)),)
    (balance, plus, minus), (prefix, before), (suffix, after) = groups
    out = (("x_count", w.count("x")),
           (balance, sum(map(w.count, plus)) - sum(map(w.count, minus))))
    first = w.find("x")
    if first < 0:
        return out
    head, tail = w[:first], w[w.rfind("x") + 1:]
    return out + ((prefix, sum(map(head.count, before))),
                  (suffix, sum(map(tail.count, after))))


def separating_quantity(u: str, v: str, preset: str) -> str | None:
    """Name of the first conserved quantity that differs between u and v, if any.

    The two keys are compared position by position: their names line up
    unless x_count differs, and x_count comes first, so a quantity defined
    for only one of the two words (prefix/suffix statistics on an x-free
    word) never separates them.
    """
    for (name, a), (_, b) in zip(conserved_vector(u, preset),
                                 conserved_vector(v, preset)):
        if a != b:
            return name
    return None
