"""Words over small fixed alphabets: single applications of defining
relations, plus the counting statistics that stay constant under each
preset's relations (and therefore tell elements apart)."""

from __future__ import annotations

from dataclasses import dataclass, field

# Alphabets of the built-in presentations.  Order matters for q/fn: it is the
# termination order a < c < e < b < x used by the rewriting systems.
ALPHABETS = {
    "q": "acebx",
    "s": "acebx",
    "fn": "acebx",
    "sm": "acebx",
    "t": "abcdex",
    "c": "abcdxyuv",
}


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


def letter_counts(w: str, alphabet: str | None = None) -> dict[str, int]:
    """Count letters of w.  With an alphabet, absent letters appear with count 0."""
    counts: dict[str, int] = {}
    if alphabet is not None:
        for ch in alphabet:
            counts[ch] = 0
    for ch in w:
        counts[ch] = counts.get(ch, 0) + 1
    return counts


def block_count_s(w: str) -> int:
    """Number of maximal subwords of the form x, b^q or xb^q.

    Within a maximal run over {x,b} every x starts a new block, plus one block
    for a leading b-run.  Defined only over the alphabet {a,b,c,e,x}.
    """
    bad = set(w) - set("abcex")
    if bad:
        raise ValueError(f"block_count_s needs alphabet abcex, got letter(s) {sorted(bad)}")
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


@dataclass(frozen=True)
class InvariantVector:
    letter_counts: dict[str, int]
    block_count: int | None  # None when the word is not over {a,b,c,e,x}
    e_reduced_length: int
    derived_quantities: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "letter_counts": dict(self.letter_counts),
            "block_count": self.block_count,
            "e_reduced_length": self.e_reduced_length,
            "derived_quantities": dict(self.derived_quantities),
        }


def _prefix_count(w: str, letters: str) -> int | None:
    """Count of `letters` before the first x; None if w has no x."""
    i = w.find("x")
    if i < 0:
        return None
    return sum(w[:i].count(ch) for ch in letters)


def _suffix_count(w: str, letters: str) -> int | None:
    """Count of `letters` after the last x; None if w has no x."""
    i = w.rfind("x")
    if i < 0:
        return None
    return sum(w[i + 1:].count(ch) for ch in letters)


def _quantities_qs(w: str) -> dict[str, int]:
    c = letter_counts(w)
    out = {
        "x_count": c.get("x", 0),
        "diff_a_minus_bc": c.get("a", 0) - c.get("b", 0) - c.get("c", 0),
    }
    # Statistics of the region before the first / after the last x; these are
    # also preserved by every q/s relation but only defined when x occurs.
    p = _prefix_count(w, "a")
    if p is not None:
        out["prefix_a_count"] = p
    s = _suffix_count(w, "ae")
    if s is not None:
        out["suffix_ae_count"] = s
    return out


def _quantities_t(w: str) -> dict[str, int]:
    c = letter_counts(w)
    out = {
        "x_count": c.get("x", 0),
        "diff_ad_minus_bc": c.get("a", 0) + c.get("d", 0) - c.get("b", 0) - c.get("c", 0),
    }
    p = _prefix_count(w, "ad")
    if p is not None:
        out["prefix_ad_count"] = p
    s = _suffix_count(w, "ade")
    if s is not None:
        out["suffix_ade_count"] = s
    return out


_QUANTITIES = {
    "q": _quantities_qs,
    "s": _quantities_qs,
    "t": _quantities_t,
    "c": lambda w: {"length": len(w)},
}


def conserved_vector(w: str, preset: str) -> InvariantVector:
    """All statistics of w that single applications of the preset's relations preserve.

    Presets: q, s (x-count and #a-(#b+#c), plus prefix/suffix counts around the
    x's); t (x-count and (#a+#d)-(#b+#c), plus the analogous prefix/suffix
    counts); c (word length).
    """
    key = preset.lower()
    if key not in _QUANTITIES:
        raise ValueError(f"no conserved-quantity registry for preset {preset!r}")
    alphabet = ALPHABETS[key]
    bad = set(w) - set(alphabet)
    if bad:
        raise ValueError(f"word {w!r} not over the {preset} alphabet {alphabet!r}")
    block = block_count_s(w) if set(w) <= set("abcex") else None
    return InvariantVector(
        letter_counts=letter_counts(w, alphabet),
        block_count=block,
        e_reduced_length=e_reduced_length(w),
        derived_quantities=_QUANTITIES[key](w),
    )


def separating_quantity(u: str, v: str, preset: str) -> str | None:
    """Name of the first conserved quantity that differs between u and v, if any.

    Quantities defined for only one of the two words (prefix/suffix statistics
    on an x-free word) never separate.
    """
    qu = conserved_vector(u, preset).derived_quantities
    qv = conserved_vector(v, preset).derived_quantities
    for name, val in qu.items():
        if name in qv and qv[name] != val:
            return name
    return None


def shortlex_key(w: str, order: str) -> tuple:
    """Sort key for the shortlex order induced by the letter order string."""
    rank = {ch: i for i, ch in enumerate(order)}
    return (len(w), tuple(rank[ch] for ch in w))
