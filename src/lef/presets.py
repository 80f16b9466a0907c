"""Built-in presentations, rewriting systems, and partial tables, and the one
place a preset id is resolved.

Preset ids: 'q', 's', 't', 'c', 'sm:<m>' are finitely presented semigroups;
'fn:<n>' is the parametric family of finite quotients (as a rewriting system
with a zero adjoined implicitly: words with too many mixed blocks collapse);
'bicyclic4' is a four-element fragment of the bicyclic monoid given as a
partial multiplication table.

What an id has is read from here: ``preset_presentation`` (defining
relations), ``preset_letters`` (the letters of its words), ``preset_system``
(a confluent system) and ``has_normal_forms`` (computable normal forms).
The other modules keep no id lists or alphabets of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fsg import PartialTable
from .rewrite import RewriteSystem, make_schema

# termination order for the rewriting presets, smallest first; its letters
# are their alphabet
REWRITE_ORDER = "acebx"


@dataclass(frozen=True)
class Presentation:
    name: str
    generators: tuple[str, ...]
    relations: tuple[tuple[str, str], ...]

    def as_json(self) -> dict:
        return {
            "generators": list(self.generators),
            "relations": [[u, v] for u, v in self.relations],
        }


PRESENTATIONS: dict[str, Presentation] = {
    "q": Presentation(
        name="q",
        generators=("a", "b", "c", "e", "x"),
        relations=(
            ("xb", "cx"), ("ac", "ca"), ("ae", "ea"), ("ec", "ce"),
            ("xca", "xe"), ("aex", "ax"),
        ),
    ),
    "s": Presentation(
        name="s",
        generators=("a", "b", "c", "e", "x"),
        relations=(
            ("axb", "acx"), ("ac", "ca"), ("xca", "xe"),
            ("ea", "ae"), ("aex", "ax"), ("xexb", "bxex"),
        ),
    ),
    "t": Presentation(
        name="t",
        generators=("a", "b", "c", "d", "e", "x"),
        relations=(
            ("axb", "acx"), ("ac", "cd"), ("xcd", "xe"),
            ("ed", "ae"), ("aex", "ax"), ("xexb", "bxex"),
        ),
    ),
    "c": Presentation(
        name="c",
        generators=("a", "b", "c", "d", "x", "y", "u", "v"),
        relations=(("ax", "by"), ("cx", "dy"), ("au", "bv")),
    ),
}
_FIXED_LETTERS = {pid: "".join(p.generators) for pid, p in PRESENTATIONS.items()}


def sm_presentation(m: int) -> Presentation:
    """One generator of index 1 and period m-1 among five free generators."""
    if m < 2:
        raise ValueError("sm preset needs m >= 2")
    return Presentation(
        name=f"sm:{m}",
        generators=("a", "b", "c", "e", "x"),
        relations=(("e" * m, "e"),),
    )


# ---------------------------------------------------------------------------
# convergent rewriting system for preset q

Q_SYSTEM = RewriteSystem(
    name="q",
    alphabet=REWRITE_ORDER,
    order=REWRITE_ORDER,
    assert_decrease=True,
    schemas=(
        make_schema("q1a", "x b", "c x"),
        make_schema("q1b", "c a", "a c"),
        make_schema("q1c", "e a", "a e"),
        make_schema("q1d", "e c", "c e"),
        make_schema("q2", "x a^alpha c^beta", "x a^alpha-beta e^beta",
                    ["0<beta<=alpha"]),
        make_schema("q3", "x a^alpha c^beta", "x c^beta-alpha e^alpha",
                    ["0<alpha<beta"]),
        make_schema("q4", "a^alpha c^beta e^gamma x", "a^alpha c^beta x",
                    ["0<alpha", "0<=beta", "0<gamma"]),
        make_schema("q5", "x e^gamma x", "x e x", ["1<gamma"]),
        make_schema("q6", "x c^beta e^gamma x", "x c^beta e x",
                    ["0<beta", "1<gamma"]),
        make_schema("q7", "x a^alpha c^beta e^gamma x", "x a^alpha-beta x",
                    ["0<=beta<alpha", "0<=gamma", "not_both_zero(beta,gamma)"]),
        make_schema("q8", "x a^alpha c^beta e^gamma x", "x e x",
                    ["0<alpha", "alpha=beta", "0<=gamma"]),
        make_schema("q9", "x a^alpha c^beta e^gamma x", "x c^beta-alpha e x",
                    ["0<alpha<beta", "0<=gamma"]),
    ),
)


def build_fn_system(n: int) -> RewriteSystem:
    """Convergent system for the n-th finite quotient (without its zero; the
    zero is represented separately by words whose block count exceeds n)."""
    if n < 1:
        raise ValueError("fn preset needs n >= 1")
    schemas = (
        make_schema("f1a", "x b", "c x"),
        make_schema("f1b", "c a", "a c"),
        make_schema("f1c", "e a", "a e"),
        make_schema("f1d", "e c", "c e"),
        make_schema("f2a", "a^2n+1", "a"),
        make_schema("f2b", "b^2n+1", "b"),
        make_schema("f2c", "c^2n+1", "c"),
        make_schema("f2d", "e^2n+1", "e"),
        make_schema("f3", "x a^alpha c^beta", "x a^alpha-beta e^beta",
                    ["0<beta<=alpha<=2n"]),
        make_schema("f4", "x a^alpha c^beta", "x c^beta-alpha e^alpha",
                    ["0<alpha<beta<=2n"]),
        make_schema("f5", "x a^alpha c^beta e^gamma",
                    "x c^2n+beta-alpha e^alpha+gamma-2n",
                    ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n",
                     "alpha+gamma>2n", "gamma+beta<=2n"]),
        make_schema("f6", "x a^alpha c^beta e^gamma",
                    "x a^2n+alpha-beta e^beta+gamma-2n",
                    ["0<=alpha<=2n", "0<beta<=2n", "0<gamma<=2n",
                     "alpha+gamma<=2n", "gamma+beta>2n"]),
        make_schema("f7", "x a^alpha c^beta e^gamma",
                    "x a^alpha-beta e^beta+gamma-2n",
                    ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n",
                     "alpha+gamma>2n", "gamma+beta>2n", "alpha>beta"]),
        make_schema("f8", "x a^alpha c^beta e^gamma", "x e^beta+gamma-2n",
                    ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n",
                     "alpha+gamma>2n", "gamma+beta>2n", "alpha=beta"]),
        make_schema("f9", "x a^alpha c^beta e^gamma",
                    "x c^beta-alpha e^alpha+gamma-2n",
                    ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n",
                     "alpha+gamma>2n", "gamma+beta>2n", "beta>alpha"]),
        make_schema("f10", "a^alpha c^beta e^gamma x", "a^alpha c^beta x",
                    ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n"]),
        make_schema("f11", "x e^gamma x", "x e x", ["1<gamma<=2n"]),
        make_schema("f12", "x c^beta e^gamma x", "x c^beta e x",
                    ["0<beta<n", "1<gamma<=2n"]),
        make_schema("f13a", "x c^beta e^gamma x", "x a^2n-beta x",
                    ["n<=beta<2n", "0<gamma<=2n"]),
        make_schema("f13b", "x c^2n e^gamma x", "x e x", ["0<gamma<=2n"]),
        make_schema("f14", "x a^alpha c^beta e^gamma x", "x a^alpha-beta x",
                    ["0<alpha-beta<=n", "0<alpha<=2n", "0<=beta<=2n",
                     "0<=gamma<=2n", "not_both_zero(beta,gamma)"]),
        make_schema("f15", "x a^alpha c^beta e^gamma x", "x c^2n-alpha+beta e x",
                    ["n<alpha-beta<=2n", "0<alpha<=2n", "0<=beta<=2n",
                     "0<=gamma<=2n"]),
        make_schema("f16", "x a^alpha c^beta e^gamma x", "x e x",
                    ["0<alpha<=2n", "alpha=beta", "0<=gamma<=2n"]),
        make_schema("f17", "x a^alpha c^beta e^gamma x", "x c^beta-alpha e x",
                    ["0<beta-alpha<n", "0<alpha<=2n", "0<beta<=2n",
                     "0<=gamma<=2n"]),
        make_schema("f18", "x a^alpha c^beta e^gamma x", "x a^2n-beta+alpha x",
                    ["n<=beta-alpha<2n", "0<alpha<=2n", "0<beta<=2n",
                     "0<=gamma<=2n"]),
    )
    return RewriteSystem(
        name=f"fn:{n}",
        alphabet=REWRITE_ORDER,
        order=REWRITE_ORDER,
        parameter_n=n,
        assert_decrease=True,
        schemas=schemas,
    )


# ---------------------------------------------------------------------------
# partial tables


def bicyclic4_table() -> PartialTable:
    """Elements 1, a, b, ba of the monoid with ab=1; products kept only when
    they land back in that four-element set."""
    forms = {"1": (0, 0), "a": (0, 1), "b": (1, 0), "ba": (1, 1)}
    names = {v: k for k, v in forms.items()}
    products = {}
    for s, (i, j) in forms.items():
        for t, (k, l) in forms.items():
            # (b^i a^j)(b^k a^l) with the middle a^j b^k cancelling via ab=1
            if j >= k:
                prod = (i, j - k + l)
            else:
                prod = (i + k - j, l)
            if prod in names:
                products[(s, t)] = names[prod]
    return PartialTable(elements=tuple(forms), products=products)


def family_parameter(preset_id: str) -> int:
    """n of 'fn:<n>', m of 'sm:<m>'; a ValueError names the id and its form."""
    family, _, value = preset_id.partition(":")
    try:
        return int(value)
    except ValueError:
        letter = family[-1]  # fn:<n>, sm:<m>
        raise ValueError(f"preset {preset_id!r} is not of the form "
                         f"{family}:<{letter}> with an integer {letter}") from None


def preset_presentation(preset_id: str) -> Presentation:
    """Look up a preset's presentation by id; sm presets take the exponent
    after a colon.  fn:<n> (a rewriting system) and bicyclic4 (a partial
    table) have no defining relations."""
    key = preset_id.lower()
    if key in PRESENTATIONS:
        return PRESENTATIONS[key]
    if key.startswith("sm:"):
        return sm_presentation(family_parameter(key))
    if key.startswith("fn:") or key == "bicyclic4":
        raise ValueError(f"preset {preset_id!r} has no defining relations")
    raise KeyError(f"unknown preset {preset_id!r}")


def preset_letters(preset_id: str) -> str:
    """The letters of a word preset: its presentation's generators, and for
    fn:<n> its system's alphabet; the fixed presets' are joined once, at import."""
    if preset_id in _FIXED_LETTERS:
        return _FIXED_LETTERS[preset_id]
    return REWRITE_ORDER if preset_id.lower().startswith("fn:") else \
        "".join(preset_presentation(preset_id).generators)


def preset_system(preset_id: str) -> RewriteSystem:
    """The rewriting system attached to a preset ('q' or 'fn:<n>')."""
    key = preset_id.lower()
    if key == "q":
        return Q_SYSTEM
    if key.startswith("fn:"):
        return build_fn_system(family_parameter(key))
    raise KeyError(f"no rewriting system for preset {preset_id!r}")


def has_normal_forms(preset_id: str) -> bool:
    """Whether the preset's words have computable normal forms: q and fn:<n>
    through a confluent system, sm:<m> through canonical forms."""
    key = preset_id.lower()
    return key == "q" or key.startswith(("fn:", "sm:"))


PRESET_IDS = (*PRESENTATIONS, "sm:<m>", "fn:<n>", "bicyclic4")
