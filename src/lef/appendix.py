"""Joint-word tables for the two built-in rewriting systems, with a checker.

Each row records an overlap between two rule schemas on a shared word ``t``:
``t1`` is the result of one application of the first rule, ``t2`` the result of
one application of the second rule, and ``t0`` a common word both sides reduce
to.  Table ``A`` concerns the fixed five-generator system Q; table ``B``
concerns the parametric family F_n and its cells mention the parameter ``n``.

``verify_appendix`` makes the tables executable: for every admissible exponent
assignment up to a bound it renders the four words and verifies that

* ``t1`` is reachable from ``t`` by a single step of the first rule,
* ``t2`` is reachable from ``t`` by a single step of the second rule,
* ``t1``, ``t2`` and ``t0`` all reduce to one common normal form.

Rows assert joinability only: ``t0`` itself need not be irreducible, and rows
whose side conditions have no solutions at a given ``n`` are reported as
not instantiable rather than failed.  Some rows carry a dummy variable (a
match length that does not influence the rendered words); identical rendered
word tuples are deduplicated before checking.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

from .presets import Q_SYSTEM, build_fn_system
from .rewrite import (_rule_results, bounded_assignments, compile_atoms,
                      compile_conditions, normal_form, parse_condition, parse_pattern,
                      render_atoms)

__all__ = [
    "JointRow",
    "RowReport",
    "AppendixReport",
    "A_ROWS",
    "B_ROWS",
    "verify_appendix",
]


@dataclass(frozen=True)
class JointRow:
    table: str
    index: int
    first_rule: str
    second_rule: str
    conditions: tuple[str, ...]
    t: str
    t1: str
    t2: str
    t0: str

    @property
    def label(self) -> str:
        return f"{self.table}{self.index}"

    @functools.cached_property
    def parsed(self) -> tuple[tuple, tuple]:
        """The patterns t, t1, t2, t0 and the conditions, parsed on first use."""
        return (tuple(parse_pattern(p) for p in (self.t, self.t1, self.t2, self.t0)),
                tuple(parse_condition(c) for c in self.conditions))

    @property
    def variables(self) -> tuple[str, ...]:
        patterns, conditions = self.parsed
        names = [name for atoms in patterns for _, expr in atoms
                 for name in expr.variables]
        names += [name for cond in conditions for name in cond.variables]
        return tuple(dict.fromkeys(names))


def _rows(table: str, data: list[tuple]) -> tuple[JointRow, ...]:
    rows = []
    for i, (first, second, conds, t, t1, t2, t0) in enumerate(data, start=1):
        rows.append(JointRow(table, i, first, second, tuple(conds), t, t1, t2, t0))
    return tuple(rows)


# --------------------------------------------------------------------------
# Table A: overlaps between the rules of Q.

A_ROWS = _rows("A", [
    # first rule q1a: x b -> c x
    ("q1a", "q4", ["0<alpha", "0<=beta", "0<gamma"],
     "a^alpha c^beta e^gamma x b", "a^alpha c^beta e^gamma c x",
     "a^alpha c^beta x b", "a^alpha c^beta+1 x"),
    ("q1a", "q5", ["1<gamma"],
     "x e^gamma x b", "x e^gamma c x", "x e x b", "x c e x"),
    ("q1a", "q6", ["0<beta", "1<gamma"],
     "x c^beta e^gamma x b", "x c^beta e^gamma c x", "x c^beta e x b", "x c^beta+1 e x"),
    ("q1a", "q7", ["alpha>beta+1", "0<=beta", "0<=gamma", "not_both_zero(beta,gamma)"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x a^alpha-beta x b", "x a^alpha-beta-1 x"),
    ("q1a", "q7", ["alpha=beta+1", "0<=beta", "0<=gamma", "not_both_zero(beta,gamma)"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x a x b", "x e x"),
    ("q1a", "q8", ["0<alpha", "alpha=beta", "0<=gamma"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x e x b", "x c e x"),
    ("q1a", "q9", ["0<alpha<beta", "0<=gamma"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x c^beta-alpha e x b", "x c^beta-alpha+1 e x"),
    # first rule q1b: c a -> a c
    ("q1b", "q1d", [],
     "e c a", "e a c", "c e a", "a c e"),
    ("q1b", "q2", ["0<beta<=alpha"],
     "x a^alpha c^beta a", "x a^alpha c^beta-1 a c",
     "x a^alpha-beta e^beta a", "x a^alpha-beta+1 e^beta"),
    ("q1b", "q3", ["0<alpha<beta"],
     "x a^alpha c^beta a", "x a^alpha c^beta-1 a c",
     "x c^beta-alpha e^alpha a", "x c^beta-alpha-1 e^alpha+1"),
    ("q1b", "q4", ["0<alpha", "0<=beta", "0<gamma"],
     "c a^alpha c^beta e^gamma x", "a c a^alpha-1 c^beta e^gamma x",
     "c a^alpha c^beta x", "a^alpha c^beta+1 x"),
    # first rule q1c: e a -> a e
    ("q1c", "q4", ["0<alpha", "0<=beta", "0<gamma"],
     "e a^alpha c^beta e^gamma x", "a e a^alpha-1 c^beta e^gamma x",
     "e a^alpha c^beta x", "a^alpha c^beta x"),
    # first rule q2: x a^alpha c^beta -> x a^alpha-beta e^beta  (0<beta<=alpha)
    ("q2", "q2", ["0<betap<beta<=alpha"],
     "x a^alpha c^beta", "x a^alpha-beta e^beta",
     "x a^alpha-betap e^betap c^beta-betap", "x a^alpha-beta e^beta"),
    ("q2", "q3", ["0<beta<=alpha", "betap>alpha"],
     "x a^alpha c^betap", "x a^alpha-beta e^beta c^betap-beta",
     "x c^betap-alpha e^alpha", "x c^betap-alpha e^alpha"),
    ("q2", "q4", ["0<beta<alpha", "0<gamma"],
     "x a^alpha c^beta e^gamma x", "x a^alpha-beta e^beta+gamma x",
     "x a^alpha c^beta x", "x a^alpha-beta x"),
    ("q2", "q4", ["0<alpha", "alpha=beta", "0<gamma"],
     "x a^alpha c^beta e^gamma x", "x e^beta+gamma x",
     "x a^alpha c^beta x", "x e x"),
    ("q2", "q7", ["0<beta<=betap<alpha", "0<=gamma"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x a^alpha-betap x", "x a^alpha-betap x"),
    ("q2", "q8", ["0<beta<=betap", "betap=alpha", "0<=gamma"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x e x", "x e x"),
    ("q2", "q9", ["0<beta<=alpha<betap", "0<=gamma"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x c^betap-alpha e x", "x c^betap-alpha e x"),
    # first rule q3: x a^alpha c^beta -> x c^beta-alpha e^alpha  (0<alpha<beta)
    ("q3", "q3", ["0<alpha<beta<betap"],
     "x a^alpha c^betap", "x c^beta-alpha e^alpha c^betap-beta",
     "x c^betap-alpha e^alpha", "x c^betap-alpha e^alpha"),
    ("q3", "q4", ["0<alpha<beta", "0<gamma"],
     "x a^alpha c^beta e^gamma x", "x c^beta-alpha e^alpha+gamma x",
     "x a^alpha c^beta x", "x c^beta-alpha e x"),
    ("q3", "q9", ["0<alpha<beta<=betap", "0<=gamma"],
     "x a^alpha c^betap e^gamma x", "x c^beta-alpha e^alpha c^betap-beta e^gamma x",
     "x c^betap-alpha e x", "x c^betap-alpha e x"),
    # first rule q4: a^alpha c^beta e^gamma x -> a^alpha c^beta x
    ("q4", "q4", ["0<alpha<alphap", "0<=beta", "0<gamma"],
     "a^alphap c^beta e^gamma x", "a^alphap c^beta x",
     "a^alphap c^beta x", "a^alphap c^beta x"),
    ("q4", "q7", ["0<alphap", "0<=beta<alphap", "0<gamma"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x a^alphap-beta x", "x a^alphap-beta x"),
    ("q4", "q8", ["0<alphap", "alphap=beta", "0<gamma"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x e x", "x e x"),
    ("q4", "q9", ["0<alphap<beta", "0<gamma"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x c^beta-alphap e x", "x c^beta-alphap e x"),
])


# --------------------------------------------------------------------------
# Table B: overlaps between the rules of F_n.  Exponent variables range over
# 0..max(max_exp, 2n); the side conditions cut each row down to the admissible
# region.  Variables that only fix a match length (e.g. gamma in the rows whose
# word patterns mention gammap alone) are dummies kept for fidelity to the
# side-condition bookkeeping; duplicates they generate are removed.

B_ROWS = _rows("B", [
    # first rule f1a: x b -> c x
    ("f1a", "f2b", [],
     "x b^2n+1", "c x b^2n", "x b", "c x"),
    ("f1a", "f10", ["0<alpha<=2n", "0<=beta", "beta<2n", "0<gamma<=2n"],
     "a^alpha c^beta e^gamma x b", "a^alpha c^beta e^gamma c x",
     "a^alpha c^beta x b", "a^alpha c^beta+1 x"),
    ("f1a", "f10", ["0<alpha<=2n", "beta=2n", "0<gamma<=2n"],
     "a^alpha c^beta e^gamma x b", "a^alpha c^beta e^gamma c x",
     "a^alpha c^beta x b", "a^alpha c x"),
    ("f1a", "f11", ["1<gamma<=2n"],
     "x e^gamma x b", "x e^gamma c x", "x e x b", "x c e x"),
    ("f1a", "f12", ["0<beta", "beta<n-1", "1<gamma<=2n"],
     "x c^beta e^gamma x b", "x c^beta e^gamma c x", "x c^beta e x b", "x c^beta+1 e x"),
    ("f1a", "f12", ["0<beta", "beta=n-1", "1<gamma<=2n"],
     "x c^beta e^gamma x b", "x c^beta e^gamma c x", "x c^beta e x b", "x a^n x"),
    ("f1a", "f13a", ["n<=beta<2n-1", "0<gamma<=2n"],
     "x c^beta e^gamma x b", "x c^beta e^gamma c x", "x a^2n-beta x b", "x a^2n-beta-1 x"),
    ("f1a", "f13a", ["beta=2n-1", "n<=beta", "0<gamma<=2n"],
     "x c^beta e^gamma x b", "x c^beta e^gamma c x", "x a x b", "x e x"),
    ("f1a", "f13b", ["beta=2n", "0<gamma<=2n"],
     "x c^beta e^gamma x b", "x c^beta e^gamma c x", "x e x b", "x c e x"),
    ("f1a", "f14", ["1<alpha-beta<=n", "0<alpha<=2n", "0<=beta<=2n", "0<=gamma<=2n",
                    "not_both_zero(beta,gamma)"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x a^alpha-beta x b", "x a^alpha-beta-1 x"),
    ("f1a", "f14", ["alpha-beta=1", "0<alpha<=2n", "0<=beta<=2n", "0<=gamma<=2n",
                    "not_both_zero(beta,gamma)"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x a x b", "x e x"),
    ("f1a", "f15", ["alpha-beta=n+1", "0<alpha<=2n", "0<=beta<=2n", "0<=gamma<=2n"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x c^n-1 e x b", "x a^n x"),
    ("f1a", "f15", ["n+1<alpha-beta<=2n", "0<alpha<=2n", "0<=beta<=2n", "0<=gamma<=2n"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x c^2n-alpha+beta e x b", "x c^2n-alpha+beta+1 e x"),
    ("f1a", "f16", ["0<alpha<=2n", "alpha=beta", "0<=gamma<=2n"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x e x b", "x c e x"),
    ("f1a", "f17", ["0<beta-alpha<n-1", "0<alpha<=2n", "0<beta<=2n", "0<=gamma<=2n"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x c^beta-alpha e x b", "x c^beta-alpha+1 e x"),
    ("f1a", "f17", ["beta-alpha=n-1", "0<beta-alpha", "0<alpha<=2n", "0<beta<=2n",
                    "0<=gamma<=2n"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x c^beta-alpha e x b", "x a^n x"),
    ("f1a", "f18", ["n<=beta-alpha<2n-1", "0<alpha<=2n", "0<beta<=2n", "0<=gamma<=2n"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x a^2n-beta+alpha x b", "x a^2n-beta+alpha-1 x"),
    ("f1a", "f18", ["beta-alpha=2n-1", "0<alpha<=2n", "0<beta<=2n", "0<=gamma<=2n"],
     "x a^alpha c^beta e^gamma x b", "x a^alpha c^beta e^gamma c x",
     "x a x b", "x e x"),
    # first rule f1b: c a -> a c
    ("f1b", "f1d", [],
     "e c a", "e a c", "c e a", "a c e"),
    ("f1b", "f2a", [],
     "c a^2n+1", "a c a^2n", "c a", "a c"),
    ("f1b", "f2c", [],
     "c^2n+1 a", "c^2n a c", "c a", "a c"),
    ("f1b", "f3", ["0<beta<=alpha<2n"],
     "x a^alpha c^beta a", "x a^alpha c^beta-1 a c",
     "x a^alpha-beta e^beta a", "x a^alpha-beta+1 e^beta"),
    ("f1b", "f3", ["1<beta<=alpha", "alpha=2n"],
     "x a^alpha c^beta a", "x a^alpha c^beta-1 a c",
     "x a^2n-beta e^beta a", "x a^2n-beta+1 e^beta"),
    ("f1b", "f3", ["beta=1", "alpha=2n"],
     "x a^alpha c^beta a", "x a^alpha c^beta-1 a c",
     "x a^2n-1 e a", "x e"),
    ("f1b", "f4", ["0<alpha<beta<=2n"],
     "x a^alpha c^beta a", "x a^alpha c^beta-1 a c",
     "x c^beta-alpha e^alpha a", "x c^beta-alpha-1 e^alpha+1"),
    ("f1b", "f10", ["0<alpha<=2n", "0<=beta", "beta<2n", "0<gamma<=2n"],
     "c a^alpha c^beta e^gamma x", "a c a^alpha-1 c^beta e^gamma x",
     "c a^alpha c^beta x", "a^alpha c^beta+1 x"),
    ("f1b", "f10", ["0<alpha<=2n", "beta=2n", "0<gamma<=2n"],
     "c a^alpha c^beta e^gamma x", "a c a^alpha-1 c^beta e^gamma x",
     "c a^alpha c^beta x", "a^alpha c x"),
    # first rule f1c: e a -> a e
    ("f1c", "f2a", [],
     "e a^2n+1", "a e a^2n", "e a", "a e"),
    ("f1c", "f2d", [],
     "e^2n+1 a", "e^2n a e", "e a", "a e"),
    ("f1c", "f10", ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n"],
     "e a^alpha c^beta e^gamma x", "a e a^alpha-1 c^beta e^gamma x",
     "e a^alpha c^beta x", "a^alpha c^beta x"),
    ("f1c", "f5", ["alpha=2n", "0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n",
                   "alpha+gamma>2n", "gamma+beta<=2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x c^beta e^gamma a", "x a c^beta e^gamma"),
    ("f1c", "f5", ["alpha<2n", "0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n",
                   "alpha+gamma>2n", "gamma+beta<=2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x c^2n-alpha+beta e^alpha+gamma-2n a", "x c^2n-alpha+beta-1 e^alpha+gamma+1-2n"),
    ("f1c", "f6", ["beta-alpha=1", "alpha+gamma=2n", "0<=alpha<=2n", "0<beta<=2n",
                   "0<gamma<=2n", "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x a^2n-1 e a", "x e"),
    ("f1c", "f6", ["beta-alpha>1", "alpha+gamma=2n", "0<=alpha<=2n", "0<beta<=2n",
                   "0<gamma<=2n", "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x a^2n+alpha-beta e^beta+gamma-2n a", "x c^beta-alpha-1 e"),
    ("f1c", "f6", ["beta-alpha>1", "alpha+gamma<2n", "0<=alpha<=2n", "0<beta<=2n",
                   "0<gamma<=2n", "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x a^2n+alpha-beta e^beta+gamma-2n a", "x a^2n+alpha-beta+1 e^beta+gamma-2n"),
    ("f1c", "f7", ["alpha=2n", "gamma<2n", "0<beta<=2n", "0<gamma", "beta+gamma>2n",
                   "alpha>beta"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x a^2n-beta e^gamma+beta-2n a", "x a^2n-beta+1 e^gamma+beta-2n"),
    ("f1c", "f7", ["alpha=2n", "gamma=2n", "0<beta", "alpha>beta"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x a^2n-beta e^beta a", "x c^beta-1 e"),
    ("f1c", "f7", ["alpha<2n", "0<beta<alpha", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x a^alpha-beta e^gamma+beta-2n a", "x a^alpha-beta+1 e^gamma+beta-2n"),
    ("f1c", "f8", ["alpha=2n", "beta=alpha", "gamma=2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x e^2n a", "x c^2n-1 e"),
    ("f1c", "f8", ["alpha=2n", "beta=alpha", "gamma<2n", "0<gamma"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x e^gamma a", "x a e^gamma"),
    ("f1c", "f8", ["alpha<2n", "alpha=beta", "0<alpha", "0<gamma<=2n", "alpha+gamma>2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x e^beta+gamma-2n a", "x a e^beta+gamma-2n"),
    ("f1c", "f9", ["beta-alpha=1", "0<alpha", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x c e^alpha+gamma-2n a", "x e^alpha+1+gamma-2n"),
    ("f1c", "f9", ["beta-alpha>1", "0<alpha", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n"],
     "x a^alpha c^beta e^gamma a", "x a^alpha c^beta e^gamma-1 a e",
     "x c^beta-alpha e^alpha+gamma-2n a", "x c^beta-alpha-1 e^alpha+1+gamma-2n"),
    # first rule f1d: e c -> c e
    ("f1d", "f2c", [],
     "e c^2n+1", "c e c^2n", "e c", "c e"),
    ("f1d", "f2d", [],
     "e^2n+1 c", "e^2n c e", "e c", "c e"),
    ("f1d", "f5", ["alpha-beta=1", "beta+gamma=2n", "0<alpha<=2n", "0<=beta", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x c^2n-1 e c", "x e"),
    ("f1d", "f5", ["alpha-beta>1", "beta+gamma=2n", "0<alpha<=2n", "0<=beta", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x c^2n-alpha+beta e^alpha+gamma-2n c", "x a^alpha-beta-1 e"),
    ("f1d", "f5", ["alpha-beta>1", "beta+gamma<2n", "alpha+gamma>2n", "0<alpha<=2n",
                   "0<=beta", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x c^2n-alpha+beta e^alpha+gamma-2n c", "x c^2n-alpha+beta+1 e^alpha+gamma-2n"),
    ("f1d", "f6", ["beta=2n", "0<=alpha<=2n", "0<gamma<=2n", "alpha+gamma<=2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x a^alpha e^gamma c", "x a^alpha c e^gamma"),
    ("f1d", "f6", ["beta<2n", "0<beta", "0<gamma<=2n", "0<=alpha", "alpha+gamma<=2n",
                   "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x a^2n+alpha-beta e^beta+gamma-2n c", "x a^2n+alpha-beta-1 e^beta+gamma+1-2n"),
    ("f1d", "f7", ["alpha-beta=1", "0<beta", "0<gamma<=2n", "alpha<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x a e^beta+gamma-2n c", "x e^beta+gamma-2n+1"),
    ("f1d", "f7", ["alpha-beta>1", "0<beta", "0<gamma<=2n", "alpha<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x a^alpha-beta e^beta+gamma-2n c", "x a^alpha-beta-1 e^beta+gamma-2n+1"),
    ("f1d", "f8", ["alpha=beta", "beta=2n", "gamma=2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x e^2n c", "x a^2n-1 e"),
    ("f1d", "f8", ["alpha=beta", "beta=2n", "gamma<2n", "0<gamma"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x e^gamma c", "x c e^gamma"),
    ("f1d", "f8", ["alpha=beta", "beta<2n", "0<alpha", "0<gamma<=2n", "beta+gamma>2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x e^gamma+beta-2n c", "x c e^gamma+beta-2n"),
    ("f1d", "f9", ["beta=2n", "gamma=2n", "0<alpha<beta"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x c^2n-alpha e^alpha c", "x a^alpha-1 e"),
    ("f1d", "f9", ["beta=2n", "gamma<2n", "0<gamma", "alpha+gamma>2n", "0<alpha<beta"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x c^2n-alpha e^alpha+gamma-2n c", "x c^2n-alpha+1 e^alpha+gamma-2n"),
    ("f1d", "f9", ["beta<2n", "0<alpha<beta", "0<gamma<=2n", "alpha+gamma>2n"],
     "x a^alpha c^beta e^gamma c", "x a^alpha c^beta e^gamma-1 c e",
     "x c^beta-alpha e^gamma+alpha-2n c", "x c^beta-alpha+1 e^alpha+gamma-2n"),
    # first rule f2a: a^2n+1 -> a
    ("f2a", "f10", ["0<alphap<=2n", "0<=beta<=2n", "0<gamma<=2n"],
     "a^2n+alphap c^beta e^gamma x", "a^alphap c^beta e^gamma x",
     "a^2n+alphap c^beta x", "a^alphap c^beta x"),
    # first rule f2c: c^2n+1 -> c
    ("f2c", "f3", ["0<betap<=beta<=alpha<=2n"],
     "x a^alpha c^betap+2n", "x a^alpha c^betap",
     "x a^alpha-beta e^beta c^betap+2n-beta", "x a^alpha-betap e^betap"),
    ("f2c", "f4", ["0<betap<=alpha<beta<=2n"],
     "x a^alpha c^betap+2n", "x a^alpha c^betap",
     "x c^beta-alpha e^alpha c^betap+2n-beta", "x a^alpha-betap e^betap"),
    ("f2c", "f4", ["0<alpha<betap<=beta<=2n"],
     "x a^alpha c^betap+2n", "x a^alpha c^betap",
     "x c^beta-alpha e^alpha c^betap+2n-beta", "x c^betap-alpha e^alpha"),
    # first rule f2d: e^2n+1 -> e
    ("f2d", "f5", ["0<gammap<=gamma", "0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n",
                   "alpha+gamma>2n", "beta+gamma<=2n", "alpha+gammap<=2n"],
     "x a^alpha c^beta e^gammap+2n", "x a^alpha c^beta e^gammap",
     "x c^2n+beta-alpha e^alpha+gammap", "x a^alpha-beta e^beta+gammap"),
    ("f2d", "f5", ["0<gammap<=gamma", "0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n",
                   "alpha+gamma>2n", "beta+gamma<=2n", "alpha+gammap>2n"],
     "x a^alpha c^beta e^gammap+2n", "x a^alpha c^beta e^gammap",
     "x c^2n+beta-alpha e^alpha+gammap", "x c^2n+beta-alpha e^alpha+gammap-2n"),
    ("f2d", "f6", ["0<gammap<=gamma", "0<=alpha<=2n", "0<beta<=2n", "0<gamma<=2n",
                   "alpha+gamma<=2n", "beta+gamma>2n", "beta+gammap<=2n"],
     "x a^alpha c^beta e^gammap+2n", "x a^alpha c^beta e^gammap",
     "x a^2n+alpha-beta e^beta+gammap", "x c^beta-alpha e^alpha+gammap"),
    ("f2d", "f6", ["0<gammap<=gamma", "0<=alpha<=2n", "0<beta<=2n", "0<gamma<=2n",
                   "alpha+gamma<=2n", "beta+gamma>2n", "beta+gammap>2n"],
     "x a^alpha c^beta e^gammap+2n", "x a^alpha c^beta e^gammap",
     "x a^2n+alpha-beta e^beta+gammap", "x a^2n+alpha-beta e^beta+gammap-2n"),
    ("f2d", "f7", ["0<gammap<=gamma", "0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n",
                   "alpha+gamma>2n", "beta+gamma>2n", "alpha>beta"],
     "x a^alpha c^beta e^gammap+2n", "x a^alpha c^beta e^gammap",
     "x a^alpha-beta e^beta+gammap", "x a^alpha-beta e^beta+gammap"),
    ("f2d", "f8", ["0<gammap<=gamma", "0<beta<=2n", "0<gamma<=2n", "alpha=beta",
                   "alpha+gamma>2n", "beta+gamma>2n"],
     "x a^alpha c^beta e^gammap+2n", "x a^alpha c^beta e^gammap",
     "x e^beta+gammap", "x e^beta+gammap"),
    ("f2d", "f9", ["0<gammap<=gamma", "0<alpha<beta<=2n", "0<gamma<=2n",
                   "alpha+gamma>2n", "beta+gamma>2n"],
     "x a^alpha c^beta e^gammap+2n", "x a^alpha c^beta e^gammap",
     "x c^beta-alpha e^alpha+gammap", "x c^beta-alpha e^alpha+gammap"),
    # first rule f3: x a^alpha c^beta -> x a^alpha-beta e^beta  (0<beta<=alpha<=2n)
    ("f3", "f3", ["0<betap<beta<=alpha<=2n"],
     "x a^alpha c^beta", "x a^alpha-beta e^beta",
     "x a^alpha-betap e^betap c^beta-betap", "x a^alpha-beta e^beta"),
    ("f3", "f4", ["0<beta<=alpha<betap<=2n"],
     "x a^alpha c^betap", "x a^alpha-beta e^beta c^betap-beta",
     "x c^betap-alpha e^alpha", "x c^betap-alpha e^alpha"),
    ("f3", "f5", ["0<beta<=alpha<=2n", "betap>=beta", "0<gamma<=2n", "gamma+alpha>2n",
                  "gamma+betap<2n"],
     "x a^alpha c^betap e^gamma", "x a^alpha-beta e^beta c^betap-beta e^gamma",
     "x c^2n+betap-alpha e^alpha+gamma-2n", "x c^2n+betap-alpha e^alpha+gamma-2n"),
    ("f3", "f6", ["0<beta<=alpha<=2n", "betap>beta", "betap<=2n", "0<gamma<=2n",
                  "gamma+alpha<=2n", "gamma+betap>2n"],
     "x a^alpha c^betap e^gamma", "x a^alpha-beta e^beta c^betap-beta e^gamma",
     "x a^2n+alpha-betap e^betap+gamma-2n", "x a^2n+alpha-betap e^betap+gamma-2n"),
    ("f3", "f7", ["0<beta<=betap<alpha<=2n", "0<gamma<=2n", "gamma+alpha>2n",
                  "gamma+betap>2n"],
     "x a^alpha c^betap e^gamma", "x a^alpha-beta e^beta c^betap-beta e^gamma",
     "x a^alpha-betap e^betap+gamma-2n", "x a^alpha-betap e^betap+gamma-2n"),
    ("f3", "f8", ["0<beta<=alpha<=2n", "alpha=betap", "0<gamma<=2n", "gamma+alpha>2n"],
     "x a^alpha c^betap e^gamma", "x a^alpha-beta e^beta c^betap-beta e^gamma",
     "x e^betap+gamma-2n", "x e^betap+gamma-2n"),
    ("f3", "f9", ["0<beta<=alpha<betap<=2n", "0<gamma<=2n", "gamma+alpha>2n"],
     "x a^alpha c^betap e^gamma", "x a^alpha-beta e^beta c^betap-beta e^gamma",
     "x c^betap-alpha e^alpha+gamma-2n", "x c^betap-alpha e^alpha+gamma-2n"),
    ("f3", "f10", ["alpha=beta", "0<beta<=alpha<=2n", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma x", "x e^beta+gamma x",
     "x a^alpha c^beta x", "x e x"),
    ("f3", "f10", ["0<alpha-beta<=n", "0<beta<=alpha<=2n", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma x", "x a^alpha-beta e^beta+gamma x",
     "x a^alpha c^beta x", "x a^alpha-beta x"),
    ("f3", "f10", ["n<alpha-beta<2n", "0<beta<=alpha<=2n", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma x", "x a^alpha-beta e^beta+gamma x",
     "x a^alpha c^beta x", "x c^2n-alpha+beta e x"),
    ("f3", "f14", ["0<beta<=betap", "0<alpha-betap<=n", "alpha<=2n", "0<=gamma<=2n"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x a^alpha-betap x", "x a^alpha-betap x"),
    ("f3", "f15", ["0<beta<=betap", "n<alpha-betap<=2n", "alpha<=2n", "0<=gamma<=2n"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x c^2n-alpha+betap e x", "x c^2n-alpha+betap e x"),
    ("f3", "f16", ["0<beta<=alpha<=2n", "alpha=betap", "0<=gamma<=2n"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x e x", "x e x"),
    ("f3", "f17", ["0<beta<=alpha<=2n", "0<betap-alpha<n", "betap<=2n", "0<=gamma<=2n"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x c^betap-alpha e x", "x c^betap-alpha e x"),
    ("f3", "f18", ["0<beta<=alpha<=2n", "n<=betap-alpha<2n", "betap<=2n", "0<=gamma<=2n"],
     "x a^alpha c^betap e^gamma x", "x a^alpha-beta e^beta c^betap-beta e^gamma x",
     "x a^2n-betap+alpha x", "x a^2n-betap+alpha x"),
    # first rule f4: x a^alpha c^beta -> x c^beta-alpha e^alpha  (0<alpha<beta<=2n)
    ("f4", "f4", ["0<alpha<beta<betap<=2n"],
     "x a^alpha c^betap", "x c^beta-alpha e^alpha c^betap-beta",
     "x c^betap-alpha e^alpha", "x c^betap-alpha e^alpha"),
    ("f4", "f6", ["0<alpha<beta<=betap<=2n", "0<gamma<=2n", "gamma+alpha<=2n",
                  "gamma+betap>2n"],
     "x a^alpha c^betap e^gamma", "x c^beta-alpha e^alpha c^betap-beta e^gamma",
     "x a^2n+alpha-betap e^betap+gamma-2n", "x a^2n+alpha-betap e^betap+gamma-2n"),
    ("f4", "f9", ["0<alpha<beta<=betap<=2n", "0<gamma<=2n", "gamma+alpha>2n"],
     "x a^alpha c^betap e^gamma", "x c^beta-alpha e^alpha c^betap-beta e^gamma",
     "x c^betap-alpha e^alpha+gamma-2n", "x c^betap-alpha e^alpha+gamma-2n"),
    ("f4", "f10", ["0<beta-alpha<n", "0<alpha<beta<=2n", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma x", "x c^beta-alpha e^alpha+gamma x",
     "x a^alpha c^beta x", "x c^beta-alpha e x"),
    ("f4", "f10", ["n<=beta-alpha<2n", "0<alpha<beta<=2n", "0<gamma<=2n"],
     "x a^alpha c^beta e^gamma x", "x c^beta-alpha e^alpha+gamma x",
     "x a^alpha c^beta x", "x a^2n-beta+alpha x"),
    ("f4", "f17", ["0<alpha<beta<=betap<=2n", "0<betap-alpha<n", "0<=gamma<=2n"],
     "x a^alpha c^betap e^gamma x", "x c^beta-alpha e^alpha c^betap-beta e^gamma x",
     "x c^betap-alpha e x", "x c^betap-alpha e x"),
    ("f4", "f18", ["0<alpha<beta<=betap<=2n", "n<=betap-alpha<2n", "0<=gamma<=2n"],
     "x a^alpha c^betap e^gamma x", "x c^beta-alpha e^alpha c^betap-beta e^gamma x",
     "x a^2n-betap+alpha x", "x a^2n-betap+alpha x"),
    # first rule f5: x a^alpha c^beta e^gamma -> x c^2n+beta-alpha e^alpha+gamma-2n
    ("f5", "f5", ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n", "beta+gamma<=2n",
                  "alpha+gamma>2n", "gamma<gammap<=2n", "beta+gammap<=2n"],
     "x a^alpha c^beta e^gammap", "x c^2n+beta-alpha e^alpha+gammap-2n",
     "x c^2n+beta-alpha e^alpha+gammap-2n", "x c^2n+beta-alpha e^alpha+gammap-2n"),
    ("f5", "f7", ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n", "beta+gamma<=2n",
                  "alpha+gamma>2n", "gamma<gammap<=2n", "beta+gammap>2n"],
     "x a^alpha c^beta e^gammap", "x c^2n+beta-alpha e^alpha+gammap-2n",
     "x a^alpha-beta e^beta+gammap-2n", "x a^alpha-beta e^beta+gammap-2n"),
    ("f5", "f10", ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n", "beta+gamma<=2n",
                   "alpha+gamma>2n", "0<alpha-beta<=n"],
     "x a^alpha c^beta e^gamma x", "x c^2n+beta-alpha e^alpha+gamma-2n x",
     "x a^alpha c^beta x", "x a^alpha-beta x"),
    ("f5", "f10", ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n", "beta+gamma<=2n",
                   "alpha+gamma>2n", "n<alpha-beta<2n"],
     "x a^alpha c^beta e^gamma x", "x c^2n+beta-alpha e^alpha+gamma-2n x",
     "x a^alpha c^beta x", "x c^2n+beta-alpha e x"),
    ("f5", "f14", ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n", "beta+gamma<=2n",
                   "alpha+gamma>2n", "gamma<=gammap<=2n", "0<alpha-beta<=n"],
     "x a^alpha c^beta e^gammap x", "x c^2n+beta-alpha e^alpha+gammap-2n x",
     "x a^alpha-beta x", "x a^alpha-beta x"),
    ("f5", "f15", ["0<alpha<=2n", "0<=beta<=2n", "0<gamma<=2n", "beta+gamma<=2n",
                   "alpha+gamma>2n", "gamma<=gammap<=2n", "n<alpha-beta<2n"],
     "x a^alpha c^beta e^gammap x", "x c^2n+beta-alpha e^alpha+gammap-2n x",
     "x c^2n+beta-alpha e x", "x c^2n+beta-alpha e x"),
    # first rule f6: x a^alpha c^beta e^gamma -> x a^2n+alpha-beta e^beta+gamma-2n
    ("f6", "f6", ["0<=alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma<=2n",
                  "beta+gamma>2n", "gamma<gammap<=2n", "alpha+gammap<=2n"],
     "x a^alpha c^beta e^gammap", "x a^2n+alpha-beta e^beta+gammap-2n",
     "x a^2n+alpha-beta e^beta+gammap-2n", "x a^2n+alpha-beta e^beta+gammap-2n"),
    ("f6", "f9", ["0<=alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma<=2n",
                  "beta+gamma>2n", "gamma<gammap<=2n", "alpha+gammap>2n"],
     "x a^alpha c^beta e^gammap", "x a^2n+alpha-beta e^beta+gammap-2n",
     "x c^beta-alpha e^alpha+gammap-2n", "x c^beta-alpha e^alpha+gammap-2n"),
    ("f6", "f10", ["0<alpha", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma<=2n",
                   "beta+gamma>2n", "0<beta-alpha<n"],
     "x a^alpha c^beta e^gamma x", "x a^2n+alpha-beta e^beta+gamma-2n x",
     "x a^alpha c^beta x", "x c^beta-alpha e x"),
    ("f6", "f10", ["0<alpha", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma<=2n",
                   "beta+gamma>2n", "n<=beta-alpha<2n"],
     "x a^alpha c^beta e^gamma x", "x a^2n+alpha-beta e^beta+gamma-2n x",
     "x a^alpha c^beta x", "x a^2n-beta+alpha x"),
    ("f6", "f12", ["0<beta<n", "0<gamma<=2n", "beta+gamma>2n", "gamma<=gammap<=2n"],
     "x c^beta e^gammap x", "x a^2n-beta e^beta+gammap-2n x",
     "x c^beta e x", "x c^beta e x"),
    ("f6", "f13a", ["n<=beta<2n", "0<gamma<=2n", "beta+gamma>2n", "gamma<=gammap<=2n"],
     "x c^beta e^gammap x", "x a^2n-beta e^beta+gammap-2n x",
     "x a^2n-beta x", "x a^2n-beta x"),
    ("f6", "f13b", ["beta=2n", "0<gamma<=2n", "gamma<=gammap<=2n"],
     "x c^beta e^gammap x", "x a^2n-beta e^beta+gammap-2n x",
     "x e x", "x e x"),
    ("f6", "f17", ["0<alpha", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma<=2n",
                   "beta+gamma>2n", "gamma<=gammap<=2n", "0<beta-alpha<n"],
     "x a^alpha c^beta e^gammap x", "x a^2n+alpha-beta e^beta+gammap-2n x",
     "x c^beta-alpha e x", "x c^beta-alpha e x"),
    ("f6", "f18", ["0<alpha", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma<=2n",
                   "beta+gamma>2n", "gamma<=gammap<=2n", "n<=beta-alpha<2n"],
     "x a^alpha c^beta e^gammap x", "x a^2n+alpha-beta e^beta+gammap-2n x",
     "x a^2n-beta+alpha x", "x a^2n-beta+alpha x"),
    # first rule f7: x a^alpha c^beta e^gamma -> x a^alpha-beta e^beta+gamma-2n
    ("f7", "f7", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                  "beta+gamma>2n", "alpha>beta", "gamma<gammap<=2n"],
     "x a^alpha c^beta e^gammap", "x a^alpha-beta e^beta+gammap-2n",
     "x a^alpha-beta e^beta+gammap-2n", "x a^alpha-beta e^beta+gammap-2n"),
    ("f7", "f10", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha>beta", "0<alpha-beta<=n"],
     "x a^alpha c^beta e^gamma x", "x a^alpha-beta e^beta+gamma-2n x",
     "x a^alpha c^beta x", "x a^alpha-beta x"),
    ("f7", "f10", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha>beta", "n<alpha-beta<2n"],
     "x a^alpha c^beta e^gamma x", "x a^alpha-beta e^beta+gamma-2n x",
     "x a^alpha c^beta x", "x c^2n+beta-alpha e x"),
    ("f7", "f14", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha>beta", "gamma<=gammap<=2n", "0<alpha-beta<=n"],
     "x a^alpha c^beta e^gammap x", "x a^alpha-beta e^beta+gammap-2n x",
     "x a^alpha-beta x", "x a^alpha-beta x"),
    ("f7", "f15", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha>beta", "gamma<=gammap<=2n", "n<alpha-beta<2n"],
     "x a^alpha c^beta e^gammap x", "x a^alpha-beta e^beta+gammap-2n x",
     "x c^2n+beta-alpha e x", "x c^2n+beta-alpha e x"),
    # first rule f8: x a^alpha c^beta e^gamma -> x e^beta+gamma-2n  (alpha=beta)
    ("f8", "f8", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                  "beta+gamma>2n", "alpha=beta", "gamma<gammap<=2n"],
     "x a^alpha c^beta e^gammap", "x e^beta+gammap-2n",
     "x e^beta+gammap-2n", "x e^beta+gammap-2n"),
    ("f8", "f10", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha=beta"],
     "x a^alpha c^beta e^gamma x", "x e^beta+gamma-2n x",
     "x a^alpha c^beta x", "x e x"),
    ("f8", "f16", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha=beta", "gamma<=gammap<=2n"],
     "x a^alpha c^beta e^gammap x", "x e^beta+gammap-2n x",
     "x e x", "x e x"),
    # first rule f9: x a^alpha c^beta e^gamma -> x c^beta-alpha e^alpha+gamma-2n
    ("f9", "f9", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                  "beta+gamma>2n", "alpha<beta", "gamma<gammap<=2n"],
     "x a^alpha c^beta e^gammap", "x c^beta-alpha e^alpha+gammap-2n",
     "x c^beta-alpha e^alpha+gammap-2n", "x c^beta-alpha e^alpha+gammap-2n"),
    ("f9", "f10", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha<beta", "0<beta-alpha<n"],
     "x a^alpha c^beta e^gamma x", "x c^beta-alpha e^alpha+gamma-2n x",
     "x a^alpha c^beta x", "x c^beta-alpha e x"),
    ("f9", "f10", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha<beta", "n<=beta-alpha<2n"],
     "x a^alpha c^beta e^gamma x", "x c^beta-alpha e^alpha+gamma-2n x",
     "x a^alpha c^beta x", "x a^2n-beta+alpha x"),
    ("f9", "f17", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha<beta", "gamma<=gammap<=2n", "0<beta-alpha<n"],
     "x a^alpha c^beta e^gammap x", "x c^beta-alpha e^alpha+gammap-2n x",
     "x c^beta-alpha e x", "x c^beta-alpha e x"),
    ("f9", "f18", ["0<alpha<=2n", "0<beta<=2n", "0<gamma<=2n", "alpha+gamma>2n",
                   "beta+gamma>2n", "alpha<beta", "gamma<=gammap<=2n", "n<=beta-alpha<2n"],
     "x a^alpha c^beta e^gammap x", "x c^beta-alpha e^alpha+gammap-2n x",
     "x a^2n-beta+alpha x", "x a^2n-beta+alpha x"),
    # first rule f10: a^alpha c^beta e^gamma x -> a^alpha c^beta x
    ("f10", "f10", ["0<alpha<alphap<=2n", "0<=beta<=2n", "0<gamma<=2n"],
     "a^alphap c^beta e^gamma x", "a^alphap c^beta x",
     "a^alphap c^beta x", "a^alphap c^beta x"),
    ("f10", "f14", ["0<alphap<=2n", "0<=beta<=2n", "0<gamma<=2n", "0<alphap-beta<=n"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x a^alphap-beta x", "x a^alphap-beta x"),
    ("f10", "f15", ["0<alphap<=2n", "0<=beta<=2n", "0<gamma<=2n", "n<alphap-beta<2n"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x c^2n-alphap+beta e x", "x c^2n-alphap+beta e x"),
    ("f10", "f16", ["0<alphap<=2n", "alphap=beta", "0<gamma<=2n"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x e x", "x e x"),
    ("f10", "f17", ["0<alphap<=2n", "beta<=2n", "0<beta-alphap<n", "0<gamma<=2n"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x c^beta-alphap e x", "x c^beta-alphap e x"),
    ("f10", "f18", ["0<alphap<=2n", "beta<=2n", "n<=beta-alphap<2n", "0<gamma<=2n"],
     "x a^alphap c^beta e^gamma x", "x a^alphap c^beta x",
     "x a^2n-beta+alphap x", "x a^2n-beta+alphap x"),
])


# --------------------------------------------------------------------------
# the checker


@dataclass
class RowReport:
    row: JointRow
    assignments: int = 0        # admissible assignments (before deduplication)
    distinct: int = 0           # distinct word tuples actually checked
    failure_count: int = 0
    failures: list[dict] = field(default_factory=list)  # capped sample

    @property
    def instantiable(self) -> bool:
        return self.distinct > 0

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def as_json(self) -> dict:
        return {
            "label": self.row.label,
            "first_rule": self.row.first_rule,
            "second_rule": self.row.second_rule,
            "assignments": self.assignments,
            "distinct": self.distinct,
            "instantiable": self.instantiable,
            "ok": self.ok,
            "failure_count": self.failure_count,
            "failures": self.failures,
        }


@dataclass
class AppendixReport:
    table: str
    n: int | None
    max_exp: int
    bound: int
    rows: list[RowReport]
    elapsed: float = 0.0

    @property
    def all_joined(self) -> bool:
        return all(r.ok for r in self.rows)

    @property
    def rows_instantiable(self) -> int:
        return sum(1 for r in self.rows if r.instantiable)

    @property
    def rows_failed(self) -> list[str]:
        return [r.row.label for r in self.rows if not r.ok]

    @property
    def rows_empty(self) -> list[str]:
        return [r.row.label for r in self.rows if not r.instantiable]

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.rows:
            pair = f"{r.row.first_rule}+{r.row.second_rule}"
            if not r.instantiable:
                status = "empty (no admissible assignment at this bound)"
            elif r.ok:
                status = f"ok ({r.distinct} instance{'s' if r.distinct != 1 else ''})"
            else:
                status = f"FAILED ({r.failure_count} of {r.distinct} instances)"
            lines.append(f"{r.row.label:>4}  {pair:<10} {status}")
        where = f"table {self.table}" + (f", n={self.n}" if self.n is not None else "")
        verdict = "all joined" if self.all_joined else f"FAILURES in {', '.join(self.rows_failed)}"
        lines.append(
            f"{where}: {self.rows_instantiable}/{len(self.rows)} rows instantiable "
            f"at bound {self.bound}, {verdict} ({self.elapsed:.1f}s)"
        )
        return lines

    def as_json(self) -> dict:
        return {
            "table": self.table,
            "n": self.n,
            "max_exp": self.max_exp,
            "bound": self.bound,
            "rows_total": len(self.rows),
            "rows_instantiable": self.rows_instantiable,
            "rows_empty": self.rows_empty,
            "rows_failed": self.rows_failed,
            "all_joined": self.all_joined,
            "elapsed_seconds": round(self.elapsed, 3),
            "rows": [r.as_json() for r in self.rows],
        }


def check_row(system, row: JointRow, bound: int, failure_cap: int = 5,
              nf_memo: dict[str, str] | None = None) -> RowReport:
    """Check one row over all exponent assignments in 0..bound.

    The assignments come from ``rewrite.bounded_assignments``: a variable's
    one-variable conditions narrow its range up front and are not checked
    again; the other conditions are checked on each assignment, so the
    admissible assignments and their order are those of the full product.
    A word t is checked against the one-step results of ``row.first_rule``
    and ``row.second_rule`` only, found by running just those rules'
    matchers where the window table files them.  ``nf_memo`` maps words to
    their normal forms under ``system`` and is passed to ``normal_form``,
    which records every word of each leftmost chain in it; rows that share
    one (as ``verify_appendix``'s rows do) reduce each word once.  Raises
    ValueError on a bound below 0.
    """
    if nf_memo is None:
        nf_memo = {}
    n = system.parameter_n
    report = RowReport(row=row)
    parsed_patterns, conditions = row.parsed
    checks = compile_conditions(conditions, n)
    patterns = [compile_atoms(p, n) for p in parsed_patterns]
    seen: set[tuple[str, str, str, str]] = set()

    def record(assignment: dict[str, int], t: str, problems: list[str]) -> None:
        report.failure_count += 1
        if len(report.failures) < failure_cap:
            report.failures.append(
                {"assignment": dict(assignment), "t": t, "problems": problems}
            )

    for assignment in bounded_assignments(checks, row.variables, bound):
        report.assignments += 1
        try:
            words = tuple(render_atoms(p, assignment) for p in patterns)
        except ValueError as exc:
            record(assignment, "<render>", [str(exc)])
            continue
        if words in seen:
            continue
        seen.add(words)
        report.distinct += 1
        t, t1, t2, t0 = words
        problems = []
        if t1 not in _rule_results(system, t, row.first_rule):
            problems.append(f"t1 {t1!r} is not a one-step {row.first_rule} result of t")
        if t2 not in _rule_results(system, t, row.second_rule):
            problems.append(f"t2 {t2!r} is not a one-step {row.second_rule} result of t")
        if not problems:
            nf1, nf2, nf0 = (normal_form(system, w, memo=nf_memo) for w in (t1, t2, t0))
            if not (nf1 == nf2 == nf0):
                problems.append(
                    f"normal forms differ: t1->{nf1!r}, t2->{nf2!r}, t0->{nf0!r}"
                )
        if problems:
            record(assignment, t, problems)
    return report


def verify_appendix(which: str, n: int | None = None, max_exp: int = 4,
                    failure_cap: int = 5) -> AppendixReport:
    """Check every row of table 'A' (system Q) or 'B' (system F_n).

    Exponent variables are enumerated over 0..max_exp for table A and over
    0..max(max_exp, 2n) for table B, which covers every boundary case since
    all table-B variables are capped at 2n by their side conditions.
    """
    if max_exp < 0:
        raise ValueError(f"exponent bound {max_exp} is below 0")
    table = which.upper()
    if table == "A":
        if n is not None:
            raise ValueError("table A has no parameter n")
        system, rows, bound = Q_SYSTEM, A_ROWS, max_exp
    elif table == "B":
        if n is None or n < 1:
            raise ValueError("table B needs a parameter n >= 1")
        system, rows, bound = build_fn_system(n), B_ROWS, max(max_exp, 2 * n)
    else:
        raise ValueError(f"unknown table {which!r}; expected 'A' or 'B'")
    start = time.perf_counter()
    nf_memo: dict[str, str] = {}
    reports = [check_row(system, row, bound, failure_cap, nf_memo) for row in rows]
    return AppendixReport(
        table=table, n=n, max_exp=max_exp, bound=bound, rows=reports,
        elapsed=time.perf_counter() - start,
    )
