"""Parametric string rewriting: schemas with exponent variables and linear side
conditions, reduction to normal form, termination-order checks, and bounded
critical-pair / local-confluence analysis.

Left-hand sides are sequences of atoms letter^exp where exp is either a linear
expression in the system parameter n (a constant once n is fixed) or a bare
variable.  A variable atom consumes the whole maximal run of its letter, except
in the last position where shorter matches are also tried.  That is exactly the
shape of all built-in rule schemas.

Each ``RewriteSystem`` compiles its schemas once, with n fixed: a matcher per
schema (``_Matcher``), the rank table of its letter order, and a table from
the window ``w[pos:pos + 2]`` (one letter at the end of the word) to the
matchers that can match at pos, in schema order.  The table follows from the
atoms' ranges and the fact that an atom other than the last consumes its
whole run, so the letter after it is not its own: q4, ``a^alpha c^beta
e^gamma x`` with ``0<alpha``, is filed only under windows that start with
``a``.  A letter outside the alphabet ends every run, like the end of the
word, so a window whose second letter is foreign falls back to its first
letter alone, and a foreign first letter to the matchers whose lhs can match
the empty word.  A matcher also holds its schema's side conditions as integer
checks, which ``instantiate_all`` reads, and its lhs and rhs as atoms for
``render_atoms``, the one render, whose errors start with the schema id;
folding n in (``_fold``) is the one place that rejects n in a system without
a parameter.

One matcher, ``_match_at``, reads a schema's lhs at a position, and one
scan, ``_matches``, runs it over the positions from a start and the window
table, yielding the matches in order (``enumerate_redexes``,
``_rule_results``, ``random_normal_form``).  Leftmost reduction is one walk,
``_steps``, whose step is the scan's first match with its rhs rendered once:
``normal_form`` reads only its words, and ``leftmost_reductions``
(``reduce_once``, ``lef rewrite``) makes ``Reduction``s of its steps.  After
a step it resumes near the edit, not at 0.  A match
attempt reads at most ``max_lhs_atoms`` runs of the word plus one look-ahead
letter, so after a step at ``pos`` (no earlier position matched) every
attempt starting ``max_lhs_atoms`` or more runs before the run holding
``pos - 1`` reads only unchanged letters and still fails; the window table
leaves out only matchers that cannot match, so this holds with it too.

With ``assert_decrease`` each step must decrease shortlex, which is checked
on the rewritten segment alone: the two words share prefix and suffix, so the
new one is smaller iff the rhs is shorter than the match, or as long and
lexicographically smaller.  The first step ranks every letter of the word and
later ones the rhs, so a letter outside the alphabet is still a ValueError.

``normal_form`` takes an optional memo from words to their leftmost normal
forms, which the verify campaigns (``check_local_confluence`` and
``appendix.verify_appendix``) share.  Leftmost reduction is deterministic, so
every word on a chain w -> w1 -> ... -> v has v as its leftmost normal form,
confluent system or not, and each word is reduced once per campaign.
``check_local_confluence`` streams the critical pairs (``_overlaps``, which
``critical_pairs`` lists) and keeps only the memo and the unresolved pairs.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
import re
import sys
from dataclasses import dataclass, field

DEFAULT_STEP_LIMIT = 100_000
_UNBOUNDED = sys.maxsize  # upper end of a variable's range when no condition caps it
_PARSE_CACHE_SIZE = 1024  # distinct exponent texts kept parsed (the appendix has 73)


class StepLimitError(RuntimeError):
    """Reduction exceeded the step limit; suspected non-termination."""


class ConditionError(ValueError):
    """An instantiation violates a rule's side condition."""


# ---------------------------------------------------------------------------
# linear exponent expressions: sums of integer constants, k*n, and variables

_TERM_RE = re.compile(r"^(\d+)?([a-z][a-z0-9_]*)?$")


@dataclass(frozen=True)
class LinExpr:
    const: int = 0
    n_coeff: int = 0
    var_coeffs: tuple[tuple[str, int], ...] = ()

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.var_coeffs)

    def is_bare_var(self) -> bool:
        return (self.const == 0 and self.n_coeff == 0
                and len(self.var_coeffs) == 1 and self.var_coeffs[0][1] == 1)

    def __str__(self) -> str:
        parts = []
        if self.n_coeff:
            parts.append(("" if self.n_coeff == 1 else str(self.n_coeff)) + "n")
        for name, coeff in self.var_coeffs:
            if coeff == 1:
                parts.append(name)
            elif coeff == -1:
                parts.append("-" + name)
            else:
                parts.append(f"{coeff}{name}")
        if self.const or not parts:
            parts.append(str(self.const))
        out = parts[0]
        for p in parts[1:]:
            out += p if p.startswith("-") else "+" + p
        return out


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def parse_linexpr(text: str) -> LinExpr:
    """Parse expressions like '1', '2n+1', 'alpha-beta', '2n+beta-alpha';
    each text once per process (a ``LinExpr`` is frozen, so it is shared)."""
    s = text.replace(" ", "").replace("{", "").replace("}", "")
    if not s:
        raise ValueError("empty exponent expression")
    const = n_coeff = 0
    var_coeffs: dict[str, int] = {}
    signed = []
    sign = 1
    i = 0
    while i < len(s):
        if s[i] == "+":
            sign = 1
            i += 1
            continue
        if s[i] == "-":
            sign = -1
            i += 1
            continue
        j = i
        while j < len(s) and s[j] not in "+-":
            j += 1
        signed.append((sign, s[i:j]))
        sign = 1
        i = j
    for sgn, term in signed:
        m = _TERM_RE.match(term)
        if not m or (not m.group(1) and not m.group(2)):
            raise ValueError(f"bad exponent term {term!r} in {text!r}")
        num, name = m.group(1), m.group(2)
        if name is None:
            const += sgn * int(num)
        elif name == "n":
            n_coeff += sgn * (int(num) if num else 1)
        else:
            if num:
                var_coeffs[name] = var_coeffs.get(name, 0) + sgn * int(num)
            else:
                var_coeffs[name] = var_coeffs.get(name, 0) + sgn
    coeffs = tuple(sorted((k, v) for k, v in var_coeffs.items() if v != 0))
    return LinExpr(const=const, n_coeff=n_coeff, var_coeffs=coeffs)


# ---------------------------------------------------------------------------
# side conditions

_OP_RE = re.compile(r"(<=|>=|==|<|>|=)")


@dataclass(frozen=True)
class Condition:
    """A comparison chain like 0<beta<=alpha<=2n, or not_both_zero(u,v)."""

    source: str
    exprs: tuple[LinExpr, ...] = ()
    ops: tuple[str, ...] = ()
    nonzero_pair: tuple[str, str] | None = None

    @property
    def variables(self) -> tuple[str, ...]:
        if self.nonzero_pair is not None:
            return self.nonzero_pair
        out: list[str] = []
        for e in self.exprs:
            out.extend(e.variables)
        return tuple(dict.fromkeys(out))

    def __str__(self) -> str:
        return self.source


def parse_condition(text: str) -> Condition:
    s = text.strip()
    m = re.match(r"^not_both_zero\(\s*([a-z0-9_]+)\s*,\s*([a-z0-9_]+)\s*\)$", s)
    if m:
        return Condition(source=s, nonzero_pair=(m.group(1), m.group(2)))
    parts = _OP_RE.split(s.replace(" ", ""))
    if len(parts) < 3 or len(parts) % 2 == 0:
        raise ValueError(f"bad condition {text!r}")
    exprs = tuple(parse_linexpr(p) for p in parts[0::2])
    ops = tuple(parts[1::2])
    return Condition(source=s, exprs=exprs, ops=ops)


# ---------------------------------------------------------------------------
# rule schemas and systems

Atom = tuple[str, LinExpr]


def parse_pattern(text: str) -> tuple[Atom, ...]:
    """Parse 'x a^alpha c^beta x' into ((x,1),(a,alpha),(c,beta),(x,1))."""
    atoms: list[Atom] = []
    for token in text.split():
        if "^" in token:
            letter, exp = token.split("^", 1)
            atoms.append((letter, parse_linexpr(exp)))
        else:
            for ch in token:
                atoms.append((ch, LinExpr(const=1)))
    if not atoms:
        raise ValueError("empty pattern")
    return tuple(atoms)


@dataclass(frozen=True)
class RuleSchema:
    id: str
    lhs: tuple[Atom, ...]
    rhs: tuple[Atom, ...]
    conditions: tuple[Condition, ...] = ()

    def __post_init__(self):
        for letter, expr in self.lhs:
            if expr.var_coeffs and not expr.is_bare_var():
                raise ValueError(f"{self.id}: lhs exponent {expr} must be a bare variable or constant")
        seen = [e.var_coeffs[0][0] for _, e in self.lhs if e.is_bare_var()]
        if len(seen) != len(set(seen)):
            raise ValueError(f"{self.id}: repeated lhs variable")
        lhs_vars = set(seen)
        for _, expr in self.rhs:
            if not set(expr.variables) <= lhs_vars:
                raise ValueError(f"{self.id}: rhs variable not bound by lhs")

    @property
    def variables(self) -> tuple[str, ...]:
        out = [e.var_coeffs[0][0] for _, e in self.lhs if e.is_bare_var()]
        for c in self.conditions:
            out.extend(c.variables)
        return tuple(sorted(dict.fromkeys(out)))

    def describe(self) -> str:
        lhs = " ".join(f"{l}^{e}" if str(e) != "1" else l for l, e in self.lhs)
        rhs = " ".join(f"{l}^{e}" if str(e) != "1" else l for l, e in self.rhs)
        conds = ", ".join(str(c) for c in self.conditions)
        return f"{self.id}: {lhs} -> {rhs}" + (f"  [{conds}]" if conds else "")


def make_schema(rule_id: str, lhs: str, rhs: str, conditions: list[str] | None = None) -> RuleSchema:
    return RuleSchema(
        id=rule_id,
        lhs=parse_pattern(lhs),
        rhs=parse_pattern(rhs),
        conditions=tuple(parse_condition(c) for c in (conditions or [])),
    )


# ---------------------------------------------------------------------------
# compiled forms: exponents and conditions with n folded in

CompiledAtoms = tuple[tuple[str, int, tuple[tuple[str, int], ...], LinExpr, str], ...]
# one integer check: (const, ((var, coeff), ...), kind) meaning
# const + sum(coeff * var) >= 0 (kind _GE), == 0 (_EQ), or some var != 0 (_NZ)
Check = tuple[int, tuple[tuple[str, int], ...], int]
_GE, _EQ, _NZ = 0, 1, 2


def _fold(expr: LinExpr, n: int | None, owner: str = "") -> tuple[int, tuple[tuple[str, int], ...]]:
    """(constant with n folded in, variable coefficients) of expr."""
    if expr.n_coeff and n is None:
        raise ValueError(f"{owner}expression mentions n but the system has no parameter")
    return expr.const + expr.n_coeff * (n or 0), expr.var_coeffs


def compile_atoms(atoms: tuple[Atom, ...], n: int | None, owner: str = "") -> CompiledAtoms:
    """Atoms ready for ``render_atoms``, with n folded into every exponent and
    ``owner`` (a schema's ``"q2: "``) heading each exponent's error text."""
    return tuple((letter, *_fold(expr, n, owner), expr, owner) for letter, expr in atoms)


def render_atoms(atoms: CompiledAtoms, assignment: dict[str, int]) -> str:
    """The word spelled by compiled atoms; raises ConditionError on an exponent < 0."""
    out = []
    for letter, k, var_coeffs, expr, owner in atoms:
        for name, coeff in var_coeffs:
            k += coeff * assignment[name]
        if k < 0:
            raise ConditionError(f"{owner}exponent {expr} = {k} < 0 under {assignment}")
        out.append(letter * k)
    return "".join(out)


def _difference(left: tuple, right: tuple, shift: int) -> tuple[int, tuple[tuple[str, int], ...]]:
    """left - right + shift as (const, var coefficients)."""
    coeffs = dict(left[1])
    for name, coeff in right[1]:
        coeffs[name] = coeffs.get(name, 0) - coeff
    return left[0] - right[0] + shift, tuple((k, v) for k, v in coeffs.items() if v)


def compile_conditions(conditions: tuple[Condition, ...], n: int | None,
                       owner: str = "") -> tuple[Check, ...]:
    """Integer checks equivalent to all the conditions holding.  Over the
    integers a < b is a - b + 1 <= 0, so every comparison is one check."""
    checks: list[Check] = []
    for cond in conditions:
        if cond.nonzero_pair is not None:
            checks.append((0, tuple((name, 1) for name in cond.nonzero_pair), _NZ))
            continue
        folded = [_fold(e, n, owner) for e in cond.exprs]
        for i, op in enumerate(cond.ops):
            a, b = folded[i], folded[i + 1]
            if op in ("=", "=="):
                checks.append((*_difference(a, b, 0), _EQ))
            elif op in ("<", "<="):
                checks.append((*_difference(b, a, -1 if op == "<" else 0), _GE))
            else:
                checks.append((*_difference(a, b, -1 if op == ">" else 0), _GE))
    return tuple(checks)


def conditions_hold(checks: tuple[Check, ...], assignment: dict[str, int]) -> bool:
    """Whether every check compiled by ``compile_conditions`` passes."""
    for const, var_coeffs, kind in checks:
        if kind == _NZ:
            if not any(assignment[name] for name, _ in var_coeffs):
                return False
            continue
        for name, coeff in var_coeffs:
            const += coeff * assignment[name]
        if (const < 0) if kind == _GE else (const != 0):
            return False
    return True


def _split_bounds(checks: tuple[Check, ...], variables) -> tuple[dict, dict, list]:
    """(lo, hi, rest): the least and greatest value of each variable that the
    one-variable ``>=`` checks allow (0 and ``_UNBOUNDED`` when none caps it),
    and the checks that are not of that kind."""
    lo, hi = dict.fromkeys(variables, 0), dict.fromkeys(variables, _UNBOUNDED)
    rest = []
    for check in checks:
        const, var_coeffs, kind = check
        if kind == _GE and len(var_coeffs) == 1 and var_coeffs[0][0] in lo:
            (name, coeff), = var_coeffs
            if coeff > 0:   # name >= ceil(-const / coeff)
                lo[name] = max(lo[name], -(const // coeff))
            else:           # name <= floor(const / -coeff)
                hi[name] = min(hi[name], const // -coeff)
        else:
            rest.append(check)
    return lo, hi, rest


def bounded_assignments(checks: tuple[Check, ...], variables, bound: int):
    """Yield, in the order of the full 0..bound product, every assignment of
    ``variables`` into 0..bound that passes ``checks``.

    ``_split_bounds`` folds the one-variable ``>=`` checks into each
    variable's range, as it does for a matcher's atoms; only the product of
    the narrowed ranges is walked, and only the checks it did not fold are run
    on each assignment.  Raises ValueError on a bound below 0.
    """
    if bound < 0:
        raise ValueError(f"exponent bound {bound} is below 0")
    lo, hi, rest = _split_bounds(checks, variables)
    ranges = [range(lo[v], min(hi[v], bound) + 1) for v in variables]
    for values in itertools.product(*ranges):
        assignment = dict(zip(variables, values))
        if not rest or conditions_hold(rest, assignment):
            yield assignment


class _Matcher:
    """One schema compiled against a fixed n: ``checks`` are all its side
    conditions, ``lhs`` and ``rhs`` its atoms, with errors naming the schema.

    Every lhs atom is ``(letter, variable or None, lo, hi)``: a constant
    exponent k has lo = hi = k, and a variable's range is the one its
    one-variable side conditions allow (``0<alpha`` gives lo = 1, ``gamma<=2n``
    gives hi = 2n), so a run outside it is rejected while the head is scanned.
    ``head`` holds every atom but the last, each consuming its whole run;
    ``last`` may match a prefix of its run.  Only the checks with more than
    one variable are left: those not mentioning the last variable are in
    ``fixed`` and run once per attempt; the rest are in ``flex`` as ``(const,
    other (var, coeff) pairs, coefficient of the last variable, _GE or _NZ)``,
    an ``==`` check as two ``>=`` ones, and narrow the last atom's range
    once the head is read (``_match_at``).
    """

    __slots__ = ("schema", "checks", "head", "last", "fixed", "flex", "lhs", "rhs")

    def __init__(self, schema: RuleSchema, n: int | None):
        self.schema = schema
        owner = f"{schema.id}: "
        self.checks = compile_conditions(schema.conditions, n, owner)
        names = [expr.var_coeffs[0][0] for _, expr in schema.lhs if expr.is_bare_var()]
        lo, hi, checks = _split_bounds(self.checks, names)
        atoms = []
        for letter, expr in schema.lhs:
            if expr.is_bare_var():
                name = expr.var_coeffs[0][0]
                atoms.append((letter, name, lo[name], hi[name]))
            else:
                k = _fold(expr, n, owner)[0]
                if k < 0:
                    raise ValueError(f"{schema.id}: lhs exponent {expr} = {k} < 0")
                atoms.append((letter, None, k, k))
        self.head, self.last = tuple(atoms[:-1]), atoms[-1]
        flex_var = self.last[1]
        fixed, flex = [], []
        for const, var_coeffs, kind in checks:
            k = dict(var_coeffs).get(flex_var, 0)
            others = tuple((name, c) for name, c in var_coeffs if name != flex_var)
            if not k:
                fixed.append((const, var_coeffs, kind))
            elif kind == _EQ:  # == 0 is >= 0 both ways
                flex += [(const, others, k, _GE),
                         (-const, tuple((v, -c) for v, c in others), -k, _GE)]
            else:
                flex.append((const, others, k, kind))
        self.fixed, self.flex = tuple(fixed), tuple(flex)
        self.lhs = compile_atoms(schema.lhs, n, owner)
        self.rhs = compile_atoms(schema.rhs, n, owner)

    def instance(self, assignment: dict[str, int]) -> tuple[str, str]:
        """Concrete (lhs, rhs) words; the conditions are assumed to hold."""
        lhs = render_atoms(self.lhs, assignment)
        rhs = render_atoms(self.rhs, assignment)
        if not lhs:
            raise ConditionError(f"{self.schema.id}: empty lhs under {assignment}")
        return lhs, rhs

    def window_keys(self, alphabet: str) -> set[str]:
        """A superset of the windows w[pos:pos + 2] at which the lhs can match
        at pos; "" is in it when the lhs can match the empty word.

        A walk over the atoms keeps the letters read so far and the letters
        the next one cannot be: an atom other than the last consumes its whole
        run, so the letter after it is not its own, and neither is the letter
        where it matched a run of length 0.
        """
        atoms = self.head + (self.last,)
        keys: set[str] = set()

        def walk(i: int, read: str, banned: frozenset) -> None:
            if len(read) == 2:
                keys.add(read)
                return
            if i == len(atoms):
                # the word ends here, or goes on with a letter no run claims
                free = [c for c in alphabet if c not in banned]
                keys.add(read)
                keys.update(read + c for c in free)
                if not read:
                    keys.update(c + d for c in free for d in alphabet)
                return
            letter, _, lo, hi = atoms[i]
            after = frozenset(letter) if i < len(atoms) - 1 else frozenset()
            if lo <= 0 <= hi:
                walk(i + 1, read, banned | after)
            if letter not in banned:
                if lo <= 1 <= hi:
                    walk(i + 1, read + letter, after)
                if hi >= max(lo, 2):
                    keys.add((read + letter * 2)[:2])

        walk(0, "", frozenset())
        return keys


@dataclass
class RewriteSystem:
    name: str
    alphabet: str
    order: str  # termination order, smallest letter first
    schemas: tuple[RuleSchema, ...]
    parameter_n: int | None = None
    assert_decrease: bool = False  # per-step shortlex check (verified presets)
    # compiled in __post_init__; see the module docstring
    _matchers: tuple = field(init=False, repr=False, compare=False)
    _table: dict = field(init=False, repr=False, compare=False)
    _rank: dict = field(init=False, repr=False, compare=False)
    _max_atoms: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if sorted(self.alphabet) != sorted(set(self.alphabet)):
            raise ValueError("alphabet letters must be distinct")
        if set(self.order) != set(self.alphabet):
            raise ValueError("order must list exactly the alphabet letters")
        for s in self.schemas:
            if not {letter for letter, _ in s.lhs} <= set(self.alphabet):
                raise ValueError(f"schema {s.id}: lhs letters outside the alphabet")
        self._matchers = tuple(_Matcher(s, self.parameter_n) for s in self.schemas)
        found = [m.window_keys(self.alphabet) for m in self._matchers]
        windows = [""] + [c + d for c in self.alphabet for d in ("", *self.alphabet)]
        self._table = {key: tuple(m for m, keys in zip(self._matchers, found) if key in keys)
                       for key in windows}
        self._rank = {ch: i for i, ch in enumerate(self.order)}
        self._max_atoms = max((len(s.lhs) for s in self.schemas), default=1)


def _match_at(m: _Matcher, w: str, pos: int):
    """(assignment, consumed, longest) of m's lhs at w[pos]: the shortest
    match, its assignment a fresh dict, and the consumed length of the
    longest; or None.  Once the head is read, each ``flex`` check bounds the
    last variable from one side, so every length in between matches."""
    size = len(w)
    assignment: dict[str, int] = {}
    cur = pos
    for letter, name, lo, hi in m.head:
        end = cur
        while end < size and w[end] == letter:
            end += 1
        if not lo <= end - cur <= hi:
            return None
        if name is not None:
            assignment[name] = end - cur
        cur = end
    letter, name, lo, hi = m.last
    end = cur
    while end < size and w[end] == letter:
        end += 1
    if end - cur < hi:
        hi = end - cur
    if hi < lo or (m.fixed and not conditions_hold(m.fixed, assignment)):
        return None
    for const, others, k, kind in m.flex:  # const + others + k * last >= 0, or != 0
        for var, coeff in others:
            const += coeff * assignment[var]
        if kind == _NZ:
            lo = lo if const else max(lo, 1)
        elif k > 0:
            lo = max(lo, -(const // k))
        else:
            hi = min(hi, const // -k)
    if hi < lo:
        return None
    if name is not None:
        assignment[name] = lo
    return assignment, cur + lo - pos, cur + hi - pos


@dataclass(frozen=True)
class Reduction:
    word: str            # the rewritten word
    position: int
    rule_id: str
    assignment: dict = field(hash=False)
    matched: str = ""    # the lhs instance that was replaced
    replacement: str = ""


def _lex_key(w: str, rank: dict[str, int]) -> tuple:
    try:
        return tuple(map(rank.__getitem__, w))
    except KeyError as e:
        raise ValueError(f"letter {e.args[0]!r} is outside the alphabet "
                         f"{''.join(rank)!r}") from None


def _matches(system: RewriteSystem, w: str, rule_id: str | None = None, start: int = 0):
    """Yield (matcher, position, assignment, consumed) for every match in w at
    ``start`` or later, by position, then schema, then assignment; with
    ``rule_id``, only the matches of that rule's matchers."""
    table = system._table
    for pos in range(start, len(w)):
        ms = table.get(w[pos:pos + 2])
        if ms is None:  # a letter outside the alphabet, which ends every run
            ms = table.get(w[pos], table[""])
        for m in ms:
            if (rule_id is None or m.schema.id == rule_id) and \
                    (found := _match_at(m, w, pos)) is not None:
                assignment, consumed, longest = found
                yield m, pos, assignment, consumed
                name = m.last[1]
                for k in range(1, longest - consumed + 1):
                    yield m, pos, {**assignment, name: assignment[name] + k}, consumed + k


def reduce_once(system: RewriteSystem, w: str) -> Reduction | None:
    """One step under the deterministic strategy: leftmost position, lowest
    schema index, smallest assignment.  None iff w is irreducible."""
    return next(leftmost_reductions(system, w, 1), None)


def enumerate_redexes(system: RewriteSystem, w: str) -> list[Reduction]:
    """Every applicable (position, rule, assignment) reduction of w."""
    out = []
    for m, pos, assignment, consumed in _matches(system, w):
        rhs = render_atoms(m.rhs, assignment)
        out.append(Reduction(w[:pos] + rhs + w[pos + consumed:], pos, m.schema.id,
                             assignment, w[pos:pos + consumed], rhs))
    return out


def _rule_results(system: RewriteSystem, w: str, rule_id: str) -> set[str]:
    """The words one step of rule ``rule_id`` gives from w: the words of
    ``enumerate_redexes`` with that rule id."""
    return {w[:pos] + render_atoms(m.rhs, assignment) + w[pos + consumed:]
            for m, pos, assignment, consumed in _matches(system, w, rule_id)}


def _step_limit(step_limit: int | None) -> int:
    """The step limit to use: ``step_limit`` when given, else LEF_STEP_LIMIT,
    else ``DEFAULT_STEP_LIMIT``.  Raises ValueError naming the source on a
    value below 0, or on an environment value that is not an integer."""
    source = "step_limit"
    if step_limit is None:
        raw = os.environ.get("LEF_STEP_LIMIT")
        if raw is None:
            return DEFAULT_STEP_LIMIT
        source = "LEF_STEP_LIMIT"
        try:
            step_limit = int(raw)
        except ValueError:
            raise ValueError(f"LEF_STEP_LIMIT={raw!r} is not an integer") from None
    if step_limit < 0:
        raise ValueError(f"{source}={step_limit} is below 0")
    return step_limit


def _resume_point(w: str, pos: int, runs: int) -> int:
    """Start of the run lying runs - 1 runs before the run that holds w[pos - 1]
    (0 if there are fewer runs).  After a leftmost step at pos, no match can
    start before it: see the module docstring."""
    i = pos
    for _ in range(runs):
        if i == 0:
            return 0
        i -= 1
        letter = w[i]
        while i > 0 and w[i - 1] == letter:
            i -= 1
    return i


def _limit_error(system: RewriteSystem, limit: int, w: str) -> StepLimitError:
    return StepLimitError(f"no normal form within {limit} steps "
                          f"(system {system.name}, stuck at {w[:80]!r})")


def _steps(system: RewriteSystem, w: str, limit: int):
    """Yield (rewritten word, (matcher, position, assignment, consumed), rhs)
    for each leftmost step from w: the first of ``_matches``, searched when
    asked for (after the first step, from ``_resume_point``) and checked as
    the module docstring says."""
    rank = system._rank if system.assert_decrease else None
    start = steps = 0
    while (match := next(_matches(system, w, start=start), None)) is not None:
        m, pos, assignment, consumed = match
        rhs = render_atoms(m.rhs, assignment)
        new = w[:pos] + rhs + w[pos + consumed:]
        if rank is not None:
            key = _lex_key(rhs, rank) if steps else _lex_key(new, rank)[pos:pos + len(rhs)]
            if not (len(rhs) < consumed or len(rhs) == consumed
                    and key < _lex_key(w[pos:pos + consumed], rank)):
                raise AssertionError(f"non-decreasing step {m.schema.id} on {w!r} -> {new!r}")
        steps += 1
        if steps > limit:
            raise _limit_error(system, limit, new)
        yield new, match, rhs
        w = new
        start = _resume_point(w, pos, system._max_atoms)


def leftmost_reductions(system: RewriteSystem, w: str, step_limit: int | None = None):
    """Yield the ``Reduction`` of each step of ``_steps`` from w under the
    step limit (``_step_limit``); a caller may stop between steps."""
    for new, (m, pos, assignment, consumed), rhs in _steps(system, w, _step_limit(step_limit)):
        yield Reduction(new, pos, m.schema.id, assignment, w[pos:pos + consumed], rhs)
        w = new


def normal_form(system: RewriteSystem, w: str, step_limit: int | None = None,
                memo: dict[str, str] | None = None) -> str:
    """The end of w's chain of ``_steps``.  With ``memo`` (words to their leftmost
    normal forms) the walk stops at the first key (at once if w is one), so the
    step limit counts only the steps taken; unless it is passed, every word the
    walk stepped through and the word it reached are mapped to the result."""
    if memo is not None and w in memo:
        return memo[w]
    walk = _steps(system, w, _step_limit(step_limit))
    if memo is None:
        for w, _, _ in walk:
            pass
        return w
    chain: list[str] = []  # the words stepped through
    for new, _, _ in walk:
        chain.append(w)
        w = new
        if w in memo:
            break
    result = memo.setdefault(w, w)  # w is a key, or the irreducible end
    memo.update(dict.fromkeys(chain, result))
    return result


def random_normal_form(system: RewriteSystem, w: str, rng: random.Random,
                       step_limit: int | None = None) -> str:
    """Reduce w by a match that ``rng`` draws from all of ``_matches`` (the
    redexes of ``enumerate_redexes``, in its order) at each step.  On a
    convergent system this is the leftmost normal form; the walk exists to
    test exactly that.  StepLimitError as in ``normal_form``."""
    limit = _step_limit(step_limit)
    steps = 0
    while matches := list(_matches(system, w)):
        m, pos, assignment, consumed = rng.choice(matches)
        w = w[:pos] + render_atoms(m.rhs, assignment) + w[pos + consumed:]
        steps += 1
        if steps > limit:
            raise _limit_error(system, limit, w)
    return w


# ---------------------------------------------------------------------------
# bounded instantiation, termination report, critical pairs


def instantiate_all(system: RewriteSystem, exponent_bound: int):
    """Yield (schema, assignment, lhs, rhs) for every assignment with all
    variables in [0, exponent_bound] satisfying the side conditions.

    Raises ValueError on a bound below 0."""
    for m in system._matchers:
        for assignment in bounded_assignments(m.checks, m.schema.variables, exponent_bound):
            yield m.schema, assignment, *m.instance(assignment)


@dataclass
class TerminationReport:
    checked: int
    shortlex_violations: list
    per_rule: dict  # rule id -> {"instances", "shortlex_ok", "lex_ok"}

    @property
    def all_shortlex_decreasing(self) -> bool:
        return not self.shortlex_violations


def check_termination_order(system: RewriteSystem, exponent_bound: int) -> TerminationReport:
    """Check every bounded instance decreases shortlex; also record whether the
    plain lexicographic order decreases, per rule (it does not for all
    preset rules, which is why shortlex is the adopted measure)."""
    checked = 0
    shortlex_violations = []
    per_rule: dict[str, dict] = {}
    rank = system._rank
    for schema, assignment, lhs, rhs in instantiate_all(system, exponent_bound):
        checked += 1
        stats = per_rule.setdefault(schema.id, {"instances": 0, "shortlex_ok": True, "lex_ok": True})
        stats["instances"] += 1
        lhs_key, rhs_key = _lex_key(lhs, rank), _lex_key(rhs, rank)
        if not (len(rhs), rhs_key) < (len(lhs), lhs_key):
            stats["shortlex_ok"] = False
            shortlex_violations.append((schema.id, dict(assignment), lhs, rhs))
        if not rhs_key < lhs_key:
            stats["lex_ok"] = False
    return TerminationReport(checked, shortlex_violations, per_rule)


@dataclass
class CriticalPair:
    joint: str
    left_result: str
    right_result: str
    rule1: tuple  # (rule id, assignment, position in joint)
    rule2: tuple


def _overlaps(system: RewriteSystem, exponent_bound: int):
    """Yield the critical pairs as (joint, left result, right result, (id1, asg1,
    p1), (id2, asg2, p2)), with each instance's one assignment dict shared.

    Instances are numbered in ``instantiate_all`` order.  A pair is l1 (number
    i) and l2 (number j) with l2 placed ``shift`` letters right of l1's start
    (left of it when shift < 0), and the pairs come in the order of i, then j,
    then shift.  The overlaps are read off an index from every substring of
    every lhs to its (instance, start) entries: with shift >= 0, an l2 inside
    l1 (l2's own entries in l1) or a prefix of l2 equal to a suffix of l1
    (start-0 entries under l1's suffixes); with shift < 0, an l2 containing
    l1 (l1's entries at a start above 0) or a suffix of l2 equal to a prefix
    of l1.
    Of a pair and its mirror (j, i, -shift), which has the same joint word and
    the same two placed instances, only the first in that order is kept: the
    one with j > i, or with j == i and shift < 0.  The instance against itself
    at shift 0 is no overlap.
    """
    rules = list(instantiate_all(system, exponent_bound))
    index: dict[str, list[tuple[int, int]]] = {}
    for j, (_, _, lhs, _) in enumerate(rules):
        for a in range(len(lhs)):
            for b in range(a + 1, len(lhs) + 1):
                index.setdefault(lhs[a:b], []).append((j, a))
    # inside[i]: (j, shift) for every l2 = lhs of j that sits inside l1 at shift
    inside: list[list[tuple[int, int]]] = [[] for _ in rules]
    for j, (_, _, lhs, _) in enumerate(rules):
        for i, start in index[lhs]:
            inside[i].append((j, start))
    for i, (s1, asg1, l1, r1) in enumerate(rules):
        n1 = len(l1)
        # shift >= 0: l2 inside l1, or a prefix of l2 equal to a suffix of l1
        found = [(j, shift) for j, shift in inside[i] if j > i]
        for shift in range(n1):
            found += [(j, shift) for j, start in index[l1[shift:]]
                      if j > i and start == 0 and len(rules[j][2]) > n1 - shift]
        # shift < 0: l2 containing l1, or a suffix of l2 equal to a prefix of l1
        found += [(j, -start) for j, start in index[l1] if j >= i and start > 0]
        for k in range(1, n1):
            found += [(j, -start) for j, start in index[l1[:k]]
                      if j >= i and start > 0 and start + k == len(rules[j][2])]
        found.sort()
        for j, shift in found:
            s2, asg2, l2, r2 = rules[j]
            p1, p2 = max(0, -shift), max(0, shift)
            joint = l2[:p1] + l1 + l2[n1 - shift:]  # l2 may stick out on either side
            yield (joint, joint[:p1] + r1 + joint[p1 + n1:],
                   joint[:p2] + r2 + joint[p2 + len(l2):], (s1.id, asg1, p1), (s2.id, asg2, p2))


def _critical_pair(joint: str, left: str, right: str, *rules: tuple) -> CriticalPair:
    """A pair of ``_overlaps`` with its own copies of the two assignments."""
    return CriticalPair(joint, left, right, *((rid, dict(asg), pos) for rid, asg, pos in rules))


def critical_pairs(system: RewriteSystem, exponent_bound: int) -> list[CriticalPair]:
    """All overlaps (shared letters, including containment) between bounded lhs
    instances, with both one-step results and copied assignments (``_overlaps``)."""
    return [_critical_pair(*overlap) for overlap in _overlaps(system, exponent_bound)]


@dataclass
class ConfluenceReport:
    total: int
    resolved: int
    unresolved: list  # CriticalPairs whose results have distinct normal forms

    @property
    def locally_confluent(self) -> bool:
        return not self.unresolved


def check_local_confluence(system: RewriteSystem, exponent_bound: int,
                           step_limit: int | None = None) -> ConfluenceReport:
    """Whether each pair of ``critical_pairs(system, exponent_bound)`` has one
    leftmost normal form on both sides.  The pairs stream from ``_overlaps``;
    kept are the unresolved ones, as ``CriticalPair``s in overlap order, and
    one ``normal_form`` memo of the distinct words reduced."""
    limit = _step_limit(step_limit)
    memo: dict[str, str] = {}
    total, unresolved = 0, []
    for joint, left, right, *rules in _overlaps(system, exponent_bound):
        total += 1
        if normal_form(system, left, limit, memo) != normal_form(system, right, limit, memo):
            unresolved.append(_critical_pair(joint, left, right, *rules))
    return ConfluenceReport(total=total, resolved=total - len(unresolved), unresolved=unresolved)
