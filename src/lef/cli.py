"""Command-line interface: every verb is a thin composition of library calls.

Exit codes: 0 for a verified or positive outcome, 3 for a clean negative
(not embeddable up to the bound, unresolved critical pairs, distinct words,
a failed check), 1 for usage or data errors.  Artifact files are JSON, parsed
by their classes' from_json; malformed input is reported with the file name
and a JSON-pointer path to the offending cell.
The environment variable LEF_STEP_LIMIT overrides the rewriting step limit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import appendix
from .approx import (ApproxPair, FiniteSubset, WrapMap, approx_integers,
                     check_approximating_pair, check_lwf_wrapping,
                     subset_from_integers, subset_from_table, subset_from_words)
from .fsg import (CLASS_FILTERS, MulTable, PartialTable, classify, enumerate_groups,
                  enumerate_semigroups, green)
from .lwf import build_lwf_wrapping, enumerate_preaccurate
from .oracle import DEFAULT_NODE_BOUND, replay_path, word_equal_bfs, word_equal_nf
from .presets import (PRESENTATIONS, bicyclic4_table, has_normal_forms, preset_letters,
                      preset_presentation, preset_system)
from .rewrite import (check_local_confluence, check_termination_order,
                      leftmost_reductions, normal_form, random_normal_form,
                      reduce_once)
from .search import embed_partial_table, malcev_witness_table, relational_assignments
from .words import check_words, words_up_to

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 3

_SAMPLE_CAP = 10  # longest list of violations/pairs echoed in reports
_CLASS_NAMES = ", ".join(name.replace("_", "-") for name in CLASS_FILTERS)


class CliError(Exception):
    """A usage or data problem with a user-facing message."""


def _step_count(text: str) -> int:
    """argparse type of the count flags (--max-steps, --step-limit, --limit,
    --length-bound, --node-bound, --max-order, --failure-cap): an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is below 0")
    return value


# ---------------------------------------------------------------------------
# JSON artifact loading with pointer paths


def _load_artifact(path: str, parse):
    """Read a JSON artifact file and build it with `parse`.  Every data error
    names the file, e.g. `table.json: /table/1/2: entry 9 outside 0..3`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise CliError(f"{path}: no such file") from None
    except IsADirectoryError:
        raise CliError(f"{path}: is a directory") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno}, "
                       f"column {exc.colno}") from None
    try:
        return parse(data)
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from None


def _write_json_file(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _load_table(path: str) -> MulTable:
    return _load_artifact(path, MulTable.from_json)


_NAMED_PARTIALS = {"bicyclic4": bicyclic4_table, "malcev": malcev_witness_table}


def _load_partial(source: str) -> tuple[str, PartialTable]:
    """A partial table from a preset name or a JSON file path."""
    key = source.lower()
    if key in _NAMED_PARTIALS:
        return key, _NAMED_PARTIALS[key]()
    return source, _load_artifact(source, PartialTable.from_json)


# ---------------------------------------------------------------------------
# small shared formatting helpers


def _emit(args, payload: dict, lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _flag(value: bool) -> str:
    return "yes" if value else "no"


def _split_words(text: str, what: str) -> list[str]:
    out = [w.strip() for w in text.split(",") if w.strip()]
    if not out:
        raise CliError(f"{what}: expected a comma-separated list")
    return out


def _parse_relation(text: str) -> tuple[str, str]:
    parts = text.split("=")
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise CliError(f"relation {text!r}: expected the form u=v")
    return parts[0].strip(), parts[1].strip()


def _parse_distinct(text: str) -> tuple[str, str]:
    sep = "!=" if "!=" in text else ","
    parts = text.split(sep)
    if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
        raise CliError(f"distinctness {text!r}: expected the form u!=v")
    return parts[0].strip(), parts[1].strip()


def _normalize_class(name: str) -> str:
    key = name.strip().lower().replace("-", "_")
    if key not in CLASS_FILTERS:
        raise CliError(f"unknown class {name!r}; choose one of {_CLASS_NAMES}")
    return key


def _table_lines(mt: MulTable) -> list[str]:
    labels = [mt.label(i) for i in range(mt.order)]
    width = max((len(l) for l in labels), default=1)
    head = " " * (width + 2) + "  ".join(l.rjust(width) for l in labels)
    lines = [head]
    for i in range(mt.order):
        row = "  ".join(labels[mt.mul(i, j)].rjust(width)
                        for j in range(mt.order))
        lines.append(f"{labels[i].rjust(width)} | {row}")
    return lines


def _eggbox_lines(mt: MulTable, g) -> list[str]:
    idem = set(mt.idempotents())

    def cell(members: list[int]) -> str:
        return " ".join(mt.label(i) + ("*" if i in idem else "")
                        for i in members) or "."

    lines = ["egg-box (rows R-classes, columns L-classes, * idempotent):"]
    for k, jc in enumerate(g.j_classes, start=1):
        jset = set(jc)
        r_rows = [r for r in g.r_classes if set(r) & jset]
        l_cols = [l for l in g.l_classes if set(l) & jset]
        grid = [[cell(sorted(set(r) & set(l))) for l in l_cols] for r in r_rows]
        width = max(len(c) for row in grid for c in row)
        lines.append(f"J-class {k}: {{{', '.join(mt.label(i) for i in jc)}}}")
        for row in grid:
            lines.append("  | " + " | ".join(c.ljust(width) for c in row) + " |")
    return lines


# ---------------------------------------------------------------------------
# verbs: rewriting


def _cmd_rewrite(args) -> int:
    system, word = preset_system(args.system), args.word
    check_words(system.name, (word,))  # the rewriting engine does not check it
    # --max-steps overrides --step-limit; islice stops the walk before a step past it
    limit = args.step_limit if args.max_steps is None else args.max_steps
    trace = list(itertools.islice(leftmost_reductions(system, word, limit), args.max_steps))
    final = trace[-1].word if trace else word
    irreducible = reduce_once(system, final) is None
    payload = {
        "system": system.name,
        "word": args.word,
        "steps": [
            {"rule": r.rule_id, "position": r.position, "matched": r.matched,
             "replacement": r.replacement, "word": r.word}
            for r in trace
        ],
        "result": final,
        "irreducible": irreducible,
    }
    lines = [f"start: {args.word}"]
    lines += [f"  {r.rule_id} @{r.position}: {r.matched!r} -> "
              f"{r.replacement!r} giving {r.word}" for r in trace]
    tail = "normal form" if irreducible else "reduct"
    step_s = "step" if len(trace) == 1 else "steps"
    lines.append(f"{tail}: {final} ({len(trace)} {step_s})")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_nf(args) -> int:
    system, word = preset_system(args.system), args.word
    check_words(system.name, (word,))
    result = (random_normal_form(system, word, random.Random(args.seed), args.step_limit)
              if args.strategy == "random" else normal_form(system, word, args.step_limit))
    payload = {"system": system.name, "word": args.word,
               "strategy": args.strategy, "normal_form": result}
    _emit(args, payload, [result])
    return EXIT_OK


def _cmd_confluence(args) -> int:
    system = preset_system(args.system)
    report = check_local_confluence(system, exponent_bound=args.bound,
                                    step_limit=args.step_limit)
    payload = {
        "system": system.name,
        "bound": args.bound,
        "critical_pairs": report.total,
        "resolved": report.resolved,
        "locally_confluent": report.locally_confluent,
        "unresolved": [
            {"joint": cp.joint, "left": cp.left_result, "right": cp.right_result,
             **{key: {"id": rid, "assignment": asg, "position": pos}
                for key, (rid, asg, pos) in (("rule1", cp.rule1), ("rule2", cp.rule2))}}
            for cp in report.unresolved[:_SAMPLE_CAP]
        ],
    }
    lines = [
        f"system {system.name}: {report.total} critical pairs at exponent "
        f"bound {args.bound}, {report.resolved} resolved",
        f"locally confluent: {_flag(report.locally_confluent)}",
    ]
    for cp in report.unresolved[:_SAMPLE_CAP]:
        lines.append(f"  UNRESOLVED {cp.rule1[0]}/{cp.rule2[0]}: "
                     f"{cp.joint!r} -> {cp.left_result!r} vs {cp.right_result!r}")
    if len(report.unresolved) > _SAMPLE_CAP:
        lines.append(f"  ... {len(report.unresolved) - _SAMPLE_CAP} more")
    _emit(args, payload, lines)
    return EXIT_OK if report.locally_confluent else EXIT_NEGATIVE


def _cmd_termination(args) -> int:
    system = preset_system(args.system)
    report = check_termination_order(system, exponent_bound=args.bound)
    payload = {
        "system": system.name,
        "bound": args.bound,
        "instances": report.checked,
        "shortlex_decreasing": report.all_shortlex_decreasing,
        "shortlex_violations": [
            {"rule": rule, "assignment": asg, "lhs": lhs, "rhs": rhs}
            for rule, asg, lhs, rhs in report.shortlex_violations[:_SAMPLE_CAP]
        ],
        "per_rule": report.per_rule,
    }
    lines = [
        f"system {system.name}: {report.checked} rule instances at exponent "
        f"bound {args.bound}",
        f"shortlex({'<'.join(system.order)}) decreasing: "
        f"{_flag(report.all_shortlex_decreasing)}",
    ]
    for rule, asg, lhs, rhs in report.shortlex_violations[:_SAMPLE_CAP]:
        lines.append(f"  VIOLATION {rule} {asg}: {lhs!r} -> {rhs!r}")
    lex_bad = sorted(r for r, st in report.per_rule.items() if not st["lex_ok"])
    if lex_bad:
        lines.append(f"plain lexicographic order fails on: {', '.join(lex_bad)}")
    _emit(args, payload, lines)
    return EXIT_OK if report.all_shortlex_decreasing else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# verbs: finite tables


def _cmd_green(args) -> int:
    mt = _load_table(args.table)
    if not mt.is_associative():
        raise CliError("table is not associative; Green's relations need a "
                       "semigroup (run `lef classify` for the failures)")
    g = green(mt)

    def names(classes):
        return [[mt.label(i) for i in cls] for cls in classes]

    payload = {
        "order": mt.order,
        "r_classes": names(g.r_classes),
        "l_classes": names(g.l_classes),
        "h_classes": names(g.h_classes),
        "j_classes": names(g.j_classes),
        "r_trivial": g.r_trivial,
        "l_trivial": g.l_trivial,
        "h_trivial": g.h_trivial,
        "j_trivial": g.j_trivial,
    }
    lines = [
        f"order {mt.order}: {len(g.r_classes)} R-, {len(g.l_classes)} L-, "
        f"{len(g.h_classes)} H-, {len(g.j_classes)} J-classes",
    ]
    lines += _eggbox_lines(mt, g)
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_classify(args) -> int:
    mt = _load_table(args.table)
    summary = classify(mt)
    payload = dict(summary)
    lines = []
    for key, value in summary.items():
        if isinstance(value, bool):
            value = _flag(value)
        lines.append(f"{key}: {value}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    kind = "groups" if args.groups else "semigroups"
    up_to_iso = not args.labeled
    if args.groups:
        if args.filter:
            raise CliError("--filter applies to semigroup enumeration only")
        tables = enumerate_groups(args.order, up_to_iso=up_to_iso)
        filter_name = None
    else:
        filter_name = _normalize_class(args.filter) if args.filter else None
        predicate = CLASS_FILTERS[filter_name] if filter_name else None
        tables = enumerate_semigroups(args.order, filter=predicate,
                                      up_to_iso=up_to_iso)
    payload = {
        "kind": kind,
        "order": args.order,
        "filter": filter_name,
        "up_to_iso": up_to_iso,
        "count": len(tables),
    }
    if args.tables:
        payload["tables"] = [mt.to_json() for mt in tables]
    scope = "up to isomorphism" if up_to_iso else "labeled"
    what = kind if not filter_name else f"{filter_name} {kind}"
    lines = [f"{what} of order {args.order} ({scope}): {len(tables)}"]
    if args.tables:
        for k, mt in enumerate(tables, start=1):
            lines.append(f"-- {kind[:-1]} {k}")
            lines += _table_lines(mt)
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_embed(args) -> int:
    name, pt = _load_partial(args.partial)
    class_filter = _normalize_class(args.class_filter)
    result = embed_partial_table(pt, max_order=args.max_order,
                                 class_filter=class_filter)
    payload = {"partial": name, "class": class_filter, **result.as_json()}
    if result.status == "embeddable":
        table, injection = result.witness
        lines = [
            f"embeddable: host of order {table.order} found "
            f"(explored {result.explored} decisions)",
            "injection: " + ", ".join(f"{k} -> {v}"
                                      for k, v in injection.items()),
        ]
        lines += _table_lines(table)
        code = EXIT_OK
    else:
        lines = [
            f"not embeddable up to order {result.bound}: search exhausted "
            f"(explored {result.explored} decisions)",
        ]
        code = EXIT_NEGATIVE
    if args.out:
        _write_json_file(args.out, payload)
        lines.append(f"wrote {args.out}")
    _emit(args, payload, lines)
    return code


def _cmd_assign(args) -> int:
    mt = _load_table(args.table)
    relations = [_parse_relation(r) for r in args.relation or []]
    if args.preset:
        relations.extend(preset_presentation(args.preset).relations)
    if not relations:
        raise CliError("no relations given; use --relation u=v or --preset")
    distinct = [_parse_distinct(d) for d in args.distinct or []]
    total, rows = relational_assignments(mt, relations, distinct)
    found = list(itertools.islice(rows, args.limit))
    payload = {
        "order": mt.order,
        "relations": [[u, v] for u, v in relations],
        "distinct": [[u, v] for u, v in distinct],
        "count": total,
        "assignments": [
            {"assignment": dict(asg),
             "collapsed": [[u, v] for u, v in violations]}
            for asg, violations in found
        ],
    }
    lines = [f"satisfying assignments: {total}"]
    for asg, violations in found:
        head = "  " + " ".join(f"{k}={mt.label(v)}" for k, v in asg.items())
        if violations:
            head += "   collapsed: " + ", ".join(f"{u}={v}"
                                                 for u, v in violations)
        lines.append(head)
    if total > len(found):
        lines.append(f"  ... {total - len(found)} more (raise --limit)")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verbs: approximating pairs and wrapping maps


def _subset_from_args(args) -> FiniteSubset:
    if args.host and args.host_table:
        raise CliError("give either --host or --host-table, not both")
    if args.host:
        if not args.words:
            raise CliError("--host needs --words with the subset words")
        if args.host.lower() == "free:int":
            return subset_from_integers(_integers(args.words, "--words"))
        return subset_from_words(args.host.lower(),
                                 _split_words(args.words, "--words"))
    if args.host_table:
        if not args.members:
            raise CliError("--host-table needs --members with element labels")
        mt = _load_table(args.host_table)
        return subset_from_table(mt, _split_words(args.members, "--members"))
    raise CliError("a subset needs --host/--words or --host-table/--members")


def _check_lines(result) -> list[str]:
    if result.valid:
        return ["check: valid"]
    ctx = ", ".join(str(h) for h in result.counterexample or ())
    return [f"check: INVALID ({result.reason}) on ({ctx})"]


def _integers(text: str, what: str) -> list[int]:
    values = []
    for tok in _split_words(text, what):
        try:
            values.append(int(tok))
        except ValueError:
            raise CliError(f"{what}: {tok!r} is not an integer") from None
    return values


def _cmd_approx_integers(args) -> int:
    values = _integers(args.values, "--values")
    pair = approx_integers(values)
    subset = subset_from_integers(sorted(set(values)))
    result = check_approximating_pair(subset, pair)
    payload = {**pair.as_json(), "check": result.as_json()}
    lines = [
        f"values: {', '.join(str(v) for v in subset.elements)}",
        f"modulus: {pair.F.order}",
        "map: " + ", ".join(f"{v} -> {pair.f[v]}" for v in subset.elements),
    ] + _check_lines(result)
    if args.out:
        _write_json_file(args.out, pair.as_json())
        lines.append(f"wrote {args.out}")
    _emit(args, payload, lines)
    return EXIT_OK if result.valid else EXIT_NEGATIVE


def _cmd_approx_check(args) -> int:
    if bool(args.pair) == bool(args.wrap):
        raise CliError("give exactly one of --pair or --wrap")
    subset = _subset_from_args(args)
    if args.pair:
        pair = _load_artifact(args.pair, ApproxPair.from_json)
        result = check_approximating_pair(subset, pair)
        kind = "approximating pair"
    else:
        wrap = _load_artifact(args.wrap, lambda d: WrapMap.from_json(d).check_images(subset.host))
        result = check_lwf_wrapping(subset, wrap)
        kind = "wrapping map"
    payload = {"kind": kind, "subset_size": len(subset.elements),
               **result.as_json()}
    lines = [f"{kind} on a subset of {len(subset.elements)} elements"]
    lines += _check_lines(result)
    _emit(args, payload, lines)
    return EXIT_OK if result.valid else EXIT_NEGATIVE


def _cmd_lwf_build(args) -> int:
    pid = args.preset.lower()
    if args.subset:
        members = _split_words(args.subset, "--subset")
    else:
        members = list(words_up_to(pid, args.n))
    wrap = build_lwf_wrapping(pid, members, args.n)
    payload = {
        "preset": pid,
        "n": args.n,
        "subset": members,
        "carrier_order": wrap.D.order,
        "distinct_images": len(wrap.images),
    }
    lines = [
        f"wrapping map for {len(members)} "
        f"word{'s' if len(members) != 1 else ''} of length <= {args.n} "
        f"over preset {pid}",
        f"carrier order: {wrap.D.order}",
        f"distinct image words: {len(wrap.images)}",
    ]
    code = EXIT_OK
    if args.no_check:
        payload["check"] = None
        lines.append("check: skipped")
    else:
        subset = subset_from_words(pid, members)
        result = check_lwf_wrapping(subset, wrap)
        payload["check"] = result.as_json()
        lines += _check_lines(result)
        if not result.valid:
            code = EXIT_NEGATIVE
    if args.out:
        _write_json_file(args.out, wrap.as_json())
        lines.append(f"wrote {args.out}")
    _emit(args, payload, lines)
    return code


def _cmd_lwf_words(args) -> int:
    pre = enumerate_preaccurate(args.preset.lower(), args.n,
                                length_cap=args.cap)
    payload = pre.as_json()
    by_length: dict[int, list[str]] = {}
    for w in pre.words:
        by_length.setdefault(len(w), []).append(w)
    lines = [
        f"preset {pre.preset}, n={pre.n}, cap {pre.length_cap}: "
        f"{len(pre.words)} pre-accurate words (max length {pre.max_length}, "
        f"{'truncated' if pre.truncated else 'complete'})",
    ]
    for ell in sorted(by_length):
        lines.append(f"length {ell}: {', '.join(by_length[ell])}")
    if pre.indeterminate:
        lines.append(f"indeterminate: {len(pre.indeterminate)} words excluded")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verbs: word problem


def _cmd_eq(args) -> int:
    pid = args.preset.lower()
    method = args.method
    if method == "auto":
        method = "nf" if has_normal_forms(pid) else "bfs"
    if method == "nf":
        if args.length_bound is not None or args.node_bound is not None:
            raise CliError("--length-bound and --node-bound bound only the search "
                           "of --method bfs (presets q, s, t, c); normal forms "
                           "take no bounds")
        verdict = word_equal_nf(pid, args.u, args.v)
    else:
        node_bound = DEFAULT_NODE_BOUND if args.node_bound is None else args.node_bound
        verdict = word_equal_bfs(pid, args.u, args.v,
                                 length_bound=args.length_bound, node_bound=node_bound)
    payload = {"preset": pid, "u": args.u, "v": args.v, "method": method,
               **verdict.as_json()}
    lines = [f"verdict: {verdict.status}"]
    ev = verdict.evidence
    kind = ev.get("kind")
    if kind == "normal_form":
        rel = "=" if verdict.status == "equal" else "!="
        lines.append(f"normal forms: {ev['left']!r} {rel} {ev['right']!r}")
    elif kind == "invariant":
        lines.append(f"separating invariant: {ev['name']}")
    elif kind == "path":
        lines.append(f"path ({len(ev['path'])} words):")
        lines += [f"  {w}" for w in ev["path"]]
    elif kind == "closure":
        lines.append(f"congruence class of the {ev['side']} word has "
                     f"{ev['closure_size']} elements; the other word is "
                     f"not among them")
    elif kind == "bound":
        lines.append(f"bounds exhausted: length <= {ev['length_bound']}, "
                     f"nodes <= {ev['node_bound']}, explored {ev['explored']}")
    _emit(args, payload, lines)
    return EXIT_OK if verdict.status == "equal" else EXIT_NEGATIVE


def _extract_path(data) -> list[str]:
    if isinstance(data, dict):
        if "path" in data:
            data = data["path"]
        elif isinstance(data.get("evidence"), dict) and \
                "path" in data["evidence"]:
            data = data["evidence"]["path"]
        else:
            raise ValueError("/: no 'path' or 'evidence.path' in the file")
    if not isinstance(data, list) or \
            any(not isinstance(w, str) for w in data):
        raise ValueError("/path: expected a list of words")
    return data


def _cmd_replay(args) -> int:
    if bool(args.file) == bool(args.words):
        raise CliError("give exactly one of --file or --words")
    if args.file:
        path = _load_artifact(args.file, _extract_path)
    else:
        path = _split_words(args.words, "--words")
    ok = replay_path(args.preset.lower(), path)
    payload = {"preset": args.preset.lower(), "path": path, "valid": ok}
    lines = [f"path of {len(path)} words replays in preset "
             f"{args.preset.lower()}: {_flag(ok)}"]
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# verbs: verification campaigns and preset listing


def _cmd_verify_appendix(args) -> int:
    which = args.which.upper()
    report = appendix.verify_appendix(which, n=args.n, max_exp=args.max_exp,
                                      failure_cap=args.failure_cap)
    payload = report.as_json()
    _emit(args, payload, report.summary_lines())
    return EXIT_OK if report.all_joined else EXIT_NEGATIVE


def _preset_rows() -> list[dict]:
    rows = [{"id": pid, "kind": "presentation", **pres.as_json()}
            for pid, pres in PRESENTATIONS.items()]
    # a family's letters are those of each member
    for family, member, relations in (("sm:<m>", "sm:2", [["e^m", "e"]]),
                                      ("fn:<n>", "fn:1", [])):
        rows.append({"id": family, "kind": "family",
                     "generators": list(preset_letters(member)),
                     "relations": relations})
    pt = bicyclic4_table()
    rows.append({
        "id": "bicyclic4",
        "kind": "partial-table",
        "elements": list(pt.elements),
        "defined_products": len(pt.products),
    })
    return rows


def _cmd_presets(args) -> int:
    rows = _preset_rows()
    payload = {"presets": rows}
    lines = []
    for row in rows:
        if row["kind"] == "presentation":
            rel = ", ".join(f"{u}={v}" for u, v in row["relations"])
            lines.append(f"{row['id']:<10} generators "
                         f"{','.join(row['generators'])}; relations {rel}")
        elif row["id"].startswith("sm"):
            lines.append(f"{row['id']:<10} generators "
                         f"{','.join(row['generators'])}; relation e^m=e "
                         f"(m >= 2)")
        elif row["id"].startswith("fn"):
            lines.append(f"{row['id']:<10} finite quotient family (n >= 1); "
                         f"convergent rewriting system over "
                         f"{''.join(row['generators'])}")
        else:
            lines.append(f"{row['id']:<10} partial table on "
                         f"{','.join(row['elements'])} "
                         f"({row['defined_products']} defined products)")
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON report instead of text")

    parser = _Parser(
        prog="lef",
        description="Executable semigroup constructions: rewriting systems, "
                    "finite-table analysis, bounded embedding search, "
                    "approximating pairs and wrapping maps.",
        epilog="exit codes: 0 verified/positive, 3 clean negative, "
               "1 usage or data error",
    )
    sub = parser.add_subparsers(dest="verb", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("rewrite", parents=[common],
                       help="show a reduction trace")
    p.add_argument("--system", required=True, help="q or fn:<n>")
    p.add_argument("--word", required=True)
    p.add_argument("--max-steps", type=_step_count, default=None,
                   help="stop after this many steps (default: to normal form)")
    p.add_argument("--step-limit", type=_step_count, default=None)
    p.set_defaults(handler=_cmd_rewrite)

    p = sub.add_parser("nf", parents=[common], help="print the normal form")
    p.add_argument("--system", required=True, help="q or fn:<n>")
    p.add_argument("--word", required=True)
    p.add_argument("--strategy", choices=("leftmost", "random"),
                   default="leftmost")
    p.add_argument("--seed", type=int, default=0,
                   help="rng seed for --strategy random (default 0)")
    p.add_argument("--step-limit", type=_step_count, default=None)
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("confluence", parents=[common],
                       help="check local confluence at an exponent bound")
    p.add_argument("--system", required=True, help="q or fn:<n>")
    p.add_argument("--bound", type=int, default=2,
                   help="exponent bound for rule instantiation (default 2)")
    p.add_argument("--step-limit", type=_step_count, default=None)
    p.set_defaults(handler=_cmd_confluence)

    p = sub.add_parser("termination", parents=[common],
                       help="check that every bounded rule instance "
                            "decreases shortlex")
    p.add_argument("--system", required=True, help="q or fn:<n>")
    p.add_argument("--bound", type=int, default=4,
                   help="exponent bound for rule instantiation (default 4)")
    p.set_defaults(handler=_cmd_termination)

    p = sub.add_parser("green", parents=[common],
                       help="Green's relations and the egg-box diagram")
    p.add_argument("--table", required=True, help="table JSON file")
    p.set_defaults(handler=_cmd_green)

    p = sub.add_parser("classify", parents=[common],
                       help="structural summary of a finite table")
    p.add_argument("--table", required=True, help="table JSON file")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("enumerate", parents=[common],
                       help="count small semigroups or groups")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--filter", default=None,
                   help=f"class filter: {_CLASS_NAMES}")
    p.add_argument("--groups", action="store_true",
                   help="enumerate groups instead of semigroups")
    p.add_argument("--labeled", action="store_true",
                   help="count labeled tables instead of isomorphism classes")
    p.add_argument("--tables", action="store_true",
                   help="print every table, not just the count")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("embed", parents=[common],
                       help="bounded embedding search for a partial table")
    p.add_argument("--partial", required=True,
                   help="preset name (bicyclic4, malcev) or JSON file")
    p.add_argument("--max-order", type=_step_count, required=True)
    p.add_argument("--class", dest="class_filter", default="any",
                   help=f"restrict hosts: {_CLASS_NAMES}")
    p.add_argument("--out", default=None, help="write the result JSON here")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("assign", parents=[common],
                       help="enumerate relation-satisfying assignments "
                            "into a finite table")
    p.add_argument("--table", required=True, help="table JSON file")
    p.add_argument("--relation", action="append", metavar="U=V",
                   help="a word equation (repeatable)")
    p.add_argument("--preset", default=None,
                   help="use this preset's defining relations")
    p.add_argument("--distinct", action="append", metavar="U!=V",
                   help="flag assignments collapsing this pair (repeatable)")
    p.add_argument("--limit", type=_step_count, default=20,
                   help="assignments echoed in the report (default 20)")
    p.set_defaults(handler=_cmd_assign)

    p = sub.add_parser("approx", parents=[],
                       help="build or check approximating pairs")
    asub = p.add_subparsers(dest="approx_verb", required=True,
                            parser_class=_Parser)

    q = asub.add_parser("integers", parents=[common],
                        help="approximating pair for a finite set of integers")
    q.add_argument("--values", required=True, help="comma-separated integers")
    q.add_argument("--out", default=None, help="write the pair JSON here")
    q.set_defaults(handler=_cmd_approx_integers)

    q = asub.add_parser("check", parents=[common],
                        help="check a saved pair or wrapping map "
                             "against a subset")
    q.add_argument("--pair", default=None, help="ApproxPair JSON file")
    q.add_argument("--wrap", default=None, help="WrapMap JSON file")
    q.add_argument("--host", default=None,
                   help="word host preset (q, s, t, c, sm:<m>, fn:<n>)")
    q.add_argument("--words", default=None,
                   help="comma-separated subset words for --host")
    q.add_argument("--host-table", default=None, help="table JSON host")
    q.add_argument("--members", default=None,
                   help="comma-separated element labels for --host-table")
    q.set_defaults(handler=_cmd_approx_check)

    p = sub.add_parser("lwf", parents=[],
                       help="wrapping maps via pre-accurate words")
    lsub = p.add_subparsers(dest="lwf_verb", required=True,
                            parser_class=_Parser)

    q = lsub.add_parser("build", parents=[common],
                        help="build and check a wrapping map")
    q.add_argument("--preset", required=True, help="s or t")
    q.add_argument("--n", type=int, required=True,
                   help="representative length bound of the subset")
    q.add_argument("--subset", default=None,
                   help="comma-separated subset words "
                        "(default: all words of length <= n)")
    q.add_argument("--no-check", action="store_true",
                   help="skip the wrapping check after the build")
    q.add_argument("--out", default=None, help="write the WrapMap JSON here")
    q.set_defaults(handler=_cmd_lwf_build)

    q = lsub.add_parser("words", parents=[common],
                        help="enumerate pre-accurate words")
    q.add_argument("--preset", required=True, help="q, s, t or c")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--cap", type=int, default=None,
                   help="length cap (default 2n+4)")
    q.set_defaults(handler=_cmd_lwf_words)

    p = sub.add_parser("eq", parents=[common],
                       help="decide equality of two words in a preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--method", choices=("auto", "nf", "bfs"), default="auto")
    p.add_argument("--length-bound", type=_step_count, default=None)
    p.add_argument("--node-bound", type=_step_count, default=None,
                   help=f"nodes the bfs search may visit (default {DEFAULT_NODE_BOUND:,})")
    p.set_defaults(handler=_cmd_eq)

    p = sub.add_parser("replay", parents=[common],
                       help="re-check a relation path from `lef eq --json`")
    p.add_argument("--preset", required=True)
    p.add_argument("--file", default=None,
                   help="JSON file holding the path (eq output accepted)")
    p.add_argument("--words", default=None, help="comma-separated path words")
    p.set_defaults(handler=_cmd_replay)

    p = sub.add_parser("verify-appendix", parents=[common],
                       help="joinability campaign over the transcribed "
                            "critical-pair tables")
    p.add_argument("--which", required=True, help="A or B")
    p.add_argument("--n", type=int, default=None,
                   help="family parameter (table B only)")
    p.add_argument("--max-exp", type=int, default=4)
    p.add_argument("--failure-cap", type=_step_count, default=5)
    p.set_defaults(handler=_cmd_verify_appendix)

    p = sub.add_parser("presets", parents=[common],
                       help="list the built-in presets")
    p.set_defaults(handler=_cmd_presets)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    try:
        return args.handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, KeyError, TypeError, RuntimeError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
