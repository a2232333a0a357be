"""Command-line interface.

Commands:
    props EXPR      property report for a ring expression
    verify CLAUSE (EXPR | --catalog)
                    evaluate one clause on one instance or over the catalog
    examples        rebuild and check every worked example
    search          hierarchy witness search over the catalog
    suite           every clause + search + examples; exit 1 on any violation
    encode EXPR     print the element encoding table of a ring
    grammar         print the expression grammar (EBNF)

Output is deterministic: identical invocations produce byte-identical
stdout.  `--machine` switches to one `key=value` record per line (UTF-8,
LF); `--timing` prints elapsed times to stderr only, keeping stdout stable.
`--max-ring-size` caps every ring built, the worked examples included; the
ideal-lattice guard is fixed (256 elements, 128 ideals) and has no flag.
Exit codes: 0 clean, 1 violation or counterexample, 2 usage/parse/cap error,
3 internal error (a built-in self-check failed, or a KeyError escaped: a bug
in this package).
"""
from __future__ import annotations

import argparse
import sys
import time

from .errors import (
    AmalgamError,
    BudgetExceededError,
    CapExceededError,
    EvaluationError,
    InternalCheckError,
    ParseError,
)
from .expressions import GRAMMAR_TEXT, Evaluator, parse
from .harness import (
    CLAUSE_IDS,
    CLAUSES,
    Catalog,
    CatalogParams,
    ExampleReport,
    Verdict,
    build_catalog,
    reproduce_examples,
    verify_clauses,
    verify_instance,
)
from .ideals import format_members
from .properties import PropertyReport, fact_field, property_report
from .rings import DEFAULT_SIZE_CAP

_USAGE_ERROR = 2
_VIOLATION = 1
_INTERNAL_ERROR = 3


def _emit(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _timing(enabled: bool, label: str, seconds: float) -> None:
    if enabled:
        sys.stderr.write(f"timing {label}={seconds:.3f}s\n")


def _record(pairs: list[tuple[str, str]]) -> str:
    return " ".join(f"{k}={v}" for k, v in pairs)


# -- props ----------------------------------------------------------------------


def _bool_word(value: bool) -> str:
    return "true" if value else "false"


def _props_pairs(expr_text: str, report: PropertyReport) -> list[tuple[str, str]]:
    pairs = [("kind", "props"), ("expr", expr_text), ("size", str(report.size))]
    for name, value in report.facts():
        pairs.append((fact_field(name), _bool_word(value)))
        if name == "local" and report.maximal_ideal is not None:
            pairs.append(("maximal_ideal", format_members(report.maximal_ideal.members)))
    if report.oracle_degree is not None:
        pairs.append(("oracle_degree", str(report.oracle_degree)))
        pairs.append(("oracle_gaussian", _bool_word(bool(report.oracle_gaussian))))
    return pairs


def _cmd_props(args: argparse.Namespace) -> int:
    if args.oracle_degree is not None and args.oracle_degree < 0:
        sys.stderr.write(f"error: --oracle-degree must be >= 0, got {args.oracle_degree}\n")
        return _USAGE_ERROR
    expr = parse(args.expr)
    ring = Evaluator(size_cap=args.max_ring_size).ring(expr)
    started = time.perf_counter()
    report = property_report(ring, oracle_degree=args.oracle_degree)
    _timing(args.timing, "props", time.perf_counter() - started)
    canonical = expr.unparse()
    if args.machine:
        pairs = _props_pairs(canonical, report)
        if args.witness:
            if report.gaussian_witness is not None:
                factor, a, b = report.gaussian_witness
                pairs.append(("gaussian_witness", f"({a},{b})in{factor}"))
            if report.arithmetical_witness is not None:
                i, j, k = report.arithmetical_witness
                pairs.append(
                    (
                        "arithmetical_witness",
                        f"{format_members(i.members)}|{format_members(j.members)}|{format_members(k.members)}",
                    )
                )
            if report.oracle_witness is not None:
                f, g = report.oracle_witness
                pairs.append(("oracle_witness", f"f={list(f.coeffs)}g={list(g.coeffs)}".replace(" ", "")))
        _emit(_record(pairs))
        return 0
    _emit(f"ring                 {canonical}")
    _emit(f"size                 {report.size}")
    for name, value in report.facts():
        word = "yes" if value else "no"
        if name == "local" and report.maximal_ideal is not None:
            word += f", maximal ideal {format_members(report.maximal_ideal.members)}"
        _emit(f"{name.lower():21s}{word}")
    if args.witness and report.gaussian_witness is not None:
        factor, a, b = report.gaussian_witness
        _emit(f"gaussian witness     pair ({a},{b}) in local factor {factor}")
    if args.witness and report.arithmetical_witness is not None:
        i, j, k = report.arithmetical_witness
        _emit(
            "arithmetical witness "
            f"I={format_members(i.members)} J={format_members(j.members)} K={format_members(k.members)}"
        )
    if report.oracle_degree is not None:
        _emit(f"content oracle       degree {report.oracle_degree}: {'pass' if report.oracle_gaussian else 'fail'}")
        if args.witness and report.oracle_witness is not None:
            f, g = report.oracle_witness
            _emit(f"oracle witness       f coeffs {list(f.coeffs)}, g coeffs {list(g.coeffs)}")
    return 0


# -- verify ----------------------------------------------------------------------


def _verdict_lines(verdict: Verdict, machine: bool) -> list[str]:
    if machine:
        return [_record([("kind", "verdict")] + verdict.record_pairs())]
    line = (
        f"{verdict.clause:13s} {verdict.status:12s} checked={verdict.checked}"
        f" applicable={verdict.applicable} violations={verdict.violations}"
    )
    out = [line]
    if verdict.reason:
        out.append(f"{'':13s} reason: {verdict.reason}")
    if verdict.witness:
        out.append(f"{'':13s} witness: {verdict.witness}")
    for key in sorted(verdict.details):
        out.append(f"{'':13s} {key}: {verdict.details[key]}")
    return out


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.clause not in CLAUSE_IDS:
        sys.stderr.write(
            f"error: unknown clause {args.clause!r}; valid: {', '.join(CLAUSE_IDS)}\n"
        )
        return _USAGE_ERROR
    started = time.perf_counter()
    if args.catalog:
        catalog = _catalog_from_args(args)
        verdict = verify_clauses(catalog, [args.clause])[args.clause]
    else:
        if not args.expr:
            sys.stderr.write("error: verify needs an instance expression or --catalog\n")
            return _USAGE_ERROR
        if args.clause == "chain":
            sys.stderr.write("error: the chain clause runs only with --catalog\n")
            return _USAGE_ERROR
        inst = Evaluator(size_cap=args.max_ring_size).instance(parse(args.expr))
        verdict = verify_instance(inst, args.clause)
    _timing(args.timing, f"verify:{args.clause}", time.perf_counter() - started)
    for line in _verdict_lines(verdict, args.machine):
        _emit(line)
    return 0 if verdict.ok else _VIOLATION


# -- examples / search / suite -----------------------------------------------------


def _example_lines(report: ExampleReport, machine: bool) -> list[str]:
    if machine:
        return [_record([("kind", "example")] + report.record_pairs())]
    out = [f"example {report.example_id:5s} {report.status:13s} {report.title}"]
    if report.instance_label:
        out.append(f"    instance: {report.instance_label}")
    if report.replaced_with:
        out.append(f"    replaced with catalog instance: {report.replaced_with}")
    for name, ok in report.hypothesis_results:
        out.append(f"    hypothesis {name}: {'holds' if ok else 'FAILS'}")
    for name, expected, actual in report.conclusion_results:
        mark = "ok" if expected == actual else "MISMATCH"
        out.append(f"    conclusion {name}: expected {expected}, computed {actual} [{mark}]")
    for note in report.notes:
        out.append(f"    note: {note}")
    return out


def _cmd_examples(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    reports = reproduce_examples(size_cap=args.max_ring_size)
    _timing(args.timing, "examples", time.perf_counter() - started)
    bad = False
    for report in reports:
        for line in _example_lines(report, args.machine):
            _emit(line)
        bad = bad or not report.ok
    return _VIOLATION if bad else 0


def _cmd_search(args: argparse.Namespace) -> int:
    catalog = _catalog_from_args(args)
    started = time.perf_counter()
    verdict = verify_clauses(catalog, [], with_search=True)["search"]
    _timing(args.timing, "search", time.perf_counter() - started)
    for line in _verdict_lines(verdict, args.machine):
        _emit(line)
    if not args.machine:
        _emit(f"{'':13s} gaussian-not-arithmetical rings found: {verdict.counts.get('gaussian_not_arithmetical', 0)}")
        _emit(f"{'':13s} prufer-not-gaussian rings found:      {verdict.counts.get('prufer_not_gaussian', 0)}")
    return 0 if verdict.ok else _VIOLATION


def _cmd_suite(args: argparse.Namespace) -> int:
    # the examples run first, so a cap too small for one of them refuses
    # before the catalog is built and swept; they still print last
    started = time.perf_counter()
    reports = reproduce_examples(size_cap=args.max_ring_size)
    elapsed = time.perf_counter() - started
    catalog = _catalog_from_args(args)
    started = time.perf_counter()
    verdicts = verify_clauses(catalog, list(CLAUSE_IDS), with_search=True)
    _timing(args.timing, "suite", elapsed + time.perf_counter() - started)
    violation = False
    for verdict in verdicts.values():  # every clause, then the search
        for line in _verdict_lines(verdict, args.machine):
            _emit(line)
        violation = violation or not verdict.ok
    for report in reports:
        for line in _example_lines(report, args.machine):
            _emit(line)
        violation = violation or not report.ok
    if not args.machine:
        _emit()
        _emit(f"suite: {'VIOLATIONS FOUND' if violation else 'all checks passed'}")
    return _VIOLATION if violation else 0


def _cmd_encode(args: argparse.Namespace) -> int:
    expr = parse(args.expr)
    ring = Evaluator(size_cap=args.max_ring_size).ring(expr)
    canonical = expr.unparse()
    if args.machine:
        for i in range(ring.size):
            _emit(_record([("kind", "encode"), ("expr", canonical), ("index", str(i)), ("name", ring.element_names[i])]))
        return 0
    _emit(f"element encoding for {canonical} (size {ring.size}, zero={ring.zero}, one={ring.one})")
    width = len(str(ring.size - 1))
    for i in range(ring.size):
        _emit(f"  {i:>{width}}  {ring.element_names[i]}")
    return 0


def _cmd_grammar(_args: argparse.Namespace) -> int:
    _emit(GRAMMAR_TEXT.rstrip("\n"))
    return 0


# -- plumbing -----------------------------------------------------------------------


def _catalog_from_args(args: argparse.Namespace) -> Catalog:
    return build_catalog(CatalogParams(size_cap=args.max_ring_size))


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--machine", action="store_true", help="one key=value record per line")
    p.add_argument("--timing", action="store_true", help="print elapsed times to stderr")
    p.add_argument("--max-ring-size", type=int, default=DEFAULT_SIZE_CAP, metavar="N")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amalgam",
        description="finite commutative ring calculator: amalgamated algebras and the "
        "arithmetical/Gaussian/Prufer hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("props", help="property report for a ring expression")
    p.add_argument("expr")
    p.add_argument("--witness", action="store_true", help="include witnesses for failed properties")
    p.add_argument("--oracle-degree", type=int, default=None, metavar="D")
    _add_common(p)
    p.set_defaults(func=_cmd_props)

    clause_help = "\n".join(f"  {cid:13s} {clause.description}" for cid, clause in CLAUSES.items())
    p = sub.add_parser(
        "verify",
        help="verify a clause on an instance or the catalog",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="clauses:\n" + clause_help,
    )
    p.add_argument("clause", metavar="CLAUSE", help=", ".join(CLAUSE_IDS))
    p.add_argument("expr", nargs="?", default=None, metavar="EXPR")
    p.add_argument("--catalog", action="store_true", help="sweep the generated catalog")
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("examples", help="rebuild and check the worked examples")
    _add_common(p)
    p.set_defaults(func=_cmd_examples)

    p = sub.add_parser("search", help="hierarchy witness search over the catalog")
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("suite", help="all clauses, the search, and the examples")
    _add_common(p)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("encode", help="print the element encoding table of a ring")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("grammar", help="print the expression grammar (EBNF)")
    p.set_defaults(func=_cmd_grammar)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max_ring_size", DEFAULT_SIZE_CAP) < 1:
        sys.stderr.write(f"error: --max-ring-size must be >= 1, got {args.max_ring_size}\n")
        return _USAGE_ERROR
    try:
        code = args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return _USAGE_ERROR
    except (CapExceededError, BudgetExceededError) as exc:
        sys.stderr.write(f"cap exceeded: {exc}\n")
        return _USAGE_ERROR
    except EvaluationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE_ERROR
    except KeyError as exc:  # escaped from package code: a bug, never bad input
        sys.stderr.write(f"internal error (a bug in amalgam, please report it): KeyError {exc}\n")
        return _INTERNAL_ERROR
    except InternalCheckError as exc:
        sys.stderr.write(f"internal error (a bug in amalgam, please report it): {exc}\n")
        return _INTERNAL_ERROR
    except AmalgamError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return _USAGE_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
