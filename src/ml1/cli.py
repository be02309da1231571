"""Batch driver: parse, resolve, rewrite, run, and lint ml1 projects.

Exit codes: 0 success, 1 semantic diagnostics (ambiguity, divergence),
2 lex/parse/runtime failure. One exception: lint exits 2 when the project
has scope or resolution diagnostics, so its 1 means divergences only. File
order on the command line fixes symbol table construction order, so
identical invocations produce identical output bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

from ml1 import ast
from ml1.parser import ParseError, parse_unit
from ml1.record import replace
from ml1.tokens import LexError, tokenize

# The semantic phases, the printer, the `resolve --dump` writer and the
# diagnostics are imported where they are used, so `parse` loads only the
# lexer, the parser and the AST.
if TYPE_CHECKING:
    from ml1.resolve import Resolution
    from ml1.rewrite import RewriteReport
    from ml1.scopes import ScopeGraph

OK = 0
SEMANTIC = 1
FAILURE = 2


class _Exit(Exception):
    def __init__(self, status: int):
        self.status = status


def _load_units(paths: list[str]) -> list[ast.CompilationUnit]:
    units = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as file:
                source = file.read()
        except (OSError, UnicodeDecodeError) as err:
            print(f"{path}: {err}", file=sys.stderr)
            raise _Exit(FAILURE) from err
        try:
            units.append(parse_unit(tokenize(source), path))
        except (LexError, ParseError) as err:
            label = f"{err.code}: " if err.code else ""
            print(f"{path}: {label}{err}", file=sys.stderr)
            raise _Exit(FAILURE) from err
    return units


def _report_diagnostics(graph: ScopeGraph, resolution: Resolution | None = None) -> bool:
    diags = list(graph.diagnostics)
    if resolution is not None:
        diags += resolution.diagnostics
    for diag in sorted(diags, key=lambda d: d.render()):
        print(diag.render(), file=sys.stderr)
    return bool(diags)


def _dump(document: object) -> str:
    """A generic tree as JSON, for `parse --dump-ast` and `rewrite --dump`.
    `resolve --dump` has its own writer (`ml1.dump`): `indent=2` makes
    `json.dumps` use its pure-Python encoder, which costs most of that
    command's time on large closures. `json` loads here, not at start-up,
    because no other command needs it."""
    import json

    return json.dumps(document, indent=2)


# Subcommands -----------------------------------------------------------------


def cmd_parse(args) -> int:
    units = _load_units(args.files)
    if args.dump_ast:
        for unit in units:
            if args.format == "pretty":
                from ml1.printer import pretty_print

                sys.stdout.write(pretty_print(unit))
            else:
                print(_dump(ast.to_dict(unit)))
    return OK


def cmd_resolve(args) -> int:
    from ml1.resolve import resolve_units
    from ml1.scopes import build_scope_graph

    units = _load_units(args.files)
    graph = build_scope_graph(units)
    resolution = resolve_units(graph, units)
    if args.dump and args.format == "pretty":
        for unit, records in resolution.records_by_unit():
            for record in records:
                target = record.symbol.fqn if record.symbol else "<unresolved>"
                print(f"{unit}:{record.span.start}-{record.span.end} {record.name} -> {target}")
    elif args.dump:
        from ml1.dump import write_resolution

        write_resolution(sys.stdout, graph, resolution)
    had = _report_diagnostics(graph, resolution)
    return SEMANTIC if had else OK


def _rewrite_units(graph: ScopeGraph) -> list[tuple[ast.CompilationUnit, RewriteReport] | None]:
    """Each of the graph's units with the rewriter its imports switch on
    bound and applied, and its report; None for a unit whose rewriter
    fails. A diagnostic that names no unit is about the unit at hand. Units
    that see the same broken rewriter report it alike, so each distinct
    diagnostic is printed once, in the order first met."""
    from ml1.diagnostics import SemanticError
    from ml1.rewrite import apply_rewriter, bind_rewriter

    results: list[tuple[ast.CompilationUnit, RewriteReport] | None] = []
    reported: set[str] = set()
    for unit in graph.units:
        try:
            chain = bind_rewriter(graph, unit)
            results.append(apply_rewriter(chain, unit))
        except SemanticError as err:
            diagnostic = err.diagnostic
            if diagnostic.unit is None:
                diagnostic = replace(diagnostic, unit=unit.source_name)
            line = diagnostic.render()
            if line not in reported:
                reported.add(line)
                print(line, file=sys.stderr)
            results.append(None)
    return results


def cmd_rewrite(args) -> int:
    from ml1.printer import pretty_print
    from ml1.scopes import build_scope_graph

    units = _load_units(args.files)
    graph = build_scope_graph(units)
    if _report_diagnostics(graph):
        return SEMANTIC
    results = _rewrite_units(graph)
    for result in results:
        if result is None:
            continue
        rewritten, report = result
        sys.stdout.write(pretty_print(rewritten))
        if args.dump:
            if args.format == "pretty":
                print(f"# chain={report.chain} templates={report.templates_touched} nodes={report.nodes_replaced}")
            else:
                print(_dump(report.as_dict()))
    return SEMANTIC if None in results else OK


def cmd_run(args) -> int:
    from ml1.interp import run
    from ml1.resolve import resolve_units
    from ml1.scopes import build_scope_graph

    units = _load_units(args.files)
    graph = build_scope_graph(units)
    if _report_diagnostics(graph):
        return SEMANTIC
    results = _rewrite_units(graph)
    if None in results:
        return SEMANTIC
    rewritten = [unit for unit, _ in results]
    final_graph = build_scope_graph(rewritten)
    resolution = resolve_units(final_graph, rewritten)
    if _report_diagnostics(final_graph, resolution):
        return SEMANTIC
    trace = run(final_graph, resolution, args.entry)
    if trace.events:
        sys.stdout.write("\n".join(trace.events) + "\n")
    if trace.failed:
        print(f"error: {trace.error.message}", file=sys.stderr)
        for suppressed in trace.error.suppressed:
            print(f"suppressed: {suppressed.message}", file=sys.stderr)
        return FAILURE
    return OK


def cmd_lint(args) -> int:
    from ml1.resolve import check_context_consistency, resolve_units
    from ml1.scopes import build_scope_graph

    units = _load_units(args.files)
    graph = build_scope_graph(units)
    resolution = resolve_units(graph, units)
    if _report_diagnostics(graph, resolution):
        return FAILURE
    lines = []
    for marker in dict.fromkeys(args.marker):  # a repeated marker is checked once
        for divergence in check_context_consistency(graph, marker):
            lines.append(divergence.render())
    for line in sorted(lines):
        print(line)
    return SEMANTIC if lines else OK


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ml1", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("files", nargs="+", metavar="FILE")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    # Only the commands that dump have a format to choose.
    formats = {"--format": {"choices": ("json", "pretty"), "default": "json"}}
    add("parse", cmd_parse, **formats, **{"--dump-ast": {"action": "store_true", "dest": "dump_ast"}})
    add("resolve", cmd_resolve, **formats, **{"--dump": {"action": "store_true"}})
    add("rewrite", cmd_rewrite, **formats, **{"--dump": {"action": "store_true"}})
    add("run", cmd_run, **{"--entry": {"required": True, "metavar": "FQN"}})
    add("lint", cmd_lint, **{"--marker": {"action": "append", "required": True, "metavar": "FQN"}})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:
        # An unknown option's value may have been taken as a FILE, pushing
        # a real file into the leftovers: name only the option words then.
        options = [word for word in extras if word.startswith("-")]
        parser.error(f"unrecognized arguments: {' '.join(options or extras)}")
    try:
        return args.fn(args)
    except _Exit as stop:
        return stop.status
    except Exception as err:  # keep the 0/1/2 contract even for surprises
        print(f"ml1: internal error: {err}", file=sys.stderr)
        if os.environ.get("ML1_DEBUG") == "1":
            import traceback

            traceback.print_exc()
        return FAILURE


def script_main() -> None:
    sys.exit(main())
