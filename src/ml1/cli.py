"""Batch driver: parse, resolve, rewrite, run, and lint ml1 projects.

Exit codes: 0 success, 1 semantic diagnostics (ambiguity, divergence),
2 lex/parse/runtime failure. File order on the command line fixes symbol
table construction order, so identical invocations produce identical
output bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from ml1 import ast, interp, rewrite
from ml1.diagnostics import SemanticError
from ml1.parser import ParseError, parse_unit
from ml1.printer import pretty_print
from ml1.resolve import (
    Resolution,
    check_context_consistency,
    implicit_candidates,
    resolve_units,
)
from ml1.scopes import REWRITER_MARKER, ScopeGraph, build_scope_graph, export_closure
from ml1.tokens import LexError, tokenize

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
            source = Path(path).read_text(encoding="utf-8")
        except OSError as err:
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
    return json.dumps(document, indent=2)


# Subcommands -----------------------------------------------------------------


def cmd_parse(args) -> int:
    units = _load_units(args.files)
    if args.dump_ast:
        for unit in units:
            if args.format == "pretty":
                sys.stdout.write(pretty_print(unit))
            else:
                print(_dump(ast.to_dict(unit)))
    return OK


def _resolution_document(graph: ScopeGraph, resolution: Resolution) -> dict:
    units_doc = []
    by_unit: dict[str, list] = {}
    for record in resolution.records:
        by_unit.setdefault(record.unit, []).append(
            {
                "span": [record.span.start, record.span.end],
                "name": record.name,
                "symbol": record.symbol.fqn if record.symbol else None,
            }
        )
    for unit_name in sorted(by_unit):
        units_doc.append({"unit": unit_name, "refs": by_unit[unit_name]})
    closures_doc = []
    for fqn in sorted(fqn for fqn, sym in graph.symbols.items() if sym.kind == "template"):
        entries = export_closure(graph, fqn).entries
        closures_doc.append(
            {
                "template": fqn,
                "entries": [
                    {
                        "name": e.visible_name,
                        "symbol": e.symbol.fqn,
                        "path": [edge.label() for edge in e.path],
                    }
                    for e in entries
                ],
            }
        )
    return {
        "units": units_doc,
        "closures": closures_doc,
        "erasedImports": [
            {"unit": unit, "path": ast.dotted(path), "span": [span.start, span.end]}
            for unit, path, span in resolution.erased_imports
        ],
        "diagnostics": [d.render() for d in sorted(
            graph.diagnostics + resolution.diagnostics, key=lambda d: d.render()
        )],
    }


def cmd_resolve(args) -> int:
    units = _load_units(args.files)
    graph = build_scope_graph(units)
    resolution = resolve_units(graph, units)
    if args.dump:
        doc = _resolution_document(graph, resolution)
        if args.format == "pretty":
            for unit_doc in doc["units"]:
                for ref in unit_doc["refs"]:
                    target = ref["symbol"] or "<unresolved>"
                    print(f"{unit_doc['unit']}:{ref['span'][0]}-{ref['span'][1]} {ref['name']} -> {target}")
        else:
            print(_dump(doc))
    had = _report_diagnostics(graph, resolution)
    return SEMANTIC if had else OK


def _rewrite_unit(
    graph: ScopeGraph, unit: ast.CompilationUnit, registry: rewrite.Registry
) -> tuple[ast.CompilationUnit, rewrite.RewriteReport]:
    """Bind the rewriter the unit's imports switch on and apply it. A
    diagnostic that names no unit is about this one."""
    try:
        chain = rewrite.bind_rewriter(graph, implicit_candidates(graph, unit, REWRITER_MARKER), registry)
        return rewrite.apply_rewriter(chain, unit, registry)
    except SemanticError as err:
        if err.diagnostic.unit is not None:
            raise
        raise SemanticError(replace(err.diagnostic, unit=unit.source_name)) from err


def cmd_rewrite(args) -> int:
    units = _load_units(args.files)
    graph = build_scope_graph(units)
    if _report_diagnostics(graph):
        return SEMANTIC
    registry = rewrite.builtin_registry()
    status = OK
    for unit in units:
        try:
            rewritten, report = _rewrite_unit(graph, unit, registry)
        except SemanticError as err:
            print(err.diagnostic.render(), file=sys.stderr)
            status = SEMANTIC
            continue
        sys.stdout.write(pretty_print(rewritten))
        if args.dump:
            if args.format == "pretty":
                print(f"# chain={report.chain} templates={report.templates_touched} nodes={report.nodes_replaced}")
            else:
                print(_dump(report.as_dict()))
    return status


def cmd_run(args) -> int:
    units = _load_units(args.files)
    graph = build_scope_graph(units)
    if _report_diagnostics(graph):
        return SEMANTIC
    registry = rewrite.builtin_registry()
    try:
        rewritten = [_rewrite_unit(graph, unit, registry)[0] for unit in units]
    except SemanticError as err:
        print(err.diagnostic.render(), file=sys.stderr)
        return SEMANTIC
    final_graph = build_scope_graph(rewritten)
    resolution = resolve_units(final_graph, rewritten)
    if _report_diagnostics(final_graph, resolution):
        return SEMANTIC
    trace = interp.run(final_graph, resolution, args.entry)
    sys.stdout.write("".join(event + "\n" for event in trace.events))
    if trace.failed:
        print(f"error: {trace.error.message}", file=sys.stderr)
        for suppressed in trace.error.suppressed:
            print(f"suppressed: {suppressed.message}", file=sys.stderr)
        return FAILURE
    return OK


def cmd_lint(args) -> int:
    units = _load_units(args.files)
    graph = build_scope_graph(units)
    resolution = resolve_units(graph, units)
    if _report_diagnostics(graph, resolution):
        return FAILURE
    lines = []
    for marker in args.marker:
        for divergence in check_context_consistency(graph, units, marker):
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
        p.add_argument("--format", choices=("json", "pretty"), default="json")
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=fn)
        return p

    add("parse", cmd_parse, **{"--dump-ast": {"action": "store_true", "dest": "dump_ast"}})
    add("resolve", cmd_resolve, **{"--dump": {"action": "store_true"}})
    add("rewrite", cmd_rewrite, **{"--dump": {"action": "store_true"}})
    add("run", cmd_run, **{"--entry": {"required": True, "metavar": "FQN"}})
    add("lint", cmd_lint, **{"--marker": {"action": "append", "required": True, "metavar": "FQN"}})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _Exit as stop:
        return stop.status
    except Exception as err:  # keep the 0/1/2 contract even for surprises
        print(f"ml1: internal error: {err}", file=sys.stderr)
        return FAILURE


def script_main() -> None:
    sys.exit(main())
