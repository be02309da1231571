"""Batch driver: parse, resolve, rewrite, run, and lint ml1 projects.

Exit codes: 0 success, 1 semantic diagnostics (ambiguity, divergence),
2 lex/parse/runtime failure. One exception: lint exits 2 when the project
has scope or resolution diagnostics, so its 1 means divergences only. File
order on the command line fixes symbol table construction order, so
identical invocations produce identical output bytes.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from ml1 import ast
from ml1.parser import ParseError, parse_unit
from ml1.record import replace
from ml1.tokens import LexError, tokenize

# The semantic phases, the printer, the `resolve --dump` writer and the
# diagnostics are imported where they are used, so `parse` loads only the
# lexer, the parser and the AST.
if TYPE_CHECKING:
    from typing import Iterable, NoReturn

    from ml1.resolve import Resolution
    from ml1.rewrite import RewriteReport
    from ml1.scopes import ScopeGraph

OK = 0
SEMANTIC = 1
FAILURE = 2


class _Exit(Exception):
    def __init__(self, status: int):
        self.status = status


class _ClosedStdout:
    """`sys.stdout` while `main` runs with file descriptor 1 closed at
    start-up, when Python sets `sys.stdout` to None: a write fails as it
    does on a pipe whose reader went away."""

    def write(self, text: str) -> int:
        raise BrokenPipeError("stdout is closed")

    def flush(self) -> None:
        pass


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


# The command line ------------------------------------------------------------

# An option's kind: a flag; a single value; a value that may be given again,
# each time adding to a list; or one of a fixed set of choices. The second
# field of an option is the value's metavar, or the choices. A value and a
# repeated value are required, and a choice defaults to its first.
FLAG, VALUE, REPEAT, CHOICE = "flag", "value", "repeat", "choice"

# Only the commands that dump have a format to choose.
_FORMAT = (CHOICE, ("json", "pretty"))

# Each command's function and its options.
COMMANDS = {
    "parse": (cmd_parse, {"--format": _FORMAT, "--dump-ast": (FLAG, None)}),
    "resolve": (cmd_resolve, {"--format": _FORMAT, "--dump": (FLAG, None)}),
    "rewrite": (cmd_rewrite, {"--format": _FORMAT, "--dump": (FLAG, None)}),
    "run": (cmd_run, {"--entry": (VALUE, "FQN")}),
    "lint": (cmd_lint, {"--marker": (REPEAT, "FQN")}),
}
_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: ml1 [-h] {{{','.join(COMMANDS)}}} ..."
    words = ["usage: ml1", command, "[-h]"]
    for option, (kind, takes) in COMMANDS[command][1].items():
        if kind == FLAG:
            words.append(f"[{option}]")
        elif kind == CHOICE:
            words.append(f"[{option} {{{','.join(takes)}}}]")
        else:
            words.append(f"{option} {takes}")
    words.append("FILE [FILE ...]")
    return " ".join(words)


def _fail(command: str | None, message: str) -> NoReturn:
    sys.stderr.write(f"{_usage(command)}\nml1: error: {message}\n")
    raise SystemExit(FAILURE)


def _option(word: str, names: Iterable[str]) -> str | None:
    """The option among `names` that a word gives, by the part before any
    `=`: the option's name, or a prefix of it that starts with `--` and no
    other option has. A word that starts with `-` but gives no option is
    returned whole, as unrecognized. None for a FILE: a word that does not
    start with `-`, `-` alone, a negative number or a word with a space."""
    if not word.startswith("-") or word == "-":
        return None
    name = word.partition("=")[0]
    if name in names:
        return name
    if word.startswith("--"):
        found = [option for option in names if option.startswith(name)]
        if len(found) == 1:
            return found[0]
    if " " in word or re.match(r"^-\d+$|^-\d*\.\d+$", word):
        return None
    return word


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command's function as `fn`, its FILE words as `files`, and each
    option as the attribute named after it, read in one pass over the words
    after the command. FILE words may stand before, between and after the
    options; every word after the first `--` is a FILE. An option's value is
    the next word, or follows a `=`. `-h` or `--help` prints the usage and
    exits 0. An argument error prints the usage and an `ml1: error:` line
    and exits 2."""
    command = argv[0] if argv else ""
    if command not in COMMANDS:
        if _option(command, _HELP) in _HELP and "=" not in command:
            print(f"{_usage(None)}\n\n{__doc__ or ''}\ncommands:")  # `python -OO` drops `__doc__`
            for name in COMMANDS:
                print(f"  {_usage(name).removeprefix('usage: ')}")
            raise SystemExit(OK)
        if not argv:
            _fail(None, "the following arguments are required: command")
        choices = ", ".join(repr(name) for name in COMMANDS)
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    fn, options = COMMANDS[command]
    names = (*options, *_HELP)
    files: list[str] = []
    values: dict[str, object] = {}
    unrecognized = []
    words = iter(argv[1:])
    for word in words:
        if word == "--":
            files += words
            break
        option = _option(word, names)
        if option is None:
            files.append(word)
            continue
        if option not in names:
            unrecognized.append(word)
            continue
        value = word.partition("=")[2] if "=" in word else None
        kind, takes = options.get(option, (FLAG, None))  # `-h` and `--help` take no value
        if kind == FLAG:
            if value is not None:
                _fail(command, f"argument {option}: ignored explicit argument {value!r}")
            if option in _HELP:
                print(_usage(command))
                raise SystemExit(OK)
            values[option] = True
            continue
        if value is None:
            value = next(words, None)
            if value is None or _option(value, names) is not None:
                _fail(command, f"argument {option}: expected one argument")
        if kind == CHOICE and value not in takes:
            choices = ", ".join(repr(choice) for choice in takes)
            _fail(command, f"argument {option}: invalid choice: {value!r} (choose from {choices})")
        if kind == REPEAT:
            values.setdefault(option, []).append(value)
        else:
            values[option] = value
    missing = [option for option, (kind, _) in options.items() if kind in (VALUE, REPEAT) and option not in values]
    if not files:
        missing.append("FILE")
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _fail(command, f"unrecognized arguments: {' '.join(unrecognized)}")
    args = SimpleNamespace(fn=fn, files=files)
    for option, (kind, takes) in options.items():  # every value is given by now
        default = takes[0] if kind == CHOICE else False
        setattr(args, option[2:].replace("-", "_"), values.get(option, default))
    return args


def main(argv: list[str] | None = None) -> int:
    closed = sys.stdout is None
    if closed:
        sys.stdout = _ClosedStdout()
    try:
        try:
            args = parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit:
            sys.stdout.flush()  # `-h` printed the help: a closed pipe shows here
            raise
        status = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except _Exit as stop:
        return stop.status
    except BrokenPipeError:
        # The reader of stdout went away (`ml1 ... | head`), or stdout was
        # closed from the start. Point a real stdout at the null device so
        # that the interpreter's last flush fails no more.
        if not closed:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return FAILURE
    except Exception as err:  # keep the 0/1/2 contract even for surprises
        print(f"ml1: internal error: {err}", file=sys.stderr)
        if os.environ.get("ML1_DEBUG") == "1":
            import traceback

            traceback.print_exc()
        return FAILURE
    finally:
        if closed:
            sys.stdout = None


def script_main() -> NoReturn:
    """The entry point of `python -m ml1` and of the `ml1` script. It
    flushes stdout and stderr and ends the process with `os._exit`, so the
    interpreter's teardown (a last garbage collection, then freeing every
    module and object) is not paid for; `atexit` handlers do not run. A
    flush that fails exits 2 and prints nothing more. `-h`, argument errors
    and exceptions that `main` does not catch propagate as before."""
    status = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is None:  # the descriptor was closed when Python started
            continue
        try:
            stream.flush()
        except OSError:  # a closed pipe or a full disk
            status = FAILURE
    os._exit(status)
