import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ml1
from ml1 import ast, cli, interp
from ml1.cli import main
from ml1.parser import parse_unit
from ml1.printer import pretty_print
from ml1.resolve import implicit_candidates, resolve_units
from ml1.rewrite import DEFER_REWRITER, apply_rewriter
from ml1.scopes import REWRITER_MARKER, build_scope_graph
from ml1.tokens import tokenize

from conftest import (
    COMPOSE,
    COMPOSE_REPROS,
    FIXTURE_GROUPS,
    FIXTURES,
    INHERIT,
    SALAT_AFTER,
    SALAT_BEFORE,
    fixture_paths,
    parse_source,
    write_compose_repro,
)
from gen import dense_family_sources


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def json_blocks(out: str) -> list[dict]:
    """Report documents start with a bare '{' line; rendered source never
    puts one at column zero."""
    blocks, current = [], None
    for line in out.splitlines():
        if line == "{":
            current = [line]
        elif current is not None:
            current.append(line)
            if line == "}":
                blocks.append(json.loads("\n".join(current)))
                current = None
    return blocks


def test_parse_dumps_one_json_document_per_file(capsys):
    status, out, _ = run_cli(
        capsys, "parse", "--dump-ast", *fixture_paths("salat/hub.ml1", "salat/marker.ml1")
    )
    assert status == 0
    decoder = json.JSONDecoder()
    first, end = decoder.raw_decode(out)
    second, _ = decoder.raw_decode(out[end:].lstrip())
    assert first["kind"] == "CompilationUnit"
    clauses = [
        stat
        for stat in first["topStats"][0]["stats"] if stat["kind"] == "ImportClause"
    ]
    assert len(clauses) == 3
    assert all(c["annotations"] == ["exported"] for c in clauses)
    assert second["topStats"][0]["name"] == "Context"


def test_parse_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.ml1"
    empty.write_text("", encoding="utf-8")
    status, out, _ = run_cli(capsys, "parse", "--dump-ast", str(empty))
    assert status == 0
    doc = json.loads(out)
    assert doc["packagePath"] == []
    assert doc["topStats"] == []


def test_parse_rejects_top_level_annotated_import(tmp_path, capsys):
    bad = tmp_path / "bad.ml1"
    bad.write_text("@exported import x._\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "parse", str(bad))
    assert status == 2
    assert "E_ANNOTATION_AT_TOP_LEVEL" in err


def test_parse_reports_lex_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ml1"
    bad.write_text('object A { val x = "open }\n', encoding="utf-8")
    status, _, err = run_cli(capsys, "parse", str(bad))
    assert status == 2
    assert "unterminated" in err


@pytest.mark.parametrize("command", [["parse"], ["resolve", "--dump"], ["rewrite"], ["run", "--entry", "Main.main"]])
def test_undecodable_file_is_reported_like_an_unreadable_one(tmp_path, capsys, command):
    bad = tmp_path / "bad.ml1"
    bad.write_bytes(b'object Main {\n  def main() = { print("\xff") }\n}\n')
    message = f"{bad}: 'utf-8' codec can't decode byte 0xff in position 38: invalid start byte\n"
    assert run_cli(capsys, *command, str(bad)) == (2, "", message)


def test_missing_file_and_directory_are_reported_with_their_path(tmp_path, capsys):
    missing = tmp_path / "missing.ml1"
    message = f"{missing}: [Errno 2] No such file or directory: '{missing}'\n"
    assert run_cli(capsys, "parse", str(missing)) == (2, "", message)
    status, out, err = run_cli(capsys, "parse", str(tmp_path))
    assert (status, out) == (2, "") and err.startswith(f"{tmp_path}: [Errno ") and "internal error" not in err


def test_over_long_integer_literal_is_a_coded_parse_error(tmp_path, capsys):
    unit = tmp_path / "big.ml1"
    digits = sys.get_int_max_str_digits() + 1
    unit.write_text(f"object A {{\n  val x = {'9' * digits}\n}}\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "parse", "--dump-ast", str(unit))
    assert (status, out) == (2, "")
    assert err == (
        f"{unit}: E_INTEGER_TOO_LONG: 21-{21 + digits}: expected an integer literal of at most "
        f"{digits - 1} digits, found {digits} digits\n"
    )


VALUE_KINDS = """package p.q

object O {
  def t() = { 1 }
}

object Main {
  def main() = {
    print(7)
    print(sub(2, 5))
    print("s")
    print(print("x"))
    print(O)
    print(p.q)
    print(O.t)
    def g() = { 1 }
    print(g)
    print(thunk { 1 })
    print(print)
    print(concat(1, O))
    O()
  }
}
"""


def test_run_prints_every_kind_of_value(tmp_path, capsys):
    unit = tmp_path / "values.ml1"
    unit.write_text(VALUE_KINDS, encoding="utf-8")
    shown = ["7", "-3", "s", "x", "()", "p.q.O", "p.q", "<def t>", "<def g>", "<thunk>", "<builtin print>", "1p.q.O"]
    assert run_cli(capsys, "run", "--entry", "p.q.Main.main", str(unit)) == (
        2,
        "".join(line + "\n" for line in shown),
        "error: p.q.O is not callable\n",
    )


# Each kind of value: an expression that makes it, the direct form that
# prints it and calls it with "a" (None where no name can be called), and
# the stdout and stderr of printing it and then making that call.
VALUE_PATHS = {
    "integer": ("7", None, "7\n", "error: 7 is not callable\n"),
    "string": ('"s"', None, "s\n", "error: s is not callable\n"),
    "unit": ("{ }", None, "()\n", "error: () is not callable\n"),
    "object": ("O", 'print(O); print(O("a"))', "p.q.O\n", "error: p.q.O is not callable\n"),
    "package": ("p.q", 'print(p.q); print(p.q("a"))', "p.q\n", "error: p.q is not callable\n"),
    "template_def": ("O.t", 'print(O.t); print(O.t("a"))', "<def t>\nta\n", ""),
    "local_def": (
        '{ def g(x) = { concat("g", x) }; g }',
        'def g(x) = { concat("g", x) }; print(g); print(g("a"))',
        "<def g>\nga\n",
        "",
    ),
    "builtin": ("print", 'print(print); print(print("a"))', "<builtin print>\na\n()\n", ""),
    "thunk": ("thunk { 1 }", None, "<thunk>\n", "error: <thunk> is not callable\n"),
}


@pytest.mark.parametrize("kind", sorted(VALUE_PATHS))
def test_a_value_prints_and_calls_alike_on_every_path(tmp_path, capsys, kind):
    # A value held by a template val, a def parameter or a block val is the
    # value its expression makes: printed and called, it behaves as the
    # direct form does.
    expr, direct, out, err = VALUE_PATHS[kind]
    use = 'print(v); print(v("a"))'
    paths = {  # the members added and main's body
        "template_val": (f"  val v = {expr}\n", use),
        "parameter": (f"  def use(v) = {{ {use} }}\n", f"use({expr})"),
        "block_val": ("", f"val v = {expr}; {use}"),
    }
    if direct:
        paths["direct"] = ("", direct)
    for path, (members, body) in paths.items():
        unit = tmp_path / "values.ml1"
        unit.write_text(
            "package p.q\n\nobject O {\n  def t(x) = { concat(\"t\", x) }\n}\n\n"
            f"object Main {{\n{members}  def main() = {{ {body} }}\n}}\n",
            encoding="utf-8",
        )
        status = 2 if err else 0
        assert run_cli(capsys, "run", "--entry", "p.q.Main.main", str(unit)) == (status, out, err), path


@pytest.mark.parametrize("kind", sorted(VALUE_PATHS))
def test_concat_and_error_render_every_value_as_print_does(tmp_path, capsys, kind):
    # `print` and `concat` skip `render` for a string; every kind of value
    # still reads the same through `print`, `concat` and `error`.
    expr, _, out, _ = VALUE_PATHS[kind]
    shown = out.splitlines()[0]
    unit = tmp_path / "values.ml1"
    unit.write_text(
        "package p.q\n\nobject O {\n  def t(x) = { concat(\"t\", x) }\n}\n\n"
        f"object Main {{\n  def main() = {{ val v = {expr}; print(concat(v, v)); error(v) }}\n}}\n",
        encoding="utf-8",
    )
    expected = (2, f"{shown}{shown}\n", f"error: {shown}\n")
    assert run_cli(capsys, "run", "--entry", "p.q.Main.main", str(unit)) == expected


@pytest.mark.parametrize(
    "command", [["run", "--entry", "Main.main"], ["lint", "--marker", "DefaultRewriter"]], ids=["run", "lint"]
)
def test_format_is_an_option_of_the_dumping_commands_only(command, capsys):
    name, *flags = command
    files = fixture_paths(*SALAT_AFTER)
    fmt = ["--format", "pretty"]
    # The option's value can be taken as a file, and a file can be left over:
    # the error names the unknown option and no file.
    for argv in ([*command, *fmt, *files], [name, *fmt, *flags, *files], [*command, *files, *fmt]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ml1 ")
        assert err.endswith("ml1: error: unrecognized arguments: --format\n")
        assert not any(path in err for path in files)


def test_files_may_stand_on_both_sides_of_an_option(capsys):
    library, program = fixture_paths("lib/go_defer.ml1", "defer/copy.ml1")
    run = run_cli(capsys, "run", "--entry", "copyfile.Main.main", library, program)
    assert run[0] == 0
    assert run_cli(capsys, "run", library, "--entry", "copyfile.Main.main", program) == run
    parse = run_cli(capsys, "parse", "--dump-ast", library, program)
    assert parse[0] == 0
    assert run_cli(capsys, "parse", library, "--dump-ast", program) == parse


def child_env() -> dict[str, str]:
    """The environment of a `python -m ml1` child: this tree's `ml1`, and
    stdout buffered as it is by default on a pipe or a file, so that output
    left in a buffer at exit would show as lost."""
    src = str(Path(ml1.__file__).resolve().parent.parent)
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": src}


def dense_family_files(tmp_path) -> list[str]:
    """A re-export family whose `resolve --dump` is about 160 kB."""
    files = []
    for name, text in dense_family_sources(4, vals=100):
        (tmp_path / name).write_text(text, encoding="utf-8")
        files.append(str(tmp_path / name))
    return files


@pytest.mark.parametrize("read", [100, 0], ids=["while-writing", "at-the-last-flush"])
def test_a_reader_that_stops_early_is_no_internal_error(tmp_path, read):
    """`ml1 ... | head -c 100`: stdout's pipe closes while ml1 writes a
    dump larger than the pipe holds, or before ml1 writes its few lines at
    all. Either way ml1 exits 2 and prints nothing more."""
    if read:
        command = ["resolve", "--dump", *dense_family_files(tmp_path)]
    else:
        command = ["run", "--entry", "copyfile.Main.main", *fixture_paths("lib/go_defer.ml1", "defer/copy.ml1")]
    # Buffered, as stdout on a pipe is by default, so that the few lines
    # stay in the buffer until it is flushed.
    with subprocess.Popen(
        [sys.executable, "-m", "ml1", *command],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        assert len(child.stdout.read(read)) == read
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 2
    assert err == b""


@pytest.mark.parametrize("command", [["-h"], ["--help"], ["parse", "--help"]], ids=" ".join)
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_help_into_a_closed_pipe_is_no_internal_error(command, buffered):
    """`ml1 -h | head -c 0`: the help meets a pipe whose reader has gone,
    at the write when stdout is unbuffered, else at the flush. Either way
    ml1 exits 2 and prints nothing more."""
    env = child_env() if buffered else {**child_env(), "PYTHONUNBUFFERED": "1"}
    with subprocess.Popen(
        [sys.executable, "-m", "ml1", *command], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 2
    assert err == b""


# Runs `python -m ml1` with the arguments after it and file descriptor 1
# closed, as `ml1 ... >&-` does.
WITH_STDOUT_CLOSED = "import os, sys; os.close(1); os.execv(sys.executable, [sys.executable, '-m', 'ml1', *sys.argv[1:]])"
COPY = fixture_paths("lib/go_defer.ml1", "defer/copy.ml1")
AMBIGUOUS = fixture_paths("ambiguous/providers.ml1", "ambiguous/client.ml1")


@pytest.mark.parametrize(
    "command, writes",
    [
        (["parse", COPY[1]], False),
        (["parse", "--dump-ast", COPY[1]], True),
        (["run", "--entry", "copyfile.Main.main", *COPY], True),
        (["run", "--entry", "copyfile.Main.nope", *COPY], False),
        (["resolve", *AMBIGUOUS], False),
        (["-h"], True),
    ],
    ids=["parse", "parse-dump", "run", "run-no-entry", "resolve-ambiguous", "help"],
)
def test_a_stdout_closed_at_start_is_no_internal_error(command, writes):
    """`ml1 ... >&-`: Python starts with `sys.stdout` None. A command that
    writes to stdout exits 2 and prints nothing more, as when the reader of
    its pipe went away; one that writes nothing keeps its own status and
    stderr."""
    closed = subprocess.run(
        [sys.executable, "-c", WITH_STDOUT_CLOSED, *command], env=child_env(), stderr=subprocess.PIPE, timeout=60
    )
    if writes:
        assert (closed.returncode, closed.stderr) == (2, b"")
    else:
        plain = subprocess.run(
            [sys.executable, "-m", "ml1", *command], env=child_env(), capture_output=True, timeout=60
        )
        assert plain.stdout == b""
        assert (closed.returncode, closed.stderr) == (plain.returncode, plain.stderr)


# Runs `python -m ml1` with the arguments after it and file descriptor 2
# closed, as `ml1 ... 2>&-` does.
WITH_STDERR_CLOSED = WITH_STDOUT_CLOSED.replace("os.close(1)", "os.close(2)")


@pytest.mark.parametrize(
    "command",
    [["resolve", *AMBIGUOUS], ["lint", "--bogus", "x.ml1"], ["run", "--entry", "copyfile.Main.main", *COPY], ["-h"]],
    ids=["resolve-ambiguous", "lint-bogus", "run", "help"],
)
def test_a_stderr_closed_at_start_puts_no_diagnostic_on_stdout(command):
    """`ml1 ... 2>&-`: Python starts with `sys.stderr` None, and `print`
    to None writes to stdout. The script discards what goes to stderr
    instead, so the status and stdout are those with stderr open."""
    closed = subprocess.run(
        [sys.executable, "-c", WITH_STDERR_CLOSED, *command], env=child_env(), stdout=subprocess.PIPE, timeout=60
    )
    plain = subprocess.run([sys.executable, "-m", "ml1", *command], env=child_env(), capture_output=True, timeout=60)
    assert (closed.returncode, closed.stdout) == (plain.returncode, plain.stdout)


def test_a_reader_of_stderr_that_has_gone_is_no_internal_error():
    """An ambiguous `resolve` whose stderr pipe has no reader: its
    diagnostic cannot be written, so it exits 2 and prints nothing."""
    with subprocess.Popen(
        [sys.executable, "-m", "ml1", "resolve", *AMBIGUOUS],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        child.stderr.close()
        out = child.stdout.read()
        assert child.wait(timeout=60) == 2
    assert out == b""


@pytest.mark.parametrize(
    "variables",
    [{"PYTHONIOENCODING": "ascii"}, {"LC_ALL": "C", "PYTHONUTF8": "0"}, {"PYTHONIOENCODING": "utf-8:strict"}],
    ids=["ascii", "c-locale", "strict-utf-8"],
)
def test_stdout_is_utf8_whatever_the_locale(tmp_path, variables):
    """ml1 reads sources as UTF-8 and file names as the file system gives
    them, and writes both back as the same bytes: a printed string that is
    not ASCII, and a file name with a byte that is not UTF-8."""
    (tmp_path / "u.ml1").write_text('object M {\n  def main() = {\n    print("café")\n  }\n}\n', encoding="utf-8")
    named = tmp_path / os.fsdecode(b"n\xe9.ml1")
    named.write_text('object N {\n  def main() = {\n    print("x")\n  }\n}\n', encoding="utf-8")
    env = {name: value for name, value in child_env().items() if not name.startswith(("LC_", "LANG", "PYTHONIO"))}
    env.update(variables)
    run = subprocess.run(
        [sys.executable, "-m", "ml1", "run", "--entry", "M.main", str(tmp_path / "u.ml1")],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "café\n".encode(), b"")
    dump = subprocess.run(
        [sys.executable, "-m", "ml1", "resolve", "--dump", "--format", "pretty", str(named)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    expected = os.fsencode(named) + b":32-37 print -> <builtin>.print\n"
    assert (dump.returncode, dump.stdout, dump.stderr) == (0, expected, b"")


def test_resolve_dump_shows_shared_context(capsys):
    status, out, _ = run_cli(
        capsys, "resolve", "--dump", *fixture_paths(*SALAT_AFTER)
    )
    assert status == 0
    doc = json.loads(out)
    ctx_targets = {
        ref["symbol"]
        for unit in doc["units"]
        for ref in unit["refs"]
        if ref["name"] == "ctx"
    }
    assert ctx_targets == {"salatimpl.customCtx"}
    hub = next(c for c in doc["closures"] if c["template"] == "com.mycompany.salat.package")
    names = {(e["name"], e["symbol"]) for e in hub["entries"]}
    assert ("ctx", "salatimpl.customCtx") in names
    assert ("grate", "com.novus.salat.grate") in names
    assert ("mongoColl", "com.mongodb.casbah.Imports.mongoColl") in names
    chained = next(
        e for e in hub["entries"] if e["name"] == "ctx"
    )
    assert len(chained["path"]) == 2  # via the context home's re-export


def test_resolve_single_empty_object(tmp_path, capsys):
    unit = tmp_path / "one.ml1"
    unit.write_text("object A {\n}\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "resolve", "--dump", str(unit))
    assert status == 0
    doc = json.loads(out)
    assert doc["units"] == []
    assert doc["diagnostics"] == []


def test_resolve_flags_ambiguous_wildcard_pair(capsys):
    status, out, err = run_cli(
        capsys,
        "resolve",
        "--dump",
        *fixture_paths("ambiguous/providers.ml1", "ambiguous/client.ml1"),
    )
    assert status == 1
    doc = json.loads(out)
    assert any("E_AMBIGUOUS" in d for d in doc["diagnostics"])
    assert "P1.ctx" in err and "P2.ctx" in err


def test_rewrite_lowers_the_copy_program(capsys):
    status, out, _ = run_cli(
        capsys,
        "rewrite",
        "--dump",
        *fixture_paths("lib/go_defer.ml1", "defer/copy.ml1"),
    )
    assert status == 0
    assert "__frame {" in out
    assert out.count("__defer(thunk {") == 2
    assert "defer {" not in out.replace("__defer(thunk {", "")
    reports = json_blocks(out)
    assert [len(r["chain"]) for r in reports] == [1, 1]
    assert reports[1]["chain"] == ["go.defer.rewriter"]


def test_rewrite_without_import_is_byte_identical(capsys):
    path = FIXTURES / "defer" / "copy_plain.ml1"
    status, out, _ = run_cli(capsys, "rewrite", str(path))
    assert status == 0
    assert out == path.read_text(encoding="utf-8")


def test_parse_prints_each_unit_in_order(capsys):
    files = fixture_paths(*SALAT_AFTER)
    status, out, _ = run_cli(capsys, "parse", "--dump-ast", "--format", "pretty", *files)
    assert status == 0
    assert out == "".join(pretty_print(parse_unit(tokenize(Path(f).read_text(encoding="utf-8")), f)) for f in files)


def test_rewrite_reports_each_chain_in_a_comment_line(capsys):
    status, out, _ = run_cli(capsys, "rewrite", "--dump", "--format", "pretty", *fixture_paths(*COMPOSE))
    assert status == 0
    assert [line for line in out.splitlines() if line.startswith("#")] == [
        "# chain=['go.defer.rewriter'] templates=0 nodes=0",
        "# chain=['demo.upper.rewriter'] templates=0 nodes=0",
        "# chain=[] templates=0 nodes=0",
        "# chain=['go.defer.rewriter', 'demo.upper.rewriter'] templates=0 nodes=0",
        "# chain=['go.defer.rewriter', 'demo.upper.rewriter'] templates=1 nodes=3",
    ]


def test_rewrite_reports_composed_chain(capsys):
    status, out, _ = run_cli(capsys, "rewrite", "--dump", *fixture_paths(*COMPOSE))
    assert status == 0
    report = json_blocks(out)[-1]
    assert report["chain"] == ["go.defer.rewriter", "demo.upper.rewriter"]
    assert report["unit"].endswith("compose_client.ml1")
    assert report["templatesTouched"] == 1


def test_run_copy_program(capsys):
    status, out, err = run_cli(
        capsys,
        "run",
        "--entry",
        "copyfile.Main.main",
        *fixture_paths("lib/go_defer.ml1", "defer/copy.ml1"),
    )
    assert status == 0
    assert out.splitlines() == ["open-in", "open-out", "transfer", "close-out", "close-in"]
    assert err == ""


def test_run_failing_program_exits_2_and_still_unwinds(capsys):
    status, out, err = run_cli(
        capsys,
        "run",
        "--entry",
        "copyfile.Main.main",
        *fixture_paths("lib/go_defer.ml1", "defer/copy_boom.ml1"),
    )
    assert status == 2
    assert out.splitlines() == ["open-in", "open-out", "transfer", "close-out", "close-in"]
    assert err.splitlines() == ["error: boom"]


def test_run_prints_suppressed_errors_after_the_primary(tmp_path, capsys):
    program = tmp_path / "cleanup.ml1"
    program.write_text(
        "import go.defer._\n\nobject Main {\n  def main() = {\n"
        "    defer {\n      error(\"cleanup-fail\")\n    }\n"
        "    error(\"body-fail\")\n  }\n}\n",
        encoding="utf-8",
    )
    status, _, err = run_cli(
        capsys, "run", "--entry", "Main.main", *fixture_paths("lib/go_defer.ml1"), str(program)
    )
    assert status == 2
    assert err.splitlines() == ["error: body-fail", "suppressed: cleanup-fail"]


def test_run_missing_entry_exits_2(capsys):
    status, _, err = run_cli(
        capsys, "run", "--entry", "Nope.main", *fixture_paths("defer/copy_plain.ml1")
    )
    assert status == 2
    assert "E_NO_ENTRY" in err or "error:" in err


def test_lint_reports_one_divergence(capsys):
    status, out, _ = run_cli(
        capsys, "lint", "--marker", "Context", *fixture_paths(*SALAT_BEFORE)
    )
    assert status == 1
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("DIVERGENCE Context ")
    assert "salatimpl.customCtx" in lines[0]
    assert "salatimpl.globalCtx" in lines[0]


def test_lint_accepts_repeated_markers(capsys):
    status, out, _ = run_cli(
        capsys,
        "lint",
        "--marker",
        "Context",
        "--marker",
        "DefaultRewriter",
        *fixture_paths(*SALAT_BEFORE),
    )
    assert status == 1
    lines = out.splitlines()
    assert len(lines) == 1  # no unit imports a rewriter in this project
    assert lines[0].startswith("DIVERGENCE Context ")


def test_lint_prints_a_repeated_markers_divergences_once(capsys):
    files = fixture_paths(*SALAT_BEFORE)
    once = run_cli(capsys, "lint", "--marker", "Context", *files)
    assert once[0] == 1
    markers = ["--marker", "Context", "--marker", "DefaultRewriter", "--marker", "Context"]
    assert run_cli(capsys, "lint", *markers, *files) == once


def test_lint_passes_on_the_shared_hub(capsys):
    status, out, _ = run_cli(
        capsys, "lint", "--marker", "Context", *fixture_paths(*SALAT_AFTER)
    )
    assert status == 0
    assert out == ""


def test_lint_single_unit_project(tmp_path, capsys):
    unit = tmp_path / "one.ml1"
    unit.write_text("object A {\n}\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "lint", "--marker", "Context", str(unit))
    assert status == 0
    assert out == ""


def test_lint_exits_2_on_resolve_failure(tmp_path, capsys):
    unit = tmp_path / "broken.ml1"
    unit.write_text("object A {\n  def f() = {\n    missing\n  }\n}\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "lint", "--marker", "Context", str(unit))
    assert status == 2
    assert "E_UNRESOLVED" in err


def test_lint_exits_2_on_scope_diagnostics(tmp_path, capsys):
    unit = tmp_path / "dup.ml1"
    unit.write_text("object A {\n}\nobject A {\n}\n", encoding="utf-8")
    status, out, err = run_cli(capsys, "lint", "--marker", "Context", str(unit))
    assert (status, out) == (2, "")
    assert err == f"{unit}:13-25: E_DUPLICATE_SYMBOL: A is already defined\n"


def test_inheritance_project_resolves_without_local_imports(capsys):
    status, out, _ = run_cli(capsys, "resolve", "--dump", *fixture_paths(*INHERIT))
    assert status == 0
    doc = json.loads(out)
    refs = {
        ref["name"]: ref["symbol"]
        for unit in doc["units"]
        for ref in unit["refs"]
        if unit["unit"].endswith("my_controller.ml1")
    }
    assert refs["render"] == "play.api.render"
    assert refs["action"] == "play.api.mvc.action"


def test_sibling_blocks_give_their_binders_distinct_symbols(tmp_path, capsys):
    unit = tmp_path / "m.ml1"
    block = "    {{\n      val y = \"{}\"\n      print(y)\n    }}\n"
    unit.write_text(f"object M {{\n  def main() = {{\n{block.format(1)}{block.format(2)}  }}\n}}\n", encoding="utf-8")
    status, out, _ = run_cli(capsys, "resolve", "--dump", "--format", "pretty", str(unit))
    assert status == 0
    assert [line.split(" ", 1)[1] for line in out.splitlines() if " y -> " in line] == [
        "y -> M.main.y",
        "y -> M.main.y#2",
    ]


def test_dumps_are_deterministic(capsys):
    argv = ["resolve", "--dump", *fixture_paths(*SALAT_AFTER)]
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first == second


@pytest.mark.parametrize("group", sorted(FIXTURE_GROUPS))
def test_outputs_do_not_depend_on_the_hash_seed(group):
    # String hashing, and so set and dict-key order, varies between
    # processes; within one process it cannot show.
    src = str(Path(ml1.__file__).resolve().parent.parent)
    files = fixture_paths(*FIXTURE_GROUPS[group])
    for command in (["resolve", "--dump"], ["rewrite", "--dump"], ["lint", "--marker", "Context"]):
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "ml1", *command, *files],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for seed in ("0", "1")
        ]
        (out0, err0), (out1, err1) = [run.communicate(timeout=60) for run in runs]
        assert (runs[0].returncode, out0, err0) == (runs[1].returncode, out1, err1), command
        assert out0 or command[0] == "lint"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["parse"] + fixture_paths("salat/marker.ml1"), 0),
        (["resolve"] + fixture_paths("ambiguous/providers.ml1", "ambiguous/client.ml1"), 1),
        (["parse"] + [str(FIXTURES / "does-not-exist.ml1")], 2),
    ],
)
def test_exit_code_contract(capsys, argv, expected):
    status, _, _ = run_cli(capsys, *argv)
    assert status == expected


def test_help_states_the_exit_contract_and_its_lint_exception(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "Exit codes: 0 success, 1 semantic diagnostics (ambiguity, divergence), 2 lex/parse/runtime failure." in text
    assert "lint exits 2 when the project has scope or resolution diagnostics" in text


def test_help_without_docstrings_still_lists_the_commands():
    src = str(Path(ml1.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-OO", "-B", "-m", "ml1", "--help"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert "None" not in done.stdout
    assert "  ml1 lint [-h] --marker FQN FILE [FILE ...]\n" in done.stdout


def in_process(argv: list[str]) -> tuple[int, bytes, bytes]:
    """`cli.main` on `argv` in this process: its status, or the code of the
    `SystemExit` that `-h` and argument errors raise, with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as stop:
            status = stop.code
    return status, out.getvalue().encode(), err.getvalue().encode()


# The `run` entry of each fixture group that has one; the others' runs fail
# for want of `Main.main`, which the comparison covers as well.
RUN_ENTRIES = {"defer": "copyfile.Main.main", "compose": "App.work", "parents_rewriter": "App.main"}
ARGUMENT_FORMS = [["-h"], ["resolve", "-h"], ["run", "--entry"], ["lint", "--bogus", "x.ml1"], []]


def commands_of(group: str) -> list[list[str]]:
    if group == "arguments":
        return ARGUMENT_FORMS
    files = fixture_paths(*FIXTURE_GROUPS[group])
    return [
        ["parse", "--dump-ast", *files],
        ["resolve", "--dump", *files],
        ["rewrite", *files],
        ["run", "--entry", RUN_ENTRIES.get(group, "Main.main"), *files],
        ["lint", "--marker", "Context", *files],
    ]


@pytest.mark.parametrize("group", [*sorted(FIXTURE_GROUPS), "arguments"])
def test_the_script_gives_what_main_gives(group):
    """`python -m ml1` ends with `os._exit` after flushing, where `cli.main`
    returns: the exit status, stdout and stderr must not differ."""
    commands = commands_of(group)
    children = [
        subprocess.Popen(
            [sys.executable, "-m", "ml1", *argv], env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        for argv in commands
    ]
    for argv, child in zip(commands, children):
        out, err = child.communicate(timeout=60)
        assert (child.returncode, out, err) == in_process(argv), argv


@pytest.mark.parametrize("stdout", ["pipe", "file"])
def test_a_large_dump_loses_no_byte_at_exit(tmp_path, stdout):
    argv = ["resolve", "--dump", *dense_family_files(tmp_path)]
    with open(tmp_path / "dump.json", "w+b") as file:
        done = subprocess.run(
            [sys.executable, "-m", "ml1", *argv],
            env=child_env(),
            stdout=subprocess.PIPE if stdout == "pipe" else file,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        file.seek(0)
        out = done.stdout if stdout == "pipe" else file.read()
    expected = in_process(argv)
    assert len(expected[1]) > 150_000
    assert (done.returncode, out, done.stderr) == expected


@pytest.mark.parametrize(
    "argv, status",
    [(["parse", fixture_paths("salat/marker.ml1")[0]], 0), (["-h"], 0), (["lint", "--bogus", "x.ml1"], 2)],
    ids=["parse", "help", "lint-bogus"],
)
def test_the_script_skips_the_interpreter_teardown(argv, status):
    """An `atexit` handler runs only if the interpreter tears down. `-h`
    and argument errors too leave through the script's flush and
    `os._exit`, with the output that `cli.main` gives."""
    child = (
        "import atexit, sys\n"
        "atexit.register(lambda: sys.stderr.write('teardown\\n'))\n"
        f"sys.argv = ['ml1', *{argv!r}]\n"
        "from ml1.cli import script_main\n"
        "script_main()\n"
    )
    done = subprocess.run([sys.executable, "-c", child], env=child_env(), capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (status, *in_process(argv)[1:])


@pytest.mark.parametrize("reader", ["reads", "stops"])
def test_the_script_flushes_what_an_internal_error_leaves_unwritten(reader):
    """`main` flushes no stream; after an internal error the script's
    flush writes what the command printed, or, when the reader has closed
    stdout's pipe, fails and prints nothing more."""
    child = (
        "from ml1 import cli\n"
        "def fail(args):\n"
        "    print('partial')\n"
        "    raise RuntimeError('boom')\n"
        "cli.COMMANDS['parse'] = (fail, {})\n"
        "cli.script_main()\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", child, "parse", "x.ml1"], env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        if reader == "reads":
            out = proc.stdout.read()
        else:
            proc.stdout.close()
            out = b""
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert (out, err) == (b"partial\n" if reader == "reads" else b"", b"ml1: internal error: boom\n")


# A call to each builtin, to the template def `f` of `unit_with_calls` and
# to its object `Main`, which is no def, that fails at run time, with the
# error it gives. Every argument is
# evaluated before the call fails, so an argument that prints prints first.
BUILTIN_FAILURES = {
    "print": ("print(1, 2)", "print expects 1 arguments, got 2"),
    "concat": ('concat("a")', "concat expects 2 arguments, got 1"),
    "add": ('add(1, "x")', "add needs integer arguments"),
    "compose": ("compose(1, 2)", "compose is interpreted at rewrite time, not at runtime"),
    "print_printing": ('print(print("arg"), 2)', "print expects 1 arguments, got 2"),
    "print_three": ('print(print("arg"), 2, 3)', "print expects 1 arguments, got 3"),
    "error": ('error(concat("e-", print("arg")))', "e-()"),
    "concat_printing": ('concat(print("arg"))', "concat expects 2 arguments, got 1"),
    "sub": ('sub(print("arg"), 1)', "sub needs integer arguments"),
    "compose_printing": ('compose(print("arg"))', "compose is interpreted at rewrite time, not at runtime"),
    "def": ('f(print("arg"))', "f expects 0 arguments, got 1"),
    "object": ('Main(print("arg"))', "Main is not callable"),
}


def unit_with_calls(tmp_path, main_body: str, members: str = "") -> Path:
    unit = tmp_path / "m.ml1"
    unit.write_text(
        f"object Main {{\n{members}  def f() = {{\n    print(\"f\")\n  }}\n"
        f"  def main() = {{\n    {main_body}\n  }}\n}}\n",
        encoding="utf-8",
    )
    return unit


def printed_by(call: str) -> list[str]:
    return ["arg"] if 'print("arg")' in call else []


@pytest.mark.parametrize("name", sorted(BUILTIN_FAILURES))
def test_failing_builtin_calls_exit_2(tmp_path, capsys, name):
    call, message = BUILTIN_FAILURES[name]
    unit = unit_with_calls(tmp_path, call)
    printed = "".join(line + "\n" for line in printed_by(call))
    assert run_cli(capsys, "run", "--entry", "Main.main", str(unit)) == (2, printed, f"error: {message}\n")


# The same calls with the right arity, with what `print` shows of each.
RIGHT_ARITY = {
    "print": ('print(print("arg"))', ["arg", "()", "()"]),
    "concat": ('concat(print("arg"), 1)', ["arg", "()1"]),
    "add": ("add(2, 3)", ["5"]),
    "sub": ("sub(2, 3)", ["-1"]),
    "def": ("f()", ["f", "()"]),
}


@pytest.mark.parametrize(
    "call, printed, message",
    [
        *(pytest.param(call, printed_by(call), message, id=name) for name, (call, message) in BUILTIN_FAILURES.items()),
        *(pytest.param(call, printed, None, id=f"{name}_right_arity") for name, (call, printed) in RIGHT_ARITY.items()),
    ],
)
def test_a_call_through_an_alias_behaves_like_the_direct_call(tmp_path, capsys, call, printed, message):
    # A builtin or template def called by name is bound when the call is
    # compiled; through a template val or a def parameter it is found only
    # when the call runs. Both must print, fail and point at the call alike.
    callee, rest = call.split("(", 1)
    paths = {  # the members added, main's call, and the call that fails
        "direct": ("", call, call),
        "val": (f"  val g = {{\n    {callee}\n  }}\n", f"g({rest}", f"g({rest}"),
        "parameter": (f"  def apply(h) = {{\n    h({rest}\n  }}\n", f"apply({callee})", f"h({rest}"),
    }
    for path, (members, main_call, failing) in paths.items():
        unit = unit_with_calls(tmp_path, f"print({main_call})", members)
        status, out, err = run_cli(capsys, "run", "--entry", "Main.main", str(unit))
        if message is None:
            assert (status, out.splitlines(), err) == (0, printed, ""), path
            continue
        assert (status, out.splitlines(), err) == (2, printed, f"error: {message}\n"), path
        source = unit.read_text(encoding="utf-8")
        units = [parse_source(source, str(unit))]
        graph = build_scope_graph(units)
        trace = interp.run(graph, resolve_units(graph, units), "Main.main")
        assert source[trace.error.span.start : trace.error.span.end] == failing, path


def test_a_call_site_that_meets_a_def_again_calls_it_in_its_own_frame(tmp_path, capsys):
    # `h()` meets the local def `get` closing over two frames, then a builtin.
    members = "  def mk(x) = {\n    def get() = {\n      print(x)\n    }\n    get\n  }\n  def apply(h) = {\n    h()\n  }\n"
    unit = unit_with_calls(tmp_path, 'apply(mk("a"))\n    apply(mk("b"))\n    apply(print)', members)
    message = "error: print expects 1 arguments, got 0\n"
    assert run_cli(capsys, "run", "--entry", "Main.main", str(unit)) == (2, "a\nb\n", message)


def test_calls_that_would_fail_compile_and_never_run_in_a_def_never_called(tmp_path, capsys):
    unused = "\n    ".join(call for call, _ in BUILTIN_FAILURES.values())
    members = f"  def unused() = {{\n    {unused}\n  }}\n"
    unit = unit_with_calls(tmp_path, 'print("ran")', members)
    assert run_cli(capsys, "run", "--entry", "Main.main", str(unit)) == (0, "ran\n", "")


def test_a_def_body_that_is_no_block_is_a_parse_error(tmp_path, capsys):
    unit = tmp_path / "m.ml1"
    unit.write_text("object M {\n  def f() = 1\n}", encoding="utf-8")
    assert run_cli(capsys, "parse", str(unit)) == (2, "", f"{unit}: 23-24: expected a block body, found an expression\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["parse"],
        ["resolve", "--dump"],
        ["rewrite"],
        ["run", "--entry", "A.f"],
        ["lint", "--marker", "Context"],
    ],
)
@pytest.mark.parametrize("text", ["print(²)", "print(٣)", "print(é)"])
def test_non_ascii_source_is_a_coded_lex_error(tmp_path, capsys, argv, text):
    unit = tmp_path / "unit.ml1"
    unit.write_text(f"object A {{\n  def f() = {text}\n}}\n", encoding="utf-8")
    status, out, err = run_cli(capsys, *argv, str(unit))
    assert status == 2
    assert out == ""
    assert "E_ILLEGAL_CHARACTER" in err
    assert "internal error" not in err


ALL_COMMANDS = [
    ["parse", "--dump-ast"],
    ["resolve", "--dump"],
    ["rewrite"],
    ["run", "--entry", "Main.main"],
    ["lint", "--marker", "Context"],
]


@pytest.mark.parametrize("argv", ALL_COMMANDS)
def test_deep_nesting_is_a_coded_parse_error(tmp_path, capsys, argv):
    unit = tmp_path / "deep.ml1"
    unit.write_text(
        "object Main {\n  def main() = " + "{ " * 1000 + "1" + " }" * 1000 + "\n}\n",
        encoding="utf-8",
    )
    status, out, err = run_cli(capsys, *argv, str(unit))
    assert status == 2
    assert out == ""
    assert "E_NESTING_TOO_DEEP" in err
    assert "internal error" not in err


# Def bodies nested exactly as deep as the parser allows, in the shapes the
# phases recurse over: blocks, argument lists, defers (two levels each),
# explicit frames, and a def written as a frame that holds a defer.
NESTED_AT_THE_LIMIT = {
    "blocks": "{ " * 99 + "print(1)" + " }" * 99,
    "arguments": "{ print(" + "concat(" * 98 + '"a"' + ', "b")' * 98 + ") }",
    "defers": "{ " + "defer { " * 49 + "print(1)" + " }" * 49 + " }",
    "frames": "{ " + "__frame { __defer(thunk { " * 33 + "1" + " }) }" * 33 + " }",
    "framed_def": "__frame { " + "{ " * 96 + "defer { print(1) }" + " }" * 96 + " }",
}


def nested_unit(shape: str) -> str:
    return (
        "import go.defer._\n\nobject Main {\n  def main() = "
        + NESTED_AT_THE_LIMIT[shape]
        + "\n}\n"
    )


@pytest.mark.parametrize("argv", ALL_COMMANDS)
@pytest.mark.parametrize("shape", sorted(NESTED_AT_THE_LIMIT))
def test_nesting_at_the_limit_keeps_the_exit_contract(tmp_path, capsys, argv, shape):
    unit = tmp_path / "nested.ml1"
    unit.write_text(nested_unit(shape), encoding="utf-8")
    status, _, err = run_cli(capsys, *argv, *fixture_paths("lib/go_defer.ml1"), str(unit))
    assert status in (0, 1, 2)
    assert "internal error" not in err
    assert "E_NESTING_TOO_DEEP" not in err


@pytest.mark.parametrize("shape", sorted(NESTED_AT_THE_LIMIT))
def test_rewrite_output_at_the_limit_parses_again(shape):
    unit = parse_source(nested_unit(shape))
    lowered, _ = apply_rewriter((DEFER_REWRITER,), unit)
    assert parse_source(pretty_print(lowered)) == lowered


def test_a_framed_def_at_the_limit_runs_alike_after_rewrite(tmp_path, capsys):
    # The lowered def keeps its one frame, so the rewritten unit is no
    # deeper than the written one and runs the defer on the same frame.
    unit = tmp_path / "nested.ml1"
    unit.write_text(nested_unit("framed_def"), encoding="utf-8")
    rewritten = tmp_path / "rewritten.ml1"
    lowered, _ = apply_rewriter((DEFER_REWRITER,), parse_source(nested_unit("framed_def")))
    rewritten.write_text(pretty_print(lowered), encoding="utf-8")
    for path in (unit, rewritten):
        argv = ["run", "--entry", "Main.main", *fixture_paths("lib/go_defer.ml1"), str(path)]
        assert run_cli(capsys, *argv) == (0, "1\n", ""), path.name


def test_one_defer_past_the_limit_is_a_coded_parse_error(tmp_path, capsys):
    unit = tmp_path / "nested.ml1"
    unit.write_text(nested_unit("defers").replace("print(1)", "defer { 1 }"), encoding="utf-8")
    status, out, err = run_cli(capsys, "parse", str(unit))
    assert status == 2
    assert out == ""
    assert "E_NESTING_TOO_DEEP" in err


def deferring_chain(length: int, nesting: int = 0) -> str:
    """main calls f0, and each f<i> defers printing "u<i>-a", prints "d<i>"
    and then calls f<i+1>; the last prints "bottom". `nesting` wraps each
    call in that many concat argument lists."""
    defs = []
    for i in range(length):
        call = f"f{i + 1}(x)" if i + 1 < length else 'print("bottom")'
        for _ in range(nesting):
            call = f'concat({call}, "")'
        defs.append(
            f"  def f{i}(x) = {{\n    defer {{\n      print(concat(\"u{i}-\", x))\n    }}\n"
            f'    print("d{i}")\n    {call}\n  }}\n'
        )
    return (
        "import go.defer._\n\nobject Main {\n  def main() = {\n    f0(\"a\")\n  }\n"
        + "".join(defs)
        + "}\n"
    )


def entered_and_left(frames: int, bottom: tuple[str, ...] = ()) -> list[str]:
    """The events of a deferring chain whose first `frames` defs were
    entered: each def's entry print, then every deferred print in reverse."""
    return [f"d{i}" for i in range(frames)] + [*bottom] + [f"u{i}-a" for i in reversed(range(frames))]


@pytest.mark.parametrize("length", [150, 199, 250])
def test_deferring_chains_reach_the_call_depth_limit_first(tmp_path, capsys, length):
    unit = tmp_path / "chain.ml1"
    unit.write_text(deferring_chain(length), encoding="utf-8")
    limit = sys.getrecursionlimit()
    status, out, err = run_cli(
        capsys, "run", "--entry", "Main.main", *fixture_paths("lib/go_defer.ml1"), str(unit)
    )
    assert sys.getrecursionlimit() == limit
    assert "internal error" not in err
    if length < 200:
        assert status == 0
        assert err == ""
        assert out.splitlines() == entered_and_left(length, ("bottom",))
    else:
        # main's call is the first; f199's would be the 201st.
        assert status == 2
        assert err.splitlines() == ["error: call depth exceeded"]
        assert out.splitlines() == entered_and_left(199)


def test_deep_expressions_in_deep_calls_fail_with_a_coded_error(tmp_path, capsys):
    unit = tmp_path / "chain.ml1"
    unit.write_text(deferring_chain(199, nesting=60), encoding="utf-8")
    status, out, err = run_cli(
        capsys, "run", "--entry", "Main.main", *fixture_paths("lib/go_defer.ml1"), str(unit)
    )
    assert status == 2
    assert err.splitlines() == ["error: evaluation nested too deeply"]
    # Python's stack ran out some way down the chain, and every def entered
    # before that, the innermost included, still ran its deferred print.
    entered = sum(line.startswith("d") for line in out.splitlines())
    assert 0 < entered < 199
    assert out.splitlines() == entered_and_left(entered)


def test_run_leaves_a_higher_recursion_limit_alone(tmp_path, capsys):
    unit = tmp_path / "chain.ml1"
    unit.write_text(deferring_chain(199), encoding="utf-8")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 10_000)
    try:
        status, out, _ = run_cli(
            capsys, "run", "--entry", "Main.main", *fixture_paths("lib/go_defer.ml1"), str(unit)
        )
        assert sys.getrecursionlimit() == limit + 10_000
    finally:
        sys.setrecursionlimit(limit)
    assert status == 0
    assert out.splitlines() == entered_and_left(199, ("bottom",))


FORWARD_VAL_READ = (
    'object M {\n  def f(x) = {\n    print(x)\n    val x = "inner"\n    x\n  }\n'
    '  def main() = {\n    print(f("param"))\n  }\n}\n'
)


def test_forward_val_read_is_reported_by_resolve_and_run(tmp_path, capsys):
    path = tmp_path / "m.ml1"
    path.write_text(FORWARD_VAL_READ)
    start = FORWARD_VAL_READ.index("print(x)") + len("print(")
    for argv in (["resolve"], ["run", "--entry", "M.main"]):
        status, out, err = run_cli(capsys, *argv, str(path))
        assert status == 1
        assert out == ""
        assert err == (
            f"{path}:{start}-{start + 1}: E_FORWARD_REFERENCE: "
            "forward reference to x extends over the definition of val x\n"
        )


def test_forward_local_def_call_runs(tmp_path, capsys):
    source = (
        'object M {\n  def g() = {\n    def h() = {\n      k()\n    }\n'
        '    print(h())\n    def k() = {\n      "k"\n    }\n  }\n}\n'
    )
    path = tmp_path / "m.ml1"
    path.write_text(source)
    status, out, err = run_cli(capsys, "run", "--entry", "M.g", str(path))
    assert (status, out, err) == (0, "k\n", "")
    status, out, _ = run_cli(capsys, "resolve", "--dump", "--format", "pretty", str(path))
    assert status == 0
    start = source.index("k()")
    assert f"{path}:{start}-{start + 1} k -> M.g.k" in out.splitlines()


CYCLES = {
    "self": {"s.ml1": "object S extends S {\n}\n"},
    "two_in_one_file": {
        "ab.ml1": "package p\n\nobject X {\n  val x = 1\n}\n\nobject A extends B {\n  @exported import p.X._\n}\n\n"
        "object B extends A {\n  val y = 2\n}\n"
    },
    **{
        f"three_across_files_{order}": {
            f"{name}.ml1": f"package q\n\nobject {name.upper()} extends {parent.upper()} {{\n}}\n"
            for name, parent in pairs
        }
        for order, pairs in [
            ("forward", [("a", "b"), ("b", "c"), ("c", "a")]),
            ("backward", [("c", "a"), ("b", "c"), ("a", "b")]),
        ]
    },
}


def write_units(tmp_path, sources: dict[str, str]) -> list[str]:
    for name, source in sources.items():
        (tmp_path / name).write_text(source, encoding="utf-8")
    return [str(tmp_path / name) for name in sources]


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_cyclic_inheritance_is_reported_once(tmp_path, capsys, name):
    status, _, err = run_cli(capsys, "resolve", *write_units(tmp_path, CYCLES[name]))
    assert status == 1
    assert [line.split(": ")[1] for line in err.splitlines()] == ["E_CYCLIC_INHERITANCE"]


def test_a_second_package_object_of_a_package_declares_nothing(tmp_path, capsys):
    a, b, c = write_units(
        tmp_path,
        {
            "a.ml1": "package r\n\npackage object s {\n  def f() = {\n    1\n  }\n}\n",
            "b.ml1": "package r\n\npackage object s {\n  def g() = {\n    2\n  }\n}\n",
            "c.ml1": "import r.s._\n\nobject C {\n  def main() = {\n    f()\n    g()\n  }\n}\n",
        },
    )
    status, out, err = run_cli(capsys, "resolve", "--dump", "--format", "pretty", a, b, c)
    assert (status, out.splitlines(), err.splitlines()) == (
        1,
        [f"{c}:46-47 f -> r.s.f", f"{c}:54-55 g -> <unresolved>"],
        [
            f"{b}:11-55: E_DUPLICATE_SYMBOL: r.s.package is already defined",
            f"{c}:54-55: E_UNRESOLVED: g is not in scope",
        ],
    )


def test_an_import_path_through_a_def_names_no_scope(tmp_path, capsys):
    p, d = write_units(
        tmp_path,
        {
            "p.ml1": "package object p {\n  def f() = {\n    1\n  }\n}\n",
            "d.ml1": "import p.f._\n\nobject A {\n}\n",
        },
    )
    assert run_cli(capsys, "resolve", p, d) == (
        1,
        "",
        f"{d}:0-12: E_UNRESOLVED_IMPORT_PATH: import path p.f does not name a template or package\n",
    )


def unregistered_rewriter_project(tmp_path) -> list[str]:
    """A rewriter object with no intrinsic transformation, in `custom`, and
    two units that import it."""
    (tmp_path / "custom.ml1").write_text(
        "package custom\n\nimplicit object rewriter extends DefaultRewriter {\n}\n", encoding="utf-8"
    )
    for name in ("a", "b"):
        (tmp_path / f"{name}.ml1").write_text(f"import custom._\n\nobject {name.upper()} {{\n}}\n", encoding="utf-8")
    return [str(tmp_path / f"{name}.ml1") for name in ("custom", "a", "b")]


def test_rewriter_binding_errors_name_the_unit(tmp_path, capsys):
    paths = unregistered_rewriter_project(tmp_path)
    status, _, err = run_cli(capsys, "rewrite", *paths)
    assert status == 1
    assert err.splitlines() == [
        f"{path}: E_UNREGISTERED_REWRITER: no intrinsic transformation is registered for custom.rewriter"
        for path in paths
    ]


def test_run_reports_every_unit_whose_rewriter_fails(tmp_path, capsys):
    paths = unregistered_rewriter_project(tmp_path)
    assert run_cli(capsys, "run", "--entry", "A.main", *paths) == (
        1,
        "",
        "".join(
            f"{path}: E_UNREGISTERED_REWRITER: no intrinsic transformation is registered for custom.rewriter\n"
            for path in paths
        ),
    )


def test_a_compose_argument_that_is_no_rewriter_object_is_reported(tmp_path, capsys):
    hub = tmp_path / "hub.ml1"
    hub.write_text(
        "package hub\n\nobject NotRw {\n}\n\n"
        "implicit object rewriter extends DefaultRewriter {\n  compose(NotRw, go.defer.rewriter)\n}\n",
        encoding="utf-8",
    )
    app = tmp_path / "app.ml1"
    app.write_text("import hub._\n\nobject Main {\n}\n", encoding="utf-8")
    status, _, err = run_cli(capsys, "rewrite", *fixture_paths("lib/go_defer.ml1"), str(hub), str(app))
    assert status == 1
    # Both units that see the rewriter raise the same diagnostic, at the
    # argument in the declaring unit; it is printed once.
    assert err.splitlines() == [
        f"{hub}:92-97: E_UNREGISTERED_REWRITER: compose argument NotRw does not resolve to a rewriter object"
    ]


def compose_arguments(resolve_doc: dict, graph) -> dict[str, tuple[str, str]]:
    """Each rewriter object with the symbols `resolve --dump` gives the
    arguments of its first call to the builtin `compose`."""
    found = {}
    for unit_doc in resolve_doc["units"]:
        refs = unit_doc["refs"]
        for i, ref in enumerate(refs):
            if ref["symbol"] != "<builtin>.compose":
                continue
            start, end = ref["span"]
            (owner,) = [
                fqn
                for fqn, decl in graph.decls.items()
                if isinstance(decl, ast.TemplateDef)
                and graph.owner_unit[fqn] == unit_doc["unit"]
                and decl.span.start <= start
                and end <= decl.span.end
            ]
            found.setdefault(owner, (refs[i + 1]["symbol"], refs[i + 2]["symbol"]))
    return found


@pytest.mark.parametrize("project", sorted(FIXTURE_GROUPS) + sorted(COMPOSE_REPROS))
def test_rewrite_chains_apply_the_compose_arguments_resolve_binds(tmp_path, capsys, project):
    if project in COMPOSE_REPROS:
        files = write_compose_repro(tmp_path, project)
    else:
        files = fixture_paths(*FIXTURE_GROUPS[project])
    _, out, _ = run_cli(capsys, "resolve", "--dump", *files)
    units = [parse_unit(tokenize(Path(file).read_text(encoding="utf-8")), file) for file in files]
    graph = build_scope_graph(units)
    composes = compose_arguments(json.loads(out), graph)

    def expected(fqn: str) -> list[str]:
        if fqn not in composes:
            return [fqn]
        outer, inner = composes[fqn]
        return expected(inner) + expected(outer)

    _, out, _ = run_cli(capsys, "rewrite", "--dump", *files)
    reports = {report["unit"]: report["chain"] for report in json_blocks(out)}
    for unit in units:
        found = implicit_candidates(graph, unit, REWRITER_MARKER)
        if unit.source_name in reports:
            assert reports[unit.source_name] == (expected(found[0].fqn) if len(found) == 1 else [])
    if project in COMPOSE_REPROS:
        shadowed = project == "member_compose_shadows_builtin"  # binds hub.rewriter, which is unregistered
        assert reports.get(files[-1]) == (None if shadowed else ["go.defer.rewriter", "demo.upper.rewriter"])


def _ml1_modules_loaded(*argv):
    # `-X importtime` lists every module the process imports, on stderr.
    src = str(Path(ml1.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ml1", *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0 and done.stdout
    loaded = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}
    return {name for name in loaded if name.split(".")[0] == "ml1"}


def test_parse_loads_only_the_front_end():
    front_end = {"ml1", "ml1.ast", "ml1.cli", "ml1.parser", "ml1.record", "ml1.tokens"}
    assert _ml1_modules_loaded("parse", "--dump-ast", *fixture_paths(*SALAT_AFTER)) == front_end
    pretty = _ml1_modules_loaded("parse", "--dump-ast", "--format", "pretty", *fixture_paths(*SALAT_AFTER))
    assert pretty == front_end | {"ml1.printer"}


def _fail_internally(monkeypatch):
    def boom(paths):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_load_units", boom)


def test_ml1_debug_prints_the_traceback_of_an_internal_error(capsys, monkeypatch):
    _fail_internally(monkeypatch)
    monkeypatch.setenv("ML1_DEBUG", "1")
    status, out, err = run_cli(capsys, "parse", *fixture_paths("salat/marker.ml1"))
    first, rest = err.split("\n", 1)
    assert (status, out, first) == (2, "", "ml1: internal error: boom")
    assert rest.startswith("Traceback (most recent call last):\n")
    assert rest.endswith("RuntimeError: boom\n")


def test_internal_error_is_one_line_without_ml1_debug(capsys, monkeypatch):
    _fail_internally(monkeypatch)
    monkeypatch.delenv("ML1_DEBUG", raising=False)
    assert run_cli(capsys, "parse", *fixture_paths("salat/marker.ml1")) == (2, "", "ml1: internal error: boom\n")


@pytest.mark.parametrize("group", sorted(FIXTURE_GROUPS))
def test_ml1_debug_changes_no_output_without_an_internal_error(capsys, monkeypatch, group):
    files = fixture_paths(*FIXTURE_GROUPS[group])
    for command in (["parse", "--dump-ast"], ["resolve", "--dump"], ["rewrite", "--dump"], ["lint", "--marker", "Context"]):
        monkeypatch.delenv("ML1_DEBUG", raising=False)
        unset = run_cli(capsys, *command, *files)
        monkeypatch.setenv("ML1_DEBUG", "1")
        assert run_cli(capsys, *command, *files) == unset, command
