import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ml1
from ml1 import ast
from ml1.cli import main
from ml1.parser import parse_unit
from ml1.printer import pretty_print
from ml1.resolve import implicit_candidates, select_implicit
from ml1.rewrite import DEFER_REWRITER, apply_rewriter, builtin_registry
from ml1.scopes import REWRITER_MARKER, build_scope_graph
from ml1.tokens import tokenize

from conftest import (
    COMPOSE,
    COMPOSE_REPROS,
    FIXTURES,
    INHERIT,
    PARENTS,
    SALAT_AFTER,
    SALAT_BEFORE,
    fixture_paths,
    parse_source,
    write_compose_repro,
)


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


FIXTURE_GROUPS = {
    "salat_before": SALAT_BEFORE,
    "salat_after": SALAT_AFTER,
    "inherit": INHERIT,
    "compose": COMPOSE,
    "defer": ["lib/go_defer.ml1", "defer/copy.ml1", "defer/loop.ml1"],
    "ambiguous": ["ambiguous/providers.ml1", "ambiguous/client.ml1"],
    **{f"parents_{name}": files for name, files in PARENTS.items()},
}


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
# phases recurse over: blocks, argument lists, defers (two levels each) and
# explicit frames.
NESTED_AT_THE_LIMIT = {
    "blocks": "{ " * 99 + "print(1)" + " }" * 99,
    "arguments": "{ print(" + "concat(" * 98 + '"a"' + ', "b")' * 98 + ") }",
    "defers": "{ " + "defer { " * 49 + "print(1)" + " }" * 49 + " }",
    "frames": "{ " + "__frame { __defer(thunk { " * 33 + "1" + " }) }" * 33 + " }",
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
    lowered, _ = apply_rewriter((DEFER_REWRITER,), unit, builtin_registry())
    assert parse_source(pretty_print(lowered)) == lowered


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


@pytest.mark.parametrize("name", sorted(CYCLES))
def test_cyclic_inheritance_is_reported_once(tmp_path, capsys, name):
    paths = []
    for file, source in CYCLES[name].items():
        (tmp_path / file).write_text(source, encoding="utf-8")
        paths.append(str(tmp_path / file))
    status, _, err = run_cli(capsys, "resolve", *paths)
    assert status == 1
    assert [line.split(": ")[1] for line in err.splitlines()] == ["E_CYCLIC_INHERITANCE"]


def test_rewriter_binding_errors_name_the_unit(tmp_path, capsys):
    (tmp_path / "custom.ml1").write_text(
        "package custom\n\nimplicit object rewriter extends DefaultRewriter {\n}\n", encoding="utf-8"
    )
    for name in ("a", "b"):
        (tmp_path / f"{name}.ml1").write_text(f"import custom._\n\nobject {name.upper()} {{\n}}\n", encoding="utf-8")
    paths = [str(tmp_path / f"{name}.ml1") for name in ("custom", "a", "b")]
    status, _, err = run_cli(capsys, "rewrite", *paths)
    assert status == 1
    assert err.splitlines() == [
        f"{path}: E_UNREGISTERED_REWRITER: no intrinsic transformation is registered for custom.rewriter"
        for path in paths
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
        winner, _ = select_implicit(implicit_candidates(graph, unit, REWRITER_MARKER))
        if unit.source_name in reports:
            assert reports[unit.source_name] == ([] if winner is None else expected(winner.fqn))
    if project in COMPOSE_REPROS:
        shadowed = project == "member_compose_shadows_builtin"  # binds hub.rewriter, which is unregistered
        assert reports.get(files[-1]) == (None if shadowed else ["go.defer.rewriter", "demo.upper.rewriter"])
