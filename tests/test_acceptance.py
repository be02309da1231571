"""Acceptance suite: one test per shipping criterion.

Each test prints a PASS line on success (run with -s to see them); the
pytest verdict per test is the authoritative pass/fail signal.
"""

import json
import random

import pytest

from ml1 import ast
from ml1.cli import main as cli_main
from ml1.parser import E_ANNOTATION_AT_TOP_LEVEL, ParseError, parse_unit
from ml1.printer import pretty_print
from ml1.resolve import erase_import_annotations, resolve_units
from ml1.rewrite import apply_rewriter
from ml1.scopes import build_scope_graph, export_closure
from ml1.tokens import tokenize

from conftest import (
    COMPOSE,
    FIXTURES,
    SALAT_BEFORE,
    build_project,
    fixture_paths,
    parse_fixture,
    parse_source,
)
from gen import (
    closure_oracle,
    graph_spec_sources,
    program_unit,
    random_graph_spec,
    random_program,
    random_unit,
    random_unit_defs_only,
    simulate,
)


def run_cli(capsys, *argv):
    status = cli_main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_c1_shared_import_hub_golden(capsys, salat_before_units, salat_after_units):
    # Fixed project: resolution succeeds and both clients agree on the context.
    graph = build_project(*salat_after_units)
    resolution = resolve_units(graph, salat_after_units)
    assert resolution.diagnostics == []
    ctx_by_unit = {
        rec.unit: rec.symbol.fqn
        for rec in resolution.records
        if rec.name == "ctx" and rec.unit in ("after_a.ml1", "after_b.ml1")
    }
    assert ctx_by_unit == {
        "after_a.ml1": "salatimpl.customCtx",
        "after_b.ml1": "salatimpl.customCtx",
    }
    # Broken project: lint reports exactly one divergence and exits 1.
    status, out, _ = run_cli(
        capsys, "lint", "--marker", "Context", *fixture_paths(*SALAT_BEFORE)
    )
    assert status == 1
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith("DIVERGENCE Context ")
    print("PASS criterion 1: shared import hub golden test")


def test_c2_inheritance_golden(inherit_units):
    graph = build_project(*inherit_units)
    client = inherit_units[-1]
    assert list(client.top_imports()) == []  # zero local imports
    resolution = resolve_units(graph, inherit_units)
    assert resolution.diagnostics == []
    wanted = {
        rec.name: rec.symbol.fqn
        for rec in resolution.records
        if rec.unit == "my_controller.ml1" and rec.name in ("render", "action")
    }
    assert wanted == {"render": "play.api.render", "action": "play.api.mvc.action"}
    print("PASS criterion 2: exported imports pass through inheritance")


def test_c3_cycle_termination_and_oracle_equivalence():
    rng = random.Random(42)
    mismatches = 0
    for _ in range(200):
        spec = random_graph_spec(rng, max_templates=8, max_edges=16)
        units = [
            parse_unit(tokenize(source), name)
            for name, source in graph_spec_sources(spec)
        ]
        graph = build_scope_graph(units)
        assert not graph.diagnostics
        for index in range(len(spec.members)):
            got = export_closure(graph, spec.template_name(index)).pairs()
            if got != closure_oracle(spec, index):
                mismatches += 1
    assert mismatches == 0
    print("PASS criterion 3: 200 random export graphs match the fixpoint oracle")


def test_c4_defer_semantics(capsys):
    status, out, err = run_cli(
        capsys,
        "run",
        "--entry",
        "copyfile.Main.main",
        *fixture_paths("lib/go_defer.ml1", "defer/copy.ml1"),
    )
    assert status == 0
    assert out.splitlines() == ["open-in", "open-out", "transfer", "close-out", "close-in"]

    status, out, err = run_cli(
        capsys,
        "run",
        "--entry",
        "copyfile.Main.main",
        *fixture_paths("lib/go_defer.ml1", "defer/copy_boom.ml1"),
    )
    assert status == 2
    assert "close-out" in out.splitlines() and "close-in" in out.splitlines()
    assert "error: boom" in err

    status, out, _ = run_cli(
        capsys,
        "run",
        "--entry",
        "loopdemo.Main.main",
        *fixture_paths("lib/go_defer.ml1", "defer/loop.ml1"),
    )
    assert status == 0
    assert out.splitlines() == ["work", "3", "2", "1", "outer"]

    # Property suite: exactly-once plus reverse order over generated bodies
    # with random defer placement and error injection.
    from ml1.interp import run as interp_run

    go_defer = parse_fixture("lib", "go_defer.ml1")
    rng = random.Random(4242)
    violations = 0
    for _ in range(200):
        program = random_program(rng)
        events, primary, suppressed = simulate(program)
        unit = program_unit(program)
        lowered, _ = apply_rewriter(("go.defer.rewriter",), unit)
        graph = build_scope_graph([go_defer, lowered])
        resolution = resolve_units(graph, [go_defer, lowered])
        trace = interp_run(graph, resolution, "Main.main")
        ok = trace.events == events
        if primary is None:
            ok = ok and not trace.failed
        else:
            ok = (
                ok
                and trace.failed
                and trace.error.message == primary
                and [s.message for s in trace.error.suppressed] == suppressed
            )
        if not ok:
            violations += 1
    assert violations == 0
    print("PASS criterion 4: defer trace order, unwinding on error, 200-program property suite")


def test_c5_activation_by_import(capsys):
    plain = FIXTURES / "defer" / "copy_plain.ml1"
    status, out, _ = run_cli(capsys, "rewrite", str(plain))
    assert status == 0
    assert out == plain.read_text(encoding="utf-8")  # byte-identical

    unit = parse_fixture("defer", "copy.ml1")
    lib = parse_fixture("lib", "go_defer.ml1")
    graph = build_project(lib, unit)
    from ml1.rewrite import bind_rewriter

    plain_unit = parse_unit(tokenize(plain.read_text(encoding="utf-8")), "copy_plain.ml1")
    plain_graph = build_project(plain_unit)
    assert bind_rewriter(plain_graph, plain_unit) == ()

    ref = bind_rewriter(graph, unit)
    rewritten, report = apply_rewriter(ref, unit)
    assert report.chain == ["go.defer.rewriter"]
    assert sum(1 for n in ast.walk(rewritten) if isinstance(n, ast.DeferCandidate)) == 0
    defer_defs = [
        decl
        for tpl in rewritten.templates()
        for decl in tpl.stats
        if isinstance(decl, ast.DefDecl)
        and any(isinstance(n, ast.DeferRegister) for n in ast.walk(decl))
    ]
    assert len(defer_defs) == 1
    for decl in defer_defs:
        frames = [n for n in ast.walk(decl) if isinstance(n, ast.FrameExpr)]
        assert len(frames) == 1
        assert decl.body == frames[0]
    print("PASS criterion 5: rewriting activates only via the import")


def test_c6_composition_golden_and_laws(capsys, compose_units):
    status, out, _ = run_cli(capsys, "rewrite", "--dump", *fixture_paths(*COMPOSE))
    assert status == 0
    reports = []
    current = None
    for line in out.splitlines():
        if line == "{":
            current = [line]
        elif current is not None:
            current.append(line)
            if line == "}":
                reports.append(json.loads("\n".join(current)))
                current = None
    client_report = next(r for r in reports if r["unit"].endswith("compose_client.ml1"))
    assert client_report["chain"] == ["go.defer.rewriter", "demo.upper.rewriter"]

    graph = build_project(*compose_units)
    client = compose_units[-1]
    from ml1.rewrite import bind_rewriter

    ref = bind_rewriter(graph, client)
    composed, _ = apply_rewriter(ref, client)
    step_b, _ = apply_rewriter(("go.defer.rewriter",), client)
    step_ba, _ = apply_rewriter(("demo.upper.rewriter",), step_b)
    assert composed == step_ba

    upper = ("demo.upper.rewriter",)
    defer = ("go.defer.rewriter",)
    rng = random.Random(64)
    mismatches = 0
    for _ in range(100):
        unit = random_unit_defs_only(rng)
        left, _ = apply_rewriter((upper + defer) + upper, unit)
        right, _ = apply_rewriter(upper + (defer + upper), unit)
        if left != right:
            mismatches += 1
        with_identity, _ = apply_rewriter(defer + (), unit)
        plain, _ = apply_rewriter(defer, unit)
        other_identity, _ = apply_rewriter(() + defer, unit)
        if with_identity != plain or other_identity != plain:
            mismatches += 1
    assert mismatches == 0
    print("PASS criterion 6: composed rewriting matches sequential application; laws hold on 100 units")


def test_c7_grammar_conformance():
    inside = parse_source("object A {\n  @exported import x._\n}")
    (clause,) = next(inside.templates()).stats
    assert clause.annotations == ("exported",)

    with pytest.raises(ParseError) as err:
        parse_source("@exported import x._")
    assert err.value.code == E_ANNOTATION_AT_TOP_LEVEL

    target = parse_source("object T {\n}", "t.ml1")
    bad = parse_source("object A {\n  @foo import T._\n}", "a.ml1")
    graph = build_scope_graph([target, bad])
    assert [d.code for d in graph.diagnostics] == ["E_UNKNOWN_IMPORT_ANNOTATION"]

    rng = random.Random(2025)
    failures = 0
    for _ in range(200):
        unit = random_unit(rng)
        again = parse_unit(tokenize(pretty_print(unit)), unit.source_name)
        if again != unit:
            failures += 1
    assert failures == 0
    print("PASS criterion 7: grammar position rules and 200-unit round trip")


def test_c8_erasure(salat_after_units, inherit_units, compose_units):
    for units in (salat_after_units, inherit_units, compose_units):
        graph = build_project(*units)
        before = resolve_units(graph, units)
        erased = erase_import_annotations(units)
        for unit in erased:
            for node in ast.walk(unit):
                if isinstance(node, ast.ImportClause):
                    assert node.annotations == ()
        after = resolve_units(graph, erased)
        assert before.records == after.records
        assert [d.render() for d in before.diagnostics] == [
            d.render() for d in after.diagnostics
        ]
        assert erase_import_annotations(erased) == erased
    print("PASS criterion 8: erasure leaves no annotations and changes no resolution output")
