"""`resolve --dump` against the document it stands for: the dict tree built
here from the same resolution and closures, encoded by
`json.dumps(document, indent=2)`; and `--format pretty` against the same
tree's references."""

from __future__ import annotations

import importlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from ml1 import ast, cli, dump
from ml1.parser import parse_unit
from ml1.printer import pretty_print
from ml1.resolve import RefRecord, Resolution, resolve_units
from ml1.scopes import ScopeGraph, build_scope_graph, export_closure
from ml1.tokens import Span, tokenize

from conftest import FIXTURE_GROUPS, fixture_paths
from gen import graph_spec_sources, random_graph_spec, random_unit

BENCH = Path(__file__).resolve().parent.parent / "bench"


def oracle_document(graph: ScopeGraph, resolution: Resolution) -> dict:
    by_unit: dict[str, list] = {}
    for record in resolution.records:
        by_unit.setdefault(record.unit, []).append(
            {
                "span": [record.span.start, record.span.end],
                "name": record.name,
                "symbol": record.symbol.fqn if record.symbol else None,
            }
        )
    templates = sorted(fqn for fqn, sym in graph.symbols.items() if sym.kind == "template")
    return {
        "units": [{"unit": name, "refs": by_unit[name]} for name in sorted(by_unit)],
        "closures": [
            {
                "template": fqn,
                "entries": [
                    {"name": e.visible_name, "symbol": e.symbol.fqn, "path": [edge.label() for edge in e.path]}
                    for e in export_closure(graph, fqn).entries
                ],
            }
            for fqn in templates
        ],
        "erasedImports": [
            {"unit": unit, "path": ast.dotted(path), "span": [span.start, span.end]}
            for unit, path, span in resolution.erased_imports
        ],
        "diagnostics": sorted(d.render() for d in graph.diagnostics + resolution.diagnostics),
    }


def oracle_pretty(document: dict) -> str:
    return "".join(
        f"{unit['unit']}:{ref['span'][0]}-{ref['span'][1]} {ref['name']} -> {ref['symbol'] or '<unresolved>'}\n"
        for unit in document["units"]
        for ref in unit["refs"]
    )


def assert_dumps_match(capsys, files: list[str]) -> dict:
    """Both formats of `resolve --dump` on `files` equal the oracles, with
    the diagnostics on stderr and the exit code; returns the document."""
    units = [parse_unit(tokenize(Path(f).read_text(encoding="utf-8")), f) for f in files]
    graph = build_scope_graph(units)
    resolution = resolve_units(graph, units)
    document = oracle_document(graph, resolution)
    status = 1 if document["diagnostics"] else 0
    err = "".join(line + "\n" for line in document["diagnostics"])
    expected = {"json": json.dumps(document, indent=2) + "\n", "pretty": oracle_pretty(document)}
    for fmt, out in expected.items():
        assert cli.main(["resolve", "--dump", "--format", fmt, *files]) == status
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (out, err), fmt
    return document


def write_units(directory: Path, sources: list[tuple[str, str]]) -> list[str]:
    for name, text in sources:
        (directory / name).write_text(text, encoding="utf-8")
    return [str(directory / name) for name, _ in sources]


@pytest.mark.parametrize("group", sorted(FIXTURE_GROUPS))
def test_fixture_dumps_match_the_oracle(capsys, group):
    assert_dumps_match(capsys, fixture_paths(*FIXTURE_GROUPS[group]))


def test_random_projects_match_the_oracle(tmp_path, capsys):
    rng = random.Random(4242)
    for project in range(40):
        directory = tmp_path / f"units{project}"
        directory.mkdir()
        sources = [(f"u{i}.ml1", pretty_print(random_unit(rng))) for i in range(rng.randint(1, 3))]
        assert_dumps_match(capsys, write_units(directory, sources))
        directory = tmp_path / f"graph{project}"
        directory.mkdir()
        assert_dumps_match(capsys, write_units(directory, graph_spec_sources(random_graph_spec(rng))))


# A source whose dump leaves one section empty and the others not. The
# marker trait is always a template, so an empty "closures" needs a graph
# built by hand (below).
EMPTY_SECTION = {
    "units": "object A {\n  @exported import B._\n}\n",
    "erasedImports": "object A {\n  def f() = {\n    missing\n  }\n}\n",
    "diagnostics": 'object A {\n  @exported import B._\n  def f() = {\n    x\n  }\n}\n\nobject B {\n  val x = "x"\n}\n',
}


@pytest.mark.parametrize("section", sorted(EMPTY_SECTION))
def test_empty_sections_match_the_oracle(tmp_path, capsys, section):
    document = assert_dumps_match(capsys, write_units(tmp_path, [("one.ml1", EMPTY_SECTION[section])]))
    assert [key for key, value in document.items() if not value] == [section]


@pytest.mark.parametrize(
    "resolution", [Resolution(), Resolution(records=[RefRecord("u.ml1", Span(0, 1), "x", None)])]
)
def test_a_graph_without_templates_matches_the_oracle(resolution):
    graph = ScopeGraph()
    out = io.StringIO()
    dump.write_resolution(out, graph, resolution)
    assert out.getvalue() == json.dumps(oracle_document(graph, resolution), indent=2) + "\n"


def test_unit_names_are_escaped_as_json_dumps_escapes_them(tmp_path, capsys):
    # Non-ASCII letters, a quote, a backslash and a control character reach
    # the dump as "unit" values and inside diagnostics.
    sources = [
        ('q "ü" \\ \x01.ml1', "package q\n\nobject B {\n  def g() = {\n    g()\n  }\n}\n"),
        (
            "Zürich\x7f\t.ml1",
            "package p\n\nobject A {\n  @exported import q.B._\n  def f() = {\n    g()\n    missing()\n  }\n}\n",
        ),
    ]
    document = assert_dumps_match(capsys, write_units(tmp_path, sources))
    assert [Path(unit["unit"]).name for unit in document["units"]] == sorted(name for name, _ in sources)
    assert document["erasedImports"] and document["diagnostics"]


def bench_workload(name: str, seed: int) -> list[tuple[str, str]]:
    """The units of one of the benchmark's workloads, from its own
    generators, as (file name, source text)."""
    sys.path.insert(0, str(BENCH))
    try:
        model = importlib.import_module("model")
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCH))
    return [(unit.file, model.render(unit)[0]) for unit in workloads.generate(name, seed).units]


@pytest.mark.parametrize("workload", ["project", "reexport_web", "defer_tree"])
def test_benchmark_workloads_match_the_oracle(tmp_path, capsys, workload):
    # The shapes the benchmark times, so a change to the writer cannot drift
    # on them.
    assert_dumps_match(capsys, write_units(tmp_path, bench_workload(workload, 3)))
