from __future__ import annotations

from pathlib import Path

import pytest

from ml1 import ast
from ml1.parser import parse_unit
from ml1.scopes import ScopeGraph, build_scope_graph
from ml1.tokens import tokenize

FIXTURES = Path(__file__).parent / "fixtures"


def parse_source(source: str, name: str = "<test>") -> ast.CompilationUnit:
    return parse_unit(tokenize(source), name)


def parse_fixture(*relative: str) -> ast.CompilationUnit:
    path = FIXTURES.joinpath(*relative)
    return parse_unit(tokenize(path.read_text(encoding="utf-8")), path.name)


def fixture_paths(*relative: str) -> list[str]:
    return [str(FIXTURES.joinpath(r)) for r in relative]


def build_project(*units: ast.CompilationUnit) -> ScopeGraph:
    graph = build_scope_graph(list(units))
    assert not graph.diagnostics, [d.render() for d in graph.diagnostics]
    return graph


SALAT_BEFORE = [
    "salat/marker.ml1",
    "salat/contexts_impl.ml1",
    "salat/casbah.ml1",
    "salat/salat_core.ml1",
    "salat/custom_home.ml1",
    "salat/global_home.ml1",
    "salat/before_a.ml1",
    "salat/before_b.ml1",
]

SALAT_AFTER = [
    "salat/marker.ml1",
    "salat/contexts_impl.ml1",
    "salat/casbah.ml1",
    "salat/salat_core.ml1",
    "salat/context_home.ml1",
    "salat/hub.ml1",
    "salat/after_a.ml1",
    "salat/after_b.ml1",
]

INHERIT = [
    "inherit/play_api.ml1",
    "inherit/play_mvc.ml1",
    "inherit/controller.ml1",
    "inherit/my_controller.ml1",
]

COMPOSE = [
    "lib/go_defer.ml1",
    "lib/demo_upper.ml1",
    "compose/awithb.ml1",
    "compose/awithb_rewriter.ml1",
    "compose/compose_client.ml1",
]

# Projects whose templates inherit members and `@exported` clauses.
PARENTS = {
    "members": ["parents/members/t.ml1", "parents/members/client.ml1"],
    "union": ["parents/union/xy.ml1", "parents/union/d.ml1", "parents/union/client.ml1"],
    "package_object": [
        "parents/package_object/t.ml1",
        "parents/package_object/p.ml1",
        "parents/package_object/b.ml1",
        "parents/package_object/c.ml1",
    ],
    "rewriter": ["lib/go_defer.ml1", "parents/rewriter/kit.ml1", "parents/rewriter/app.ml1"],
}


@pytest.fixture
def salat_before_units():
    return [parse_fixture(r) for r in SALAT_BEFORE]


@pytest.fixture
def salat_after_units():
    return [parse_fixture(r) for r in SALAT_AFTER]


@pytest.fixture
def inherit_units():
    return [parse_fixture(r) for r in INHERIT]


@pytest.fixture
def compose_units():
    return [parse_fixture(r) for r in COMPOSE]
