from __future__ import annotations

from pathlib import Path

import pytest

from ml1 import ast
from ml1.parser import parse_unit
from ml1.scopes import ScopeGraph, build_scope_graph
from ml1.tokens import tokenize

FIXTURES = Path(__file__).parent / "fixtures"

# Pieces of text near the grammar, for generated inputs.
FRAGMENTS = [
    "package", "import", "object", "trait", "implicit", "extends", "with", "def", "val",
    "defer", "@exported", "@other", "{", "}", "(", ")", "=", "=>", ".", ",", "_", ";",
    "\n", " ", "Main", "main", "go", "defer", "demo.upper", "DefaultRewriter", "x", "y",
    "print", "concat", "error", "compose", "1", "42", '"s"', '"', "\\", "//", "/*", "*/",
    "import go.defer._\n", "object Main {\n", "def main() = {\n", "}\n", "print(x)\n",
]


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

# Every fixture project, as CLI file lists.
FIXTURE_GROUPS = {
    "salat_before": SALAT_BEFORE,
    "salat_after": SALAT_AFTER,
    "inherit": INHERIT,
    "compose": COMPOSE,
    "defer": ["lib/go_defer.ml1", "defer/copy.ml1", "defer/loop.ml1"],
    "ambiguous": ["ambiguous/providers.ml1", "ambiguous/client.ml1"],
    **{f"parents_{name}": files for name, files in PARENTS.items()},
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


# Rewriter objects whose `compose` call means what `resolve` binds it to,
# not what a lookup at the unit's top scope finds. Each project is the two
# lib/ rewriters, the object as hub.ml1 and COMPOSE_CLIENT as app.ml1.
COMPOSE_CLIENT = "import hub._\n\nobject App {\n  def work() = {\n    defer {\n      print(\"bye\")\n    }\n  }\n}\n"
COMPOSE_REPROS = {
    "template_import_rename": (
        "package hub\n\nimplicit object rewriter extends DefaultRewriter {\n"
        "  import demo.upper.{rewriter => up}\n  compose(up, go.defer.rewriter)\n}\n"
    ),
    "inherited_exported_rename": (
        "package hub\n\ntrait Names {\n  @exported import demo.upper.{rewriter => up}\n}\n\n"
        "implicit object rewriter extends DefaultRewriter with Names {\n  compose(up, go.defer.rewriter)\n}\n"
    ),
    "member_compose_shadows_builtin": (
        "package hub\n\nimplicit object rewriter extends DefaultRewriter {\n"
        "  def compose(a, b) = {\n    a\n  }\n  compose(demo.upper.rewriter, go.defer.rewriter)\n}\n"
    ),
}


def write_compose_repro(directory: Path, name: str) -> list[str]:
    """The repro project `name` as files under `directory`, in CLI order."""
    (directory / "hub.ml1").write_text(COMPOSE_REPROS[name], encoding="utf-8")
    (directory / "app.ml1").write_text(COMPOSE_CLIENT, encoding="utf-8")
    libs = fixture_paths("lib/go_defer.ml1", "lib/demo_upper.ml1")
    return [*libs, str(directory / "hub.ml1"), str(directory / "app.ml1")]
