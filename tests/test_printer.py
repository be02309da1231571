import random

import pytest
from hypothesis import given, settings, strategies as st

from ml1 import ast
from ml1.cli import main
from ml1.diagnostics import SemanticError
from ml1.parser import parse_unit
from ml1.printer import pretty_print
from ml1.rewrite import defer_lowering
from ml1.tokens import tokenize

from conftest import FIXTURES, fixture_paths, parse_fixture, parse_source
from gen import random_unit, random_unit_defs_only


def round_trip(unit: ast.CompilationUnit) -> ast.CompilationUnit:
    return parse_unit(tokenize(pretty_print(unit)), unit.source_name)


def test_import_hub_listing_round_trips():
    unit = parse_fixture("salat", "hub.ml1")
    assert round_trip(unit) == unit


def test_empty_unit_prints_a_single_newline():
    unit = ast.CompilationUnit((), ())
    assert pretty_print(unit) == "\n"
    assert round_trip(unit) == unit


def test_fixture_files_are_in_canonical_form():
    for relative in ("defer/copy.ml1", "defer/copy_plain.ml1", "defer/copy_boom.ml1"):
        path = FIXTURES / relative
        source = path.read_text(encoding="utf-8")
        assert pretty_print(parse_unit(tokenize(source), relative)) == source


def test_single_plain_selector_prints_dotted():
    unit = parse_source("import a.b.{c}")
    assert pretty_print(unit) == "import a.b.c\n"
    assert round_trip(unit) == unit


def test_lowered_output_round_trips():
    source = (
        "object A {\n"
        "  def f() = __frame {\n"
        "    __defer(thunk {\n"
        "      g()\n"
        "    })\n"
        "  }\n"
        "}\n"
    )
    unit = parse_source(source)
    assert pretty_print(unit) == source


def test_string_escapes_round_trip():
    unit = parse_source('object A { val x = "a\\"b\\\\c\\nd\\te" }')
    assert round_trip(unit) == unit


def test_seeded_units_round_trip():
    rng = random.Random(2024)
    for index in range(220):
        unit = random_unit(rng)
        again = round_trip(unit)
        assert again == unit, f"unit #{index} changed across print/parse"


# Of 220 seeded units, how many `defer_lowering` accepts and how many of
# those hold a frame afterwards: a defer inside a def gets one, and a defer
# outside any def makes `random_unit`'s unit fail to lower.
LOWERED_AND_FRAMED = {"random_unit": (191, 13), "random_unit_defs_only": (220, 30)}


@pytest.mark.parametrize("generate", [random_unit, random_unit_defs_only])
def test_seeded_lowered_units_round_trip(generate):
    rng = random.Random(2024)
    lowered_units = framed_units = 0
    for index in range(220):
        unit = generate(rng)
        try:
            lowered = ast.map_children(
                unit, lambda stat: defer_lowering(stat) if isinstance(stat, ast.TemplateDef) else stat
            )
        except SemanticError:
            continue  # a defer outside any def
        lowered_units += 1
        framed_units += any(isinstance(node, ast.FrameExpr) for node in ast.walk(lowered))
        assert round_trip(lowered) == lowered, f"lowered unit #{index} changed across print/parse"
    assert (lowered_units, framed_units) == LOWERED_AND_FRAMED[generate.__name__]


def test_a_def_written_as_a_frame_keeps_its_one_frame(tmp_path, capsys):
    unit = tmp_path / "framed.ml1"
    unit.write_text(
        'import go.defer._\n\nobject M {\n  def f() = __frame { defer { print("a") }; print("b") }\n}\n',
        encoding="utf-8",
    )
    files = [*fixture_paths("lib/go_defer.ml1"), str(unit)]
    assert main(["rewrite", *files]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        "import go.defer._\n\nobject M {\n"
        "  def f() = __frame {\n"
        "    __defer(thunk {\n"
        '      print("a")\n'
        "    })\n"
        '    print("b")\n'
        "  }\n"
        "}\n"
    )
    assert main(["run", "--entry", "M.f", *files]) == 0
    assert capsys.readouterr() == ("b\na\n", "")


ident = st.sampled_from(["alpha", "f", "g", "value", "x9"])


@st.composite
def exprs(draw, depth=2):
    if depth == 0:
        return draw(
            st.one_of(
                st.integers(0, 99).map(ast.IntLit),
                st.text(alphabet="ab \t", max_size=4).map(ast.StrLit),
            )
        )
    return draw(
        st.one_of(
            st.integers(0, 99).map(ast.IntLit),
            st.builds(
                ast.Call,
                st.builds(ast.Ref, st.lists(ident, min_size=1, max_size=2).map(tuple)),
                st.lists(exprs(depth=depth - 1), max_size=2).map(tuple),
            ),
            st.builds(ast.Block, st.lists(exprs(depth=depth - 1), max_size=2).map(tuple)),
        )
    )


@settings(max_examples=120, deadline=None)
@given(body=st.lists(exprs(), min_size=0, max_size=3).map(tuple))
def test_hypothesis_def_bodies_round_trip(body):
    decl = ast.DefDecl("f", ("a",), ast.Block(body), False)
    template = ast.TemplateDef(ast.OBJECT, "T", (), (decl,))
    unit = ast.CompilationUnit((), (template,), "<hyp>")
    assert round_trip(unit) == unit


def test_a_declaration_in_argument_position_is_not_printed():
    # The parser never puts a def where an expression goes; the printer
    # refuses such a tree instead of printing text that parses otherwise.
    stray = ast.DefDecl("g", (), ast.IntLit(1), True)
    call = ast.Call(ast.Ref(("f",)), (stray,))
    unit = ast.CompilationUnit((), (ast.TemplateDef(ast.OBJECT, "Main", (), (call,)),))
    with pytest.raises(TypeError, match="not an expression node"):
        pretty_print(unit)
