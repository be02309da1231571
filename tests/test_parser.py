import json
import sys

import pytest

from ml1 import ast
from ml1.parser import (
    E_ANNOTATION_AT_TOP_LEVEL,
    E_NESTING_TOO_DEEP,
    MAX_NESTING,
    ParseError,
    parse_unit,
)
from ml1.printer import pretty_print
from ml1.tokens import tokenize

from conftest import parse_fixture, parse_source
from gen import FRONT_END_GOLDEN, front_end_rows


def test_import_hub_listing_parses_to_three_annotated_clauses():
    unit = parse_fixture("salat", "hub.ml1")
    assert unit.package_path == ("com", "mycompany")
    (template,) = list(unit.templates())
    assert template.kind == ast.PACKAGE_OBJECT
    assert template.name == "salat"
    clauses = [s for s in template.stats if isinstance(s, ast.ImportClause)]
    assert len(clauses) == 3
    assert all(c.annotations == ("exported",) for c in clauses)
    assert clauses[0].path == ("com", "mongodb", "casbah", "Imports")
    assert clauses[0].selectors == ast.WILDCARD


def test_minimal_object_with_def():
    unit = parse_source("object A { def f() = { 1 } }")
    (template,) = list(unit.templates())
    assert template.kind == ast.OBJECT
    (decl,) = template.stats
    assert isinstance(decl, ast.DefDecl)
    assert not decl.is_val
    assert decl.body == ast.Block((ast.IntLit(1),))


def test_annotated_import_at_top_level_is_rejected():
    with pytest.raises(ParseError) as err:
        parse_source("@exported import x._")
    assert err.value.code == E_ANNOTATION_AT_TOP_LEVEL


def test_annotated_import_inside_template_is_accepted():
    unit = parse_source("object A {\n  @exported import x._\n}")
    (template,) = list(unit.templates())
    (clause,) = template.stats
    assert clause.annotations == ("exported",)


def test_unknown_annotations_parse_and_survive_verbatim():
    unit = parse_source("object A {\n  @foo import a._\n}")
    (clause,) = next(unit.templates()).stats
    assert clause.annotations == ("foo",)


def test_keyword_segments_allowed_after_first_dot():
    unit = parse_source("import go.defer._")
    (clause,) = list(unit.top_imports())
    assert clause.path == ("go", "defer")


def test_package_declaration_with_keyword_segment():
    unit = parse_source("package go.defer\n\nimplicit object rewriter extends DefaultRewriter {\n}")
    assert unit.package_path == ("go", "defer")
    (template,) = list(unit.templates())
    assert template.is_implicit
    assert template.parents == (("DefaultRewriter",),)


def visible(selectors, name):
    """The name an import with `selectors` makes `name` visible as, or None."""
    return selectors.table.get(name, name if selectors.wildcard else None)


def test_selector_forms():
    unit = parse_source("import a.{x, y => z, w => _, _}")
    (clause,) = list(unit.top_imports())
    sel = clause.selectors
    assert sel.wildcard
    assert sel.names == (
        ast.Selector("x", "x"),
        ast.Selector("y", "z"),
        ast.Selector("w", None),
    )
    assert visible(sel, "x") == "x"
    assert visible(sel, "y") == "z"
    assert visible(sel, "w") is None
    assert visible(sel, "other") == "other"


def test_a_wildcard_beside_a_rename_hides_the_new_name():
    # SLS §4.7: the wildcard imports the members other than those the
    # selectors name, on either side of an arrow.
    (clause,) = parse_source("import p.L.{a => b, _}").top_imports()
    assert visible(clause.selectors, "a") == "b"
    assert visible(clause.selectors, "b") is None


def test_single_name_import_is_a_named_selector():
    unit = parse_source("import a.b.c")
    (clause,) = list(unit.top_imports())
    assert clause.path == ("a", "b")
    assert clause.selectors == ast.ImportSelectors(False, (ast.Selector("c", "c"),))


def test_duplicate_rename_targets_are_rejected():
    with pytest.raises(ParseError):
        parse_source("import a.{x => t, y => t}")


def test_wildcard_selector_must_be_last():
    with pytest.raises(ParseError):
        parse_source("import a.{_, x}")


def test_implicit_applies_only_to_objects():
    # The error spans `implicit` through the template keywords and names them.
    for source, expected in [
        ("implicit trait T {\n}", "0-14: expected 'object' after 'implicit', found trait"),
        ("implicit package object Q", "0-23: expected 'object' after 'implicit', found package object"),
        ("package p\n\nimplicit package object q {\n}", "11-34: expected 'object' after 'implicit', found package object"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_source(source)
        assert str(info.value) == expected


def test_statements_need_newline_or_semicolon():
    with pytest.raises(ParseError):
        parse_source("object A { def f() = { g() h() } }")
    unit = parse_source("object A { def f() = { g(); h() } }")
    (decl,) = next(unit.templates()).stats
    assert len(decl.body.stats) == 2


def test_a_semicolon_may_end_the_last_statement_of_a_block():
    unit = parse_source("object A {\n  def f() = {\n    print(1);\n  }\n}")
    (decl,) = next(unit.templates()).stats
    assert len(decl.body.stats) == 1
    assert pretty_print(unit) == "object A {\n  def f() = {\n    print(1)\n  }\n}\n"


def test_call_parenthesis_must_share_the_callee_line():
    # `g` alone ends the statement; a '(' on the next line cannot start one.
    with pytest.raises(ParseError):
        parse_source("object A { def f() = { g\n(1) } }")


def test_defer_produces_a_candidate_node():
    unit = parse_source("object A { def f() = { defer { g() }\n1 } }")
    (decl,) = next(unit.templates()).stats
    candidate = decl.body.stats[0]
    assert isinstance(candidate, ast.DeferCandidate)
    assert candidate.body == ast.Block((ast.Call(ast.Ref(("g",)), ()),))


def test_lowered_intrinsics_parse():
    source = (
        "object A {\n"
        "  def f() = __frame {\n"
        "    __defer(thunk {\n"
        "      g()\n"
        "    })\n"
        "    1\n"
        "  }\n"
        "}\n"
    )
    unit = parse_source(source)
    (decl,) = next(unit.templates()).stats
    frame = decl.body
    assert isinstance(frame, ast.FrameExpr)
    register = frame.body.stats[0]
    assert isinstance(register, ast.DeferRegister)
    assert isinstance(register.thunk, ast.ThunkExpr)


def test_defer_register_requires_a_thunk():
    with pytest.raises(ParseError):
        parse_source("object A { def f() = { __defer(1) } }")


def test_expressions_cannot_appear_at_top_level():
    with pytest.raises(ParseError):
        parse_source("f(1)")


def test_templates_cannot_nest():
    with pytest.raises(ParseError):
        parse_source("object A { object B { } }")


def test_spans_cover_node_extents():
    source = "object A {\n  val x = 12\n}"
    unit = parse_source(source)
    (template,) = list(unit.templates())
    assert source[template.span.start : template.span.end] == source
    (decl,) = template.stats
    assert source[decl.span.start : decl.span.end] == "val x = 12"


def test_parse_is_pure():
    tokens = tokenize("object A {\n  val x = 1\n}")
    assert parse_unit(tokens, "a.ml1") == parse_unit(tokens, "a.ml1")


def test_integer_literals_up_to_the_conversion_limit_parse():
    digits = sys.get_int_max_str_digits()
    (decl,) = next(parse_source(f"object A {{ val x = {'9' * digits} }}").templates()).stats
    assert decl.body.value == 10**digits - 1


def nested_blocks(depth: int) -> str:
    """A def whose body is `depth` blocks deep, the body itself included."""
    return "object A {\n  def f() = " + "{ " * depth + "1" + " }" * depth + "\n}"


def nested_calls(depth: int) -> str:
    """A def body holding argument lists `depth` deep (plus its own block)."""
    return "object A {\n  def f() = { " + "g(" * depth + "1" + ")" * depth + " }\n}"


def test_nesting_up_to_the_limit_parses():
    parse_source(nested_blocks(MAX_NESTING))
    parse_source(nested_calls(MAX_NESTING - 1))


@pytest.mark.parametrize("source", [nested_blocks(MAX_NESTING + 1), nested_calls(MAX_NESTING)])
def test_nesting_past_the_limit_is_a_coded_parse_error(source):
    with pytest.raises(ParseError) as info:
        parse_source(source)
    assert info.value.code == E_NESTING_TOO_DEEP
    # The span points at the bracket that opens the level too many.
    assert source[info.value.span.start] in "{("


def test_nesting_far_past_the_limit_is_still_a_parse_error():
    with pytest.raises(ParseError) as info:
        parse_source(nested_blocks(5000))
    assert info.value.code == E_NESTING_TOO_DEEP


# Inputs that stop where the parser meets the end of input, with the error
# each gives: (code, span, message), or None where the text parses.
@pytest.mark.parametrize(
    "source, expected",
    [
        ("", None),
        ("package p", None),
        ("import a._;", None),
        ("import", (None, (0, 6), "0-6: expected an import path, found end of input")),
        ("import a", (None, (7, 8), "7-8: expected '.', found end of input")),
        ("import a.", (None, (8, 9), "8-9: expected an import selector, found end of input")),
        ("import a.b.", (None, (10, 11), "10-11: expected an import selector, found end of input")),
        ("import a.{", (None, (9, 10), "9-10: expected an import selector, found end of input")),
        ("import a.{b,", (None, (11, 12), "11-12: expected an import selector, found end of input")),
        ("import a.{b =>", (None, (12, 14), "12-14: expected a rename target or '_', found end of input")),
        ("object", (None, (0, 6), "0-6: expected a template name, found end of input")),
        ("object A extends B with", (None, (19, 23), "19-23: expected a qualified name, found end of input")),
        ("object A {", (None, (9, 10), "9-10: expected an expression, found end of input")),
        ("object A { val x =", (None, (17, 18), "17-18: expected an expression, found end of input")),
        ("object A { val x = 1", (None, (19, 20), "19-20: expected an expression, found end of input")),
        ("object A { def f(", (None, (16, 17), "16-17: expected a parameter name, found end of input")),
        ("object A { def f() = { g(1", (None, (25, 26), "25-26: expected ')', found end of input")),
        ("object A { def f() = { x.", (None, (24, 25), "24-25: expected a newline or ';' between statements, found .")),
        ("object A { def f() = { defer", (None, (23, 28), "23-28: expected '{', found end of input")),
        ("object A { val x = __frame", (None, (19, 26), "19-26: expected an expression, found end of input")),
        ("object A { @exported", (None, (12, 20), "12-20: expected 'import' after annotations, found end of input")),
        ("object A { @", (None, (11, 12), "11-12: expected an annotation name, found end of input")),
        ("implicit", (None, (0, 8), "0-8: expected 'object', found end of input")),
        ("implicit trait", (None, (0, 14), "0-14: expected 'object' after 'implicit', found trait")),
        ("implicit object", (None, (9, 15), "9-15: expected a template name, found end of input")),
        ("package p\nimplicit trait", (None, (10, 24), "10-24: expected 'object' after 'implicit', found trait")),
    ],
)
def test_errors_at_the_end_of_input(source, expected):
    if expected is None:
        parse_source(source)
        return
    with pytest.raises(ParseError) as info:
        parse_source(source)
    assert (info.value.code, (info.value.span.start, info.value.span.end), str(info.value)) == expected


def test_the_front_end_matches_its_golden():
    # Each fixture cut before every token and with every token deleted; see
    # `gen.front_end_cases`. Regenerate with `python tests/gen.py` only when
    # a tree or an error is meant to change.
    assert front_end_rows() == json.loads(FRONT_END_GOLDEN.read_text(encoding="utf-8"))
