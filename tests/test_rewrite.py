import random

import pytest

from ml1 import ast
from ml1.diagnostics import (
    E_AMBIGUOUS_IMPLICIT,
    E_DEFER_OUTSIDE_METHOD,
    E_REWRITE,
    E_REWRITER_CYCLE,
    E_UNREGISTERED_REWRITER,
    SemanticError,
)
from ml1.printer import pretty_print
from ml1.resolve import implicit_candidates
from ml1.rewrite import (
    apply_rewriter,
    bind_rewriter,
    builtin_registry,
    defer_lowering,
)
from ml1.scopes import REWRITER_MARKER

from conftest import COMPOSE_CLIENT, COMPOSE_REPROS, FIXTURES, build_project, parse_fixture, parse_source
from gen import random_unit_defs_only


def bind_for(graph, unit, registry=None):
    registry = registry or builtin_registry()
    return bind_rewriter(graph, implicit_candidates(graph, unit, REWRITER_MARKER), registry)


def test_import_binds_the_defer_intrinsic():
    lib = parse_fixture("lib", "go_defer.ml1")
    unit = parse_fixture("defer", "copy.ml1")
    graph = build_project(lib, unit)
    assert bind_for(graph, unit) == ("go.defer.rewriter",)


def test_no_rewriter_in_scope_binds_identity():
    unit = parse_fixture("defer", "copy_plain.ml1")
    graph = build_project(unit)
    registry = builtin_registry()
    ref = bind_for(graph, unit, registry)
    assert ref == ()
    rewritten, report = apply_rewriter(ref, unit, registry)
    assert rewritten is unit
    assert report.chain == []


def test_composition_binds_inner_first(compose_units):
    graph = build_project(*compose_units)
    client = compose_units[-1]
    ref = bind_for(graph, client)
    assert ref == ("go.defer.rewriter", "demo.upper.rewriter")


def test_composed_application_equals_sequential_application(compose_units):
    graph = build_project(*compose_units)
    client = compose_units[-1]
    registry = builtin_registry()
    ref = bind_for(graph, client, registry)
    composed, report = apply_rewriter(ref, client, registry)
    step_b, _ = apply_rewriter(("go.defer.rewriter",), client, registry)
    step_ba, _ = apply_rewriter(("demo.upper.rewriter",), step_b, registry)
    assert composed == step_ba
    assert report.chain == ["go.defer.rewriter", "demo.upper.rewriter"]
    assert report.templates_touched == 1


def test_unregistered_rewriter_is_an_error():
    lib = parse_source(
        "package custom\n\nimplicit object rewriter extends DefaultRewriter {\n}",
        "custom.ml1",
    )
    unit = parse_source("import custom._\n\nobject Main {\n}", "main.ml1")
    graph = build_project(lib, unit)
    with pytest.raises(SemanticError) as err:
        bind_for(graph, unit)
    assert err.value.code == E_UNREGISTERED_REWRITER


def test_ambiguous_rewriters_raise():
    impl = parse_source(
        "package duo\n\nimplicit object first extends DefaultRewriter {\n}\n"
        "implicit object second extends DefaultRewriter {\n}",
        "duo.ml1",
    )
    unit = parse_source("import duo._\n\nobject Main {\n}", "main.ml1")
    graph = build_project(impl, unit)
    with pytest.raises(SemanticError) as err:
        bind_for(graph, unit)
    assert err.value.code == E_AMBIGUOUS_IMPLICIT


def test_compose_cycles_are_detected():
    a = parse_source(
        "package a\n\nimplicit object rewriter extends DefaultRewriter {\n"
        "  compose(b.rewriter, b.rewriter)\n}",
        "a.ml1",
    )
    b = parse_source(
        "package b\n\nimplicit object rewriter extends DefaultRewriter {\n"
        "  compose(a.rewriter, a.rewriter)\n}",
        "b.ml1",
    )
    unit = parse_source("import a._\n\nobject Main {\n}", "main.ml1")
    graph = build_project(a, b, unit)
    with pytest.raises(SemanticError) as err:
        bind_for(graph, unit)
    assert err.value.code == E_REWRITER_CYCLE


def test_compose_recognised_inside_member_bodies():
    libs = [parse_fixture("lib", "go_defer.ml1"), parse_fixture("lib", "demo_upper.ml1")]
    hub = parse_source(
        "package hub\n\nimplicit object rewriter extends DefaultRewriter {\n"
        "  def transform() = {\n    compose(demo.upper.rewriter, go.defer.rewriter)\n  }\n}",
        "hub.ml1",
    )
    unit = parse_source("import hub._\n\nobject Main {\n}", "main.ml1")
    graph = build_project(*libs, hub, unit)
    ref = bind_for(graph, unit)
    assert ref == ("go.defer.rewriter", "demo.upper.rewriter")


def compose_repro_units(name):
    libs = [parse_fixture("lib", "go_defer.ml1"), parse_fixture("lib", "demo_upper.ml1")]
    return [*libs, parse_source(COMPOSE_REPROS[name], "hub.ml1"), parse_source(COMPOSE_CLIENT, "app.ml1")]


@pytest.mark.parametrize("name", ["template_import_rename", "inherited_exported_rename"])
def test_compose_arguments_bind_where_resolve_binds_them(name):
    units = compose_repro_units(name)
    graph = build_project(*units)
    assert bind_for(graph, units[-1]) == ("go.defer.rewriter", "demo.upper.rewriter")


def test_compose_arguments_bind_in_the_declaring_unit_when_units_share_a_name():
    # Every unit gets parse_source's default name.
    libs = [(FIXTURES / "lib" / name).read_text(encoding="utf-8") for name in ("go_defer.ml1", "demo_upper.ml1")]
    units = [parse_source(text) for text in (*libs, COMPOSE_REPROS["template_import_rename"], COMPOSE_CLIENT)]
    graph = build_project(*units)
    assert bind_for(graph, units[-1]) == ("go.defer.rewriter", "demo.upper.rewriter")


def test_a_member_compose_shadows_the_builtin():
    units = compose_repro_units("member_compose_shadows_builtin")
    graph = build_project(*units)
    with pytest.raises(SemanticError) as err:
        bind_for(graph, units[-1])
    assert err.value.code == E_UNREGISTERED_REWRITER
    assert err.value.diagnostic.message == "no intrinsic transformation is registered for hub.rewriter"


# Defer lowering ----------------------------------------------------------------


def count_kind(node, node_type) -> int:
    return sum(1 for n in ast.walk(node) if isinstance(n, node_type))


def test_copy_method_lowering_shape():
    unit = parse_fixture("defer", "copy.ml1")
    (template,) = list(unit.templates())
    lowered = defer_lowering(template)
    assert count_kind(lowered, ast.DeferCandidate) == 0
    assert count_kind(lowered, ast.DeferRegister) == 2
    assert count_kind(lowered, ast.FrameExpr) == 1
    copy_def = next(s for s in lowered.stats if isinstance(s, ast.DefDecl) and s.name == "copy")
    (frame,) = copy_def.body.stats
    assert isinstance(frame, ast.FrameExpr)
    # registers replace the two defer statements in place
    register_kinds = [type(s).__name__ for s in frame.body.stats]
    assert register_kinds == ["DefDecl", "DeferRegister", "DefDecl", "DeferRegister", "Call"]


def test_defs_without_defer_are_untouched():
    unit = parse_source("object A {\n  def f() = {\n    g()\n  }\n}")
    (template,) = list(unit.templates())
    assert defer_lowering(template) is template


def test_defer_outside_any_def_is_rejected():
    unit = parse_source("object X {\n  defer {\n    f()\n  }\n}")
    (template,) = list(unit.templates())
    with pytest.raises(SemanticError) as err:
        defer_lowering(template)
    assert err.value.code == E_DEFER_OUTSIDE_METHOD


def test_defer_inside_template_level_val_is_rejected():
    unit = parse_source("object X {\n  val v = {\n    defer {\n      f()\n    }\n    1\n  }\n}")
    (template,) = list(unit.templates())
    with pytest.raises(SemanticError) as err:
        defer_lowering(template)
    assert err.value.code == E_DEFER_OUTSIDE_METHOD


def test_block_local_val_defers_join_the_enclosing_def_frame():
    unit = parse_source(
        "object X {\n  def f() = {\n    val v = {\n      defer {\n        g()\n      }\n      1\n    }\n    v\n  }\n}"
    )
    (template,) = list(unit.templates())
    lowered = defer_lowering(template)
    assert count_kind(lowered, ast.FrameExpr) == 1
    assert count_kind(lowered, ast.DeferRegister) == 1


def test_nested_defs_get_their_own_frames():
    unit = parse_source(
        "object X {\n  def outer() = {\n    def inner() = {\n      defer {\n        g()\n      }\n    }\n    inner()\n  }\n}"
    )
    (template,) = list(unit.templates())
    lowered = defer_lowering(template)
    # only inner registered a defer, so only inner is framed
    assert count_kind(lowered, ast.FrameExpr) == 1
    outer = lowered.stats[0]
    assert isinstance(outer.body.stats[0], ast.DefDecl)


def test_rewrite_error_is_wrapped_when_applied():
    lib = parse_fixture("lib", "go_defer.ml1")
    unit = parse_source(
        "import go.defer._\n\nobject X {\n  defer {\n    f()\n  }\n}", "x.ml1"
    )
    graph = build_project(lib, unit)
    registry = builtin_registry()
    ref = bind_for(graph, unit, registry)
    with pytest.raises(SemanticError) as err:
        apply_rewriter(ref, unit, registry)
    assert err.value.code == E_REWRITE
    assert E_DEFER_OUTSIDE_METHOD in err.value.diagnostic.message


def test_lowering_is_idempotent():
    unit = parse_fixture("defer", "copy.ml1")
    (template,) = list(unit.templates())
    once = defer_lowering(template)
    assert defer_lowering(once) is once


def test_lowering_leaves_no_candidates_on_generated_units():
    rng = random.Random(5)
    registry = builtin_registry()
    for _ in range(80):
        unit = random_unit_defs_only(rng)
        rewritten, _ = apply_rewriter(("go.defer.rewriter",), unit, registry)
        assert count_kind(rewritten, ast.DeferCandidate) == 0
        again, _ = apply_rewriter(("go.defer.rewriter",), rewritten, registry)
        assert again == rewritten


def test_activation_is_opt_in_per_import():
    unit = parse_fixture("defer", "copy_plain.ml1")
    graph = build_project(unit)
    registry = builtin_registry()
    ref = bind_for(graph, unit, registry)
    rewritten, report = apply_rewriter(ref, unit, registry)
    assert pretty_print(rewritten) == pretty_print(unit)
    assert report.chain == []
    assert report.templates_touched == 0
    assert report.nodes_replaced == 0


# Composition laws ----------------------------------------------------------------


def test_identity_laws_on_generated_units():
    rng = random.Random(17)
    registry = builtin_registry()
    upper = ("demo.upper.rewriter",)
    for _ in range(40):
        unit = random_unit_defs_only(rng)
        left, _ = apply_rewriter(upper + (), unit, registry)
        right, _ = apply_rewriter(() + upper, unit, registry)
        plain, _ = apply_rewriter(upper, unit, registry)
        assert left == plain
        assert right == plain
        same, _ = apply_rewriter(() + (), unit, registry)
        assert same == unit


def test_composition_is_associative_on_generated_units():
    rng = random.Random(23)
    registry = builtin_registry()
    upper = ("demo.upper.rewriter",)
    defer = ("go.defer.rewriter",)
    for _ in range(40):
        unit = random_unit_defs_only(rng)
        left, _ = apply_rewriter((upper + defer) + upper, unit, registry)
        right, _ = apply_rewriter(upper + (defer + upper), unit, registry)
        assert left == right


def test_uppercase_rewriter_renames_defs_only():
    unit = parse_source(
        "object A {\n  val keep = 1\n  def f() = {\n    def g() = {\n      1\n    }\n    g()\n  }\n}"
    )
    registry = builtin_registry()
    rewritten, report = apply_rewriter(("demo.upper.rewriter",), unit, registry)
    (template,) = list(rewritten.templates())
    names = [s.name for s in template.stats if isinstance(s, ast.DefDecl)]
    assert names == ["keep", "F"]
    inner = template.stats[1].body.stats[0]
    assert inner.name == "G"
    assert report.nodes_replaced >= 2
