import random

import pytest

from ml1 import ast
from ml1.diagnostics import (
    E_AMBIGUOUS,
    E_DUPLICATE_SYMBOL,
    E_FORWARD_REFERENCE,
    E_UNRESOLVED,
    E_UNRESOLVED_IMPORT_PATH,
)
from ml1.resolve import (
    check_context_consistency,
    erase_import_annotations,
    implicit_candidates,
    resolve_units,
)
from ml1.rewrite import DEFER_REWRITER, bind_rewriter
from ml1.scopes import (
    BUILTIN,
    BUILTIN_NAMES,
    BUILTINS,
    REWRITER_MARKER,
    ImportPosition,
    build_scope_graph,
    export_closure,
    import_positions,
    lookup_qualified,
)

from conftest import FIXTURE_GROUPS, PARENTS, build_project, parse_fixture, parse_source
from gen import (
    IMPLICIT_MARKERS,
    NAME_POOL,
    RENAME_POOL,
    EdgeSpec,
    _edge_filter,
    _selector_text,
    implicit_project_sources,
    implicit_scan_oracle,
    two_clause_hub_sources,
)


def ref_symbols(resolution, name):
    return [
        (rec.unit, rec.symbol.fqn if rec.symbol else None)
        for rec in resolution.records
        if rec.name == name
    ]


def implicit_fqns(graph, unit, marker=REWRITER_MARKER):
    return tuple(sym.fqn for sym in implicit_candidates(graph, unit, marker))


def resolve_project(*units):
    graph = build_project(*units)
    resolution = resolve_units(graph, list(units))
    return graph, resolution


def test_local_binding_wins_over_members_and_imports():
    lib = parse_source("object Lib {\n  val x = 1\n}", "lib.ml1")
    unit = parse_source(
        "import Lib._\n\nobject A {\n  val x = 2\n  def f() = {\n    val x = 3\n    x\n  }\n}",
        "a.ml1",
    )
    graph, resolution = resolve_project(lib, unit)
    assert not resolution.diagnostics
    assert ("a.ml1", "A.f.x") in ref_symbols(resolution, "x")


def test_member_wins_over_wildcard_import():
    lib = parse_source("object Lib {\n  val x = 1\n}", "lib.ml1")
    unit = parse_source(
        "import Lib._\n\nobject A {\n  val x = 2\n  def f() = {\n    x\n  }\n}",
        "a.ml1",
    )
    _, resolution = resolve_project(lib, unit)
    assert ref_symbols(resolution, "x") == [("a.ml1", "A.x")]


def test_an_import_path_finds_members_only_where_a_reference_finds_re_exports():
    # The root package `p` re-exports `q.X` through its package object.
    q = parse_source("package q\n\nobject X {\n  def f() = {\n    1\n  }\n}", "q.ml1")
    p = parse_source("package object p {\n  @exported import q.X\n}", "p.ml1")
    by_reference = parse_source("object A {\n  def g() = {\n    p.X.f()\n  }\n}", "a.ml1")
    _, resolution = resolve_project(q, p, by_reference)
    assert ref_symbols(resolution, "p.X.f") == [("a.ml1", "q.X.f")]
    by_import = parse_source("import p.X._\n\nobject B {\n}", "b.ml1")
    graph = build_scope_graph([q, p, by_import])
    assert [(d.code, d.unit) for d in graph.diagnostics] == [(E_UNRESOLVED_IMPORT_PATH, "b.ml1")]


def test_inherited_member_resolves_at_member_tier():
    base = parse_source("trait Base {\n  def shared() = {\n    1\n  }\n}", "base.ml1")
    unit = parse_source(
        "object A extends Base {\n  def f() = {\n    shared()\n  }\n}", "a.ml1"
    )
    _, resolution = resolve_project(base, unit)
    assert ref_symbols(resolution, "shared") == [("a.ml1", "Base.shared")]


def test_named_import_beats_wildcard_import():
    one = parse_source("object One {\n  val t = 1\n}", "one.ml1")
    two = parse_source("object Two {\n  val t = 2\n}", "two.ml1")
    unit = parse_source(
        "import Two._\nimport One.{t => t}\n\nobject A {\n  def f() = {\n    t\n  }\n}",
        "a.ml1",
    )
    _, resolution = resolve_project(one, two, unit)
    assert ref_symbols(resolution, "t") == [("a.ml1", "One.t")]


def test_later_import_shadows_earlier():
    one = parse_source("object One {\n  val t = 1\n}", "one.ml1")
    two = parse_source("object Two {\n  val t = 2\n}", "two.ml1")
    unit = parse_source(
        "import One._\nimport Two._\n\nobject A {\n  def f() = {\n    t\n  }\n}",
        "a.ml1",
    )
    _, resolution = resolve_project(one, two, unit)
    assert ref_symbols(resolution, "t") == [("a.ml1", "Two.t")]


def test_direct_member_beats_reexported_name_within_one_import():
    deep = parse_source("object Deep {\n  val v = 1\n}", "deep.ml1")
    shallow = parse_source(
        "object Shallow {\n  @exported import Deep._\n  val v = 2\n}", "shallow.ml1"
    )
    unit = parse_source(
        "import Shallow._\n\nobject A {\n  def f() = {\n    v\n  }\n}", "a.ml1"
    )
    _, resolution = resolve_project(deep, shallow, unit)
    assert not resolution.diagnostics
    assert ref_symbols(resolution, "v") == [("a.ml1", "Shallow.v")]


def test_two_export_paths_to_distinct_symbols_are_ambiguous():
    units = [
        parse_fixture("ambiguous", "providers.ml1"),
        parse_fixture("ambiguous", "client.ml1"),
    ]
    graph, resolution = resolve_project(*units)
    (diag,) = resolution.diagnostics
    assert diag.code == E_AMBIGUOUS
    assert diag.candidates == ("P1.ctx", "P2.ctx")


def test_named_selector_with_ambiguous_closure_sources_is_ambiguous():
    units = [
        parse_fixture("ambiguous", "providers.ml1"),
        parse_source(
            "import Both.ctx\n\nobject Use {\n  def f() = {\n    ctx\n  }\n}", "use.ml1"
        ),
    ]
    graph, resolution = resolve_project(*units)
    (diag,) = resolution.diagnostics
    assert diag.code == E_AMBIGUOUS
    assert diag.candidates == ("P1.ctx", "P2.ctx")


def test_named_selector_without_a_source_contributes_nothing():
    lib = parse_source("object Lib {\n  val real = 1\n}", "lib.ml1")
    unit = parse_source(
        "import Lib.ghost\n\nobject A {\n  def f() = {\n    ghost\n  }\n}", "a.ml1"
    )
    _, resolution = resolve_project(lib, unit)
    assert [d.code for d in resolution.diagnostics] == [E_UNRESOLVED]


def test_navigation_through_a_local_value_is_unresolved():
    unit = parse_source(
        "object A {\n  def f() = {\n    val v = 1\n    v.member\n  }\n}", "a.ml1"
    )
    _, resolution = resolve_project(unit)
    assert [d.code for d in resolution.diagnostics] == [E_UNRESOLVED]
    assert ref_symbols(resolution, "v.member") == [("a.ml1", None)]


def test_clause_level_hide_suppresses_a_direct_member():
    lib = parse_source("object Lib {\n  val t = 1\n}", "lib.ml1")
    unit = parse_source(
        "import Lib.{t => _, _}\n\nobject A {\n  def f() = {\n    t\n  }\n}", "a.ml1"
    )
    _, resolution = resolve_project(lib, unit)
    assert [d.code for d in resolution.diagnostics] == [E_UNRESOLVED]


def test_first_selector_of_a_name_decides():
    lib = parse_source("package p\n\nobject L {\n  def x() = {\n    1\n  }\n}", "l.ml1")
    unit = parse_source(
        "import p.L.{x => _, x}\n\nobject A {\n  def f() = {\n    x()\n  }\n}", "a.ml1"
    )
    _, resolution = resolve_project(lib, unit)
    assert [d.code for d in resolution.diagnostics] == [E_UNRESOLVED]
    assert ref_symbols(resolution, "x") == [("a.ml1", None)]


@pytest.mark.parametrize(
    "selectors", ["{x => _, x}", "{x, x => _}", "{x => y, x}", "{x, x => y}", "{x => _, x, _}"]
)
def test_plain_and_exported_imports_agree_on_repeated_selectors(selectors):
    """A clause naming one source twice shows the same names whether it is
    imported directly or re-exported through a hub."""
    lib = parse_source("package p\n\nobject L {\n  val x = 1\n  val y = 2\n}", "l.ml1")
    body = "object A {\n  def f() = {\n    x\n    y\n  }\n}"
    plain = parse_source(f"import p.L.{selectors}\n\n{body}", "plain.ml1")
    hub = parse_source(f"object Hub {{\n  @exported import p.L.{selectors}\n}}", "hub.ml1")
    via_hub = parse_source(f"import Hub._\n\n{body}", "via_hub.ml1")
    _, direct = resolve_project(lib, plain)
    _, exported = resolve_project(lib, hub, via_hub)
    seen = [(rec.name, rec.symbol) for rec in direct.records]
    assert seen == [(rec.name, rec.symbol) for rec in exported.records]


def test_a_rename_onto_a_name_shadows_the_wildcard_through_a_hub_too():
    lib = parse_source(
        "package p\n\nobject L {\n  def a() = {\n    \"a\"\n  }\n"
        "  def b() = {\n    \"b\"\n  }\n}",
        "l.ml1",
    )
    hub = parse_source("package q\n\nobject Hub {\n  @exported import p.L.{a => b, _}\n}", "hub.ml1")
    body = "object {} {{\n  def f() = {{\n    b()\n  }}\n}}"
    via_hub = parse_source("import q.Hub._\n\n" + body.format("C"), "via_hub.ml1")
    inline = parse_source("import p.L.{a => b, _}\n\n" + body.format("D"), "inline.ml1")
    graph, resolution = resolve_project(lib, hub, via_hub, inline)
    assert not resolution.diagnostics
    assert ref_symbols(resolution, "b") == [("via_hub.ml1", "p.L.a"), ("inline.ml1", "p.L.a")]
    assert export_closure(graph, "q.Hub").lookup("b") == (graph.symbols["p.L.a"],)


def random_clauses(count=300):
    """`count` seeded draws of a provider's members and the selectors of one
    clause over it: distinct sources, each kept, hidden or renamed (mostly
    onto another member), with or without a trailing wildcard; the targets
    stay distinct."""
    rng = random.Random(20261019)
    for _ in range(count):
        members = sorted(rng.sample(NAME_POOL, rng.randint(1, len(NAME_POOL))))
        named, taken = [], set()
        for source in rng.sample(NAME_POOL, rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.3:
                target = source
            elif roll < 0.5:
                target = None
            else:
                onto = [name for name in members if name != source]
                target = rng.choice(onto if onto and rng.random() < 0.75 else RENAME_POOL)
            if target in taken:
                target = None
            taken.add(target)
            named.append((source, target))
        yield members, EdgeSpec(0, 0, not named or rng.random() < 0.5, named)


def test_a_hub_of_one_clause_binds_every_name_as_the_inlined_clause():
    """The paper's law for one `@exported` clause: `import H._` binds each
    name to the symbol, or gives the diagnostic, that the clause inlined does."""
    names = NAME_POOL + RENAME_POOL
    reads = "".join(f"    {name}\n" for name in names)
    for members, edge in random_clauses():
        selectors = _selector_text(edge)
        vals = "".join(f"  val {name} = {i}\n" for i, name in enumerate(members))
        units = [
            parse_source(f"package p\n\nobject L {{\n{vals}}}\n", "l.ml1"),
            parse_source(f"package q\n\nobject H {{\n  @exported import p.L.{selectors}\n}}\n", "h.ml1"),
            *(
                parse_source(f"import {path}\n\nobject {name} {{\n  def probe() = {{\n{reads}  }}\n}}\n", unit)
                for name, path, unit in [("C", "q.H._", "via_hub.ml1"), ("D", f"p.L.{selectors}", "inline.ml1")]
            ),
        ]
        _, resolution = resolve_project(*units)
        codes = {(d.unit, d.span): d.code for d in resolution.diagnostics}
        outcomes = [rec.symbol.fqn if rec.symbol else codes[(rec.unit, rec.span)] for rec in resolution.records]
        assert outcomes[: len(names)] == outcomes[len(names) :], selectors


def test_a_hub_of_two_clauses_binds_as_inline_or_ambiguously_among_its_candidates():
    """The weak hub law on every project of `two_clause_hub_sources`: for
    each read, the hub client binds what the inline client binds (a symbol,
    or the same diagnostic), or it gives E_AMBIGUOUS with the inline
    client's symbol among the candidates. A split is a read where the two
    differ. The law with equality, which the paper states, is open."""
    projects = splits = 0
    violations = []
    for sources in two_clause_hub_sources():
        _, resolution = resolve_project(*(parse_source(text, name) for name, text in sources))
        found = {(d.unit, d.span): (d.code, d.candidates) for d in resolution.diagnostics}
        outcomes = [rec.symbol.fqn if rec.symbol else found[(rec.unit, rec.span)] for rec in resolution.records]
        projects += 1
        assert len(outcomes) == 4, sources
        for hub, inline in zip(outcomes[:2], outcomes[2:]):
            if hub == inline:
                continue
            splits += 1
            if not (isinstance(hub, tuple) and hub[0] == E_AMBIGUOUS and inline in hub[1]):
                violations.append((sources, hub, inline))
    assert violations == []
    assert (projects, splits) == (3528, 736)


def test_import_selectors_apply_the_oracle_selector_rule():
    names = NAME_POOL + RENAME_POOL
    for _, edge in random_clauses():
        (clause,) = parse_source(f"import p.L.{_selector_text(edge)}").top_imports()
        selectors = clause.selectors
        visible = [selectors.table.get(name, name if selectors.wildcard else None) for name in names]
        assert visible == [_edge_filter(edge, name) for name in names]


def test_a_duplicate_template_sees_no_members_of_the_first_one():
    first = parse_source("package p\n\nobject A {\n  def a() = {\n    1\n  }\n}", "d1.ml1")
    second = parse_source("package p\n\nobject A {\n  def b() = {\n    a()\n  }\n}", "d2.ml1")
    graph = build_scope_graph([first, second])
    resolution = resolve_units(graph, [first, second])
    assert [d.code for d in graph.diagnostics] == [E_DUPLICATE_SYMBOL]
    assert [(d.code, d.unit) for d in resolution.diagnostics] == [(E_UNRESOLVED, "d2.ml1")]
    assert ref_symbols(resolution, "a") == [("d2.ml1", None)]


@pytest.mark.parametrize(
    "stats, crossed",
    [
        (["print(x)", 'val x = "1"'], "x"),
        (["def h() = {\n  k()\n}", "print(h())", 'def k() = {\n  "k"\n}'], None),
        (["def h() = {\n  y\n}", 'val y = "1"', "print(h())"], "y"),
        (['val y = "1"', "def h() = {\n  y\n}", "print(h())"], None),
        (["print(k())", "val z = 1", 'def k() = {\n  "k"\n}'], "z"),
        (["val x = {\n  x\n}"], "x"),
        (["{\n  print(w)\n}", "val w = 1"], "w"),
    ],
)
def test_a_forward_reference_may_not_extend_over_a_val(stats, crossed):
    body = "\n".join("    " + line for stat in stats for line in stat.split("\n"))
    unit = parse_source(f"object A {{\n  def f() = {{\n{body}\n  }}\n}}", "a.ml1")
    _, resolution = resolve_project(unit)
    if crossed is None:
        assert not resolution.diagnostics
    else:
        [diag] = resolution.diagnostics
        assert diag.code == E_FORWARD_REFERENCE
        assert diag.message.endswith(f"extends over the definition of val {crossed}")


def test_two_export_paths_to_the_same_symbol_are_fine():
    units = [
        parse_source("object Impl {\n  val ctx = 1\n}", "impl.ml1"),
        parse_source("object Via1 {\n  @exported import Impl._\n}", "v1.ml1"),
        parse_source("object Via2 {\n  @exported import Impl._\n}", "v2.ml1"),
        parse_source(
            "object Hub {\n  @exported import Via1._\n  @exported import Via2._\n}",
            "hub.ml1",
        ),
        parse_source(
            "import Hub._\n\nobject A {\n  def f() = {\n    ctx\n  }\n}", "a.ml1"
        ),
    ]
    _, resolution = resolve_project(*units)
    assert not resolution.diagnostics
    assert ref_symbols(resolution, "ctx") == [("a.ml1", "Impl.ctx")]


def test_package_members_resolve_outward_and_builtins_last():
    unit = parse_source(
        "package deep.nest\n\nobject A {\n  def f() = {\n    print(1)\n  }\n}",
        "a.ml1",
    )
    _, resolution = resolve_project(unit)
    assert ref_symbols(resolution, "print") == [("a.ml1", "<builtin>.print")]


def test_user_definition_shadows_builtin():
    unit = parse_source(
        "object A {\n  def print(v) = {\n    v\n  }\n  def f() = {\n    print(1)\n  }\n}",
        "a.ml1",
    )
    _, resolution = resolve_project(unit)
    assert ref_symbols(resolution, "print") == [("a.ml1", "A.print")]


def test_qualified_reference_navigates_through_closures():
    units = [
        parse_source("object Impl {\n  val deep = 7\n}", "impl.ml1"),
        parse_source("object Hub {\n  @exported import Impl._\n}", "hub.ml1"),
        parse_source("object A {\n  def f() = {\n    Hub.deep\n  }\n}", "a.ml1"),
    ]
    _, resolution = resolve_project(*units)
    assert ref_symbols(resolution, "Hub.deep") == [("a.ml1", "Impl.deep")]


def test_unresolved_reference_gets_exactly_one_diagnostic():
    unit = parse_source("object A {\n  def f() = {\n    missing\n  }\n}", "a.ml1")
    _, resolution = resolve_project(unit)
    assert [d.code for d in resolution.diagnostics] == [E_UNRESOLVED]
    assert ref_symbols(resolution, "missing") == [("a.ml1", None)]


def test_a_qualified_name_through_a_local_or_a_builtin_is_unresolved():
    unit = parse_source(
        "object A {\n  def f(x) = {\n    x.y\n  }\n  def g() = {\n    val v = 1\n    v.w.z\n    print.x\n  }\n}",
        "a.ml1",
    )
    _, resolution = resolve_project(unit)
    assert [d.message for d in resolution.diagnostics] == [
        "x.y is not in scope",
        "v.w.z is not in scope",
        "print.x is not in scope",
    ]
    assert resolution.addresses == {}


def test_resolve_name_is_deterministic():
    lib = parse_source("object Lib {\n  val x = 1\n}", "lib.ml1")
    unit = parse_source("import Lib._\n\nobject A {\n}", "a.ml1")
    graph = build_project(lib, unit)
    positions = import_positions(graph, unit, "A")
    first = lookup_qualified(graph, positions, ("x",))
    second = lookup_qualified(graph, positions, ("x",))
    assert first == second
    assert [sym.fqn for sym in first[0]] == ["Lib.x"]


def test_each_name_is_looked_up_once_per_template(monkeypatch):
    """Each reference keeps its own record and its own diagnostic, but a
    template looks each name up once; another template looks it up again."""
    import ml1.resolve

    looked_up = []

    def spy(graph, positions, parts):
        looked_up.append(parts)
        return lookup_qualified(graph, positions, parts)

    monkeypatch.setattr(ml1.resolve, "lookup_qualified", spy)
    source = (
        "object A {\n  def f() = {\n    print(nope)\n    print(nope)\n  }\n}\n"
        "object B {\n  def g() = { print(1) }\n}"
    )
    unit = parse_source(source, "a.ml1")
    _, resolution = resolve_project(unit)
    assert looked_up == [("print",), ("nope",), ("print",)]
    assert [(rec.name, rec.symbol and rec.symbol.fqn) for rec in resolution.records] == [
        ("print", "<builtin>.print"), ("nope", None), ("print", "<builtin>.print"), ("nope", None),
        ("print", "<builtin>.print"),
    ]  # fmt: skip
    assert [d.render() for d in resolution.diagnostics] == [
        "a.ml1:35-39: E_UNRESOLVED: nope is not in scope",
        "a.ml1:51-55: E_UNRESOLVED: nope is not in scope",
    ]
    assert [source[d.span.start : d.span.end] for d in resolution.diagnostics] == ["nope", "nope"]


def test_a_template_site_has_one_precedence_list():
    lib = parse_source("package p\n\nobject Lib {\n  val x = 1\n}", "lib.ml1")
    unit = parse_source(
        "package q.r\n\nimport p.Lib.{x => y, _}\n\nobject A {\n  import p.Lib._\n}", "a.ml1"
    )
    graph = build_project(lib, unit)
    positions = import_positions(graph, unit, "q.r.A")
    assert [(p.tier, p.index, p.scope) for p in positions] == [
        ("member", 0, "q.r.A"),
        ("import-named", 0, "p.Lib"),
        ("import-wildcard", 1, "p.Lib"),
        ("import-wildcard", 0, "p.Lib"),
        ("package", 0, "q.r"),
        ("package", 1, "q"),
        ("package", 2, ""),
        ("builtin", 0, ""),
    ]
    # The first segment that names no single symbol, with its index.
    assert lookup_qualified(graph, positions, ("y", "z")) == ((), 1)
    assert lookup_qualified(graph, positions, ("nothing", "z")) == ((), 0)
    assert lookup_qualified(graph, positions, ("print",)) == ((BUILTINS["print"],), 0)
    builtins = positions[-1]
    assert [builtins.lookup(graph, name) for name in BUILTIN_NAMES] == [(BUILTINS[name],) for name in BUILTIN_NAMES]


def test_the_member_tier_offers_members_then_inherited_re_exports():
    lib = parse_source("package p\n\nobject Lib {\n  val x = 1\n}", "lib.ml1")
    base = parse_source("package p\n\ntrait T {\n  @exported import p.Lib._\n  def t() = {\n  }\n}", "t.ml1")
    unit = parse_source("package p\n\nobject A extends T {\n  val a = 2\n}", "a.ml1")
    graph = build_project(lib, base, unit)
    member_tier = import_positions(graph, unit, "p.A")[0]
    assert member_tier.tier == "member"
    assert [sym.fqn for sym in member_tier.lookup(graph, "a")] == ["p.A.a"]
    assert [sym.fqn for sym in member_tier.lookup(graph, "x")] == ["p.Lib.x"]
    assert [sym.fqn for sym in member_tier.lookup(graph, "t")] == ["p.T.t"]


def test_self_visibility_of_exported_imports():
    units = [
        parse_source("object Impl {\n  val tool = 3\n}", "impl.ml1"),
        parse_source(
            "object Hub {\n  @exported import Impl._\n  def f() = {\n    tool\n  }\n}",
            "hub.ml1",
        ),
    ]
    _, resolution = resolve_project(*units)
    assert ref_symbols(resolution, "tool") == [("hub.ml1", "Impl.tool")]


def test_named_selector_consults_the_closure():
    units = [
        parse_source("object Impl {\n  val tool = 3\n}", "impl.ml1"),
        parse_source("object Hub {\n  @exported import Impl._\n}", "hub.ml1"),
        parse_source(
            "import Hub.tool\n\nobject A {\n  def f() = {\n    tool\n  }\n}", "a.ml1"
        ),
    ]
    _, resolution = resolve_project(*units)
    assert not resolution.diagnostics
    assert ref_symbols(resolution, "tool") == [("a.ml1", "Impl.tool")]


# Inheritance ------------------------------------------------------------------


def parents_project(name, order=None):
    files = PARENTS[name]
    return [parse_fixture(files[i]) for i in (order or range(len(files)))]


def test_inherited_members_are_members_from_outside_too():
    _, resolution = resolve_project(*parents_project("members"))
    assert ref_symbols(resolution, "x") == [("t.ml1", "p.T.x")]
    assert ref_symbols(resolution, "p.A.x") == [("client.ml1", "p.T.x")]


def test_parents_reexports_are_one_union_inside_and_outside():
    units = parents_project("union")
    graph = build_project(*units)
    resolution = resolve_units(graph, units)
    # `x` inside D, `x` after `import p.D._`, and `p.D.x`.
    seen = sorted((d.code, d.unit, d.candidates) for d in resolution.diagnostics)
    assert seen == [(E_AMBIGUOUS, unit, ("p.X.x", "p.Y.x")) for unit in ("client.ml1", "client.ml1", "d.ml1")]


def test_inherited_reexports_are_visible_from_another_unit(inherit_units):
    client = parse_source("object Client {\n  def g() = {\n    MyController.render(\"x\")\n  }\n}", "c.ml1")
    _, resolution = resolve_project(*inherit_units, client)
    assert ref_symbols(resolution, "MyController.render") == [("c.ml1", "play.api.render")]


@pytest.mark.parametrize(
    "clauses, expected",
    [
        ("@exported import p.X._\n  @exported import p.Y._", "p.Y.foo"),
        ("import p.Z.foo\n  @exported import p.X._", "p.Z.foo"),
    ],
)
def test_own_exported_clauses_keep_their_import_precedence(clauses, expected):
    lib = parse_source(
        "package p\n\n"
        + "".join(f"object {t} {{\n  def foo() = {{\n    1\n  }}\n}}\n" for t in "XYZ"),
        "lib.ml1",
    )
    hub = parse_source(f"object Hub {{\n  {clauses}\n  def f() = {{\n    foo()\n  }}\n}}", "hub.ml1")
    _, resolution = resolve_project(lib, hub)
    assert ref_symbols(resolution, "foo") == [("hub.ml1", expected)]


def test_a_clause_may_reexport_from_the_templates_own_parent():
    # An heir's clause re-exports its parent; from outside, and in a further
    # heir's body, the re-export binds as it does in the clause's own body.
    base = parse_source(
        "object U {\n  def a() = {\n    1\n  }\n}\n"
        "object T extends U {\n  @exported import U.{a => b}\n}\n"
        "object S extends T {\n  @exported import T.{a => c}\n  def f() = {\n    c()\n  }\n}\n"
        "object R extends T {\n  def g() = {\n    b()\n  }\n}",
        "base.ml1",
    )
    client = parse_source("object Client {\n  def h() = {\n    S.c()\n    S.b()\n  }\n}", "client.ml1")
    _, resolution = resolve_project(base, client)
    assert not resolution.diagnostics
    assert ref_symbols(resolution, "c") == [("base.ml1", "U.a")]
    assert ref_symbols(resolution, "S.c") == [("client.ml1", "U.a")]
    assert ref_symbols(resolution, "b") == [("base.ml1", "U.a")]
    assert ref_symbols(resolution, "S.b") == [("client.ml1", "U.a")]


def test_a_template_that_collides_with_a_package_holds_none_of_its_templates():
    units = [
        parse_source("package p\n\nobject A {\n  def f() = {\n    1\n  }\n}", "a.ml1"),
        parse_source("package p.A\n\nobject B {\n  def g() = {\n    f()\n  }\n}", "b.ml1"),
        parse_source("object Client {\n  def h() = {\n    p.A.B\n  }\n}", "client.ml1"),
    ]
    graph = build_scope_graph(units)
    assert [d.code for d in graph.diagnostics] == [E_DUPLICATE_SYMBOL]
    resolution = resolve_units(graph, units)
    assert sorted((d.code, d.unit) for d in resolution.diagnostics) == [
        (E_UNRESOLVED, "b.ml1"),
        (E_UNRESOLVED, "client.ml1"),
    ]


@pytest.mark.parametrize("order", [None, (3, 2, 1, 0), (2, 3, 0, 1)])
def test_parent_names_see_no_inherited_names_in_any_file_order(order):
    _, resolution = resolve_project(*parents_project("package_object", order))
    assert ref_symbols(resolution, "p.y") == [("c.ml1", "t.T.y")]


def test_an_inherited_rewriter_clause_activates_the_rewriter():
    *_, app = units = parents_project("rewriter")
    graph = build_project(*units)
    assert implicit_fqns(graph, app) == ("go.defer.rewriter",)


# Erasure ----------------------------------------------------------------------


def test_erasure_strips_annotations_and_is_idempotent(salat_after_units):
    graph = build_project(*salat_after_units)
    resolution = resolve_units(graph, salat_after_units)
    erased = erase_import_annotations(salat_after_units)
    for unit in erased:
        for node in _all_imports(unit):
            assert node.annotations == ()
    assert erase_import_annotations(erased) == erased
    assert len(resolution.erased_imports) == 4  # hub's three plus one re-export home


def _all_imports(unit):
    yield from unit.top_imports()
    for tpl in unit.templates():
        for stat in tpl.stats:
            if isinstance(stat, ast.ImportClause):
                yield stat


def test_erasure_changes_no_resolution_output(salat_after_units):
    graph = build_project(*salat_after_units)
    before = resolve_units(graph, salat_after_units)
    erased = erase_import_annotations(salat_after_units)
    after = resolve_units(graph, erased)
    assert before.records == after.records
    assert [d.render() for d in before.diagnostics] == [
        d.render() for d in after.diagnostics
    ]


def test_unit_without_annotations_is_returned_unchanged():
    unit = parse_source("import a.b._\n\nobject A {\n}", "a.ml1")
    [stripped] = erase_import_annotations([unit])
    assert stripped is unit


def test_erasure_preserves_self_visible_resolution():
    # The stripped clause is a fresh object; lookups must still find its
    # target so the hub's own body resolves identically after erasure.
    units = [
        parse_source("object Impl {\n  val tool = 3\n}", "impl.ml1"),
        parse_source(
            "object Hub {\n  @exported import Impl._\n  def f() = {\n    tool\n  }\n}",
            "hub.ml1",
        ),
    ]
    graph = build_project(*units)
    before = resolve_units(graph, units)
    assert not before.diagnostics
    erased = erase_import_annotations(units)
    after = resolve_units(graph, erased)
    assert after.records == before.records
    assert not after.diagnostics


# Implicit candidates ----------------------------------------------------------


def test_wildcard_import_of_rewriter_package_yields_one_candidate():
    lib = parse_fixture("lib", "go_defer.ml1")
    unit = parse_source("import go.defer._\n\nobject Main {\n}", "main.ml1")
    graph = build_project(lib, unit)
    assert implicit_fqns(graph, unit) == ("go.defer.rewriter",)


def test_unit_without_imports_has_no_candidates():
    unit = parse_source("object Main {\n}", "main.ml1")
    graph = build_project(unit)
    assert implicit_candidates(graph, unit, REWRITER_MARKER) == ()


def test_hide_selectors_suppress_inner_rewriters(compose_units):
    graph = build_project(*compose_units)
    client = compose_units[-1]
    assert implicit_fqns(graph, client) == ("com.ext.AwithB.rewriter",)


def test_last_import_wins_among_rewriters():
    lib_a = parse_fixture("lib", "go_defer.ml1")
    lib_b = parse_fixture("lib", "demo_upper.ml1")
    unit = parse_source(
        "import go.defer._\nimport demo.upper._\n\nobject Main {\n}", "main.ml1"
    )
    graph = build_project(lib_a, lib_b, unit)
    assert implicit_fqns(graph, unit) == ("demo.upper.rewriter",)


def test_candidates_come_in_precedence_order():
    units = [
        parse_fixture("lib", "go_defer.ml1"),
        parse_fixture("lib", "demo_upper.ml1"),
        parse_source(
            "package demo\n\nimplicit object near extends DefaultRewriter {\n}", "near.ml1"
        ),
        parse_source(
            "package demo.app\n\nimport go.defer._\nimport demo.upper.rewriter\n"
            "import demo.upper._\n\nobject Main {\n}",
            "main.ml1",
        ),
        parse_source("package demo.app\n\nobject Other {\n}", "other.ml1"),
    ]
    graph = build_project(*units)
    # The named import at index 1 comes first in the precedence list
    # (`test_a_template_site_has_one_precedence_list`); the scan stops there.
    assert implicit_fqns(graph, units[-2]) == ("demo.upper.rewriter",)
    # With no import, the enclosing package `demo` provides the winner.
    assert implicit_fqns(graph, units[-1]) == ("demo.near",)


def test_implicit_scan_uses_the_first_selector_of_a_name():
    lib = parse_fixture("lib", "go_defer.ml1")
    unit = parse_source(
        "import go.defer.{rewriter => _, rewriter}\n\nobject Main {\n}", "main.ml1"
    )
    graph = build_project(lib, unit)
    assert implicit_candidates(graph, unit, REWRITER_MARKER) == ()


def test_two_rewriters_at_one_position_tie():
    impl = parse_source(
        "package duo\n\nimplicit object first extends DefaultRewriter {\n}\n"
        "implicit object second extends DefaultRewriter {\n}",
        "duo.ml1",
    )
    unit = parse_source("import duo._\n\nobject Main {\n}", "main.ml1")
    graph = build_project(impl, unit)
    assert implicit_fqns(graph, unit) == ("duo.first", "duo.second")


def test_marker_match_is_transitive():
    units = [
        parse_source("trait Marker {\n}", "marker.ml1"),
        parse_source("trait Sub extends Marker {\n}", "sub.ml1"),
        parse_source("package impls\n\nimplicit object deep extends Sub {\n}", "impls.ml1"),
        parse_source("import impls._\n\nobject Main {\n}", "main.ml1"),
    ]
    graph = build_project(*units)
    assert implicit_fqns(graph, units[-1], "Marker") == ("impls.deep",)


def first_position(found):
    """The symbols at the first position of an `implicit_scan_oracle` result."""
    return tuple(sym for sym, tier, index in found if (tier, index) == found[0][1:])


def test_the_implicit_scan_equals_the_scan_by_names_on_implicit_heavy_projects():
    # The scan looks up only the names an implicit object can be visible
    # under; the oracle looks up every name each position provides.
    rng = random.Random(2101)
    scans = found = 0
    for _ in range(400):
        units = [parse_source(src, name) for name, src in implicit_project_sources(rng)]
        graph = build_project(*units)
        for unit in units:
            for marker in IMPLICIT_MARKERS:
                expected = implicit_scan_oracle(graph, unit, marker)
                where = ([u.source_name for u in units], unit.source_name)
                assert implicit_candidates(graph, unit, marker) == first_position(expected), where
                scans += 1
                found += bool(expected)
    assert (scans, found) == (10326, 2320)


def test_the_implicit_scan_equals_the_scan_by_names_on_the_fixtures():
    # Every template of each fixture project serves as the marker.
    scans = found = 0
    for files in FIXTURE_GROUPS.values():
        units = [parse_fixture(path) for path in files]
        graph = build_scope_graph(units)
        for marker in graph.members:
            for unit in units:
                expected = implicit_scan_oracle(graph, unit, marker)
                where = (files, marker, unit.source_name)
                assert implicit_candidates(graph, unit, marker) == first_position(expected), where
                scans += 1
                found += bool(expected)
    assert (scans, found) == (296, 15)


def wide_hub_units(defs, clients=20):
    """`lib.Big` holds `defs` members; `h.Hub` re-exports it and the
    implicit `k.c1`; each client imports the hub and `go.defer`."""
    big = "".join(f"  val d{i} = {i}\n" for i in range(defs))
    sources = [
        ("big.ml1", f"package lib\n\nobject Big {{\n{big}}}\n"),
        ("k.ml1", "package k\n\ntrait Context {\n}\n\nimplicit object c1 extends Context {\n}\n"),
        ("hub.ml1", "package h\n\nobject Hub {\n  @exported import lib.Big._\n  @exported import k.c1\n}\n"),
    ]
    client = "package c{}\n\nimport h.Hub._\nimport go.defer._\n\nobject Main {{\n}}\n"
    sources += [(f"c{i}.ml1", client.format(i)) for i in range(clients)]
    return [parse_fixture("lib", "go_defer.ml1"), *(parse_source(src, name) for name, src in sources)]


def test_the_implicit_scan_costs_the_same_on_a_wider_hub(monkeypatch):
    # Lookups per client stay fixed however many names the hub re-exports.
    lookup = ImportPosition.lookup
    calls = []

    def counting(position, graph, name):
        calls.append(name)
        return lookup(position, graph, name)

    monkeypatch.setattr(ImportPosition, "lookup", counting)
    counts = []
    for defs in (400, 800):
        units = wide_hub_units(defs)
        graph = build_project(*units)
        calls.clear()
        for unit in units[4:]:
            assert implicit_fqns(graph, unit) == ("go.defer.rewriter",)
            assert implicit_fqns(graph, unit, "k.Context") == ("k.c1",)
        counts.append(len(calls))
    # Each scan stops at its first providing position: the rewriter scan asks
    # `go.defer._` for `rewriter` alone, the only name an object extending
    # the marker is known as, and the Context scan asks it and `h.Hub._` for
    # `c1`, so 3 lookups per client.
    assert counts == [60, 60]


class CountingBuilds(dict):
    """A memo under a spy: counts each key's stores, one per build."""

    def __init__(self):
        super().__init__()
        self.builds = {}

    def __setitem__(self, key, value):
        self.builds[key] = self.builds.get(key, 0) + 1
        super().__setitem__(key, value)


def test_the_implicit_scan_builds_its_targets_once_per_marker():
    # The lint check of each marker and every unit's rewriter binding share
    # the marker's implicit objects and the names they can be visible under.
    units = wide_hub_units(10, clients=5)
    graph = build_project(*units)
    graph.implicit_targets = CountingBuilds()
    for marker in ("k.Context", REWRITER_MARKER, "k.Context"):
        check_context_consistency(graph, marker)
    assert [bind_rewriter(graph, unit) for unit in units[4:]] == [(DEFER_REWRITER,)] * 5
    assert graph.implicit_targets.builds == {"k.Context": 1, REWRITER_MARKER: 1}


# Divergence linting -----------------------------------------------------------


def test_divergent_contexts_are_reported_once(salat_before_units):
    graph = build_project(*salat_before_units)
    divergences = check_context_consistency(graph, "Context")
    assert [d.render() for d in divergences] == [
        "DIVERGENCE Context before_a.ml1:salatimpl.customCtx"
        " != before_b.ml1:salatimpl.globalCtx"
    ]


def test_shared_hub_restores_consistency(salat_after_units):
    graph = build_project(*salat_after_units)
    assert check_context_consistency(graph, "Context") == []


def test_single_unit_projects_are_always_consistent():
    unit = parse_source("object A {\n}", "a.ml1")
    graph = build_project(unit)
    assert check_context_consistency(graph, "Context") == []


def test_builtin_table_is_complete():
    assert set(BUILTINS) == {"print", "error", "concat", "add", "sub", "compose"}
    assert {sym.kind for sym in BUILTINS.values()} == {BUILTIN}
