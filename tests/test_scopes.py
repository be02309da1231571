import random
import sys

import pytest

from ml1.diagnostics import (
    E_DUPLICATE_SYMBOL,
    E_UNKNOWN_IMPORT_ANNOTATION,
    E_UNRESOLVED_IMPORT_PATH,
    E_UNRESOLVED_PARENT,
)
from ml1.resolve import resolve_units
from ml1.scopes import build_scope_graph, export_closure

from conftest import build_project, parse_fixture, parse_source
from gen import (
    NAME_POOL,
    RENAME_POOL,
    closure_oracle,
    closure_witness_oracle,
    dense_family_sources,
    graph_spec_sources,
    random_graph_spec,
)


def codes(graph):
    return [d.code for d in graph.diagnostics]


def test_import_hub_has_three_export_edges(salat_after_units):
    graph = build_project(*salat_after_units)
    pkgobj = graph.package_objects["com.mycompany.salat"]
    edges = graph.exports[pkgobj]
    assert [e.resolved_target for e in edges] == [
        "com.mongodb.casbah.Imports",
        "com.novus.salat",
        "com.mycompany.salat.context",
    ]


def test_single_object_graph_has_no_edges():
    unit = parse_source("object A {\n  val x = 1\n}", "a.ml1")
    graph = build_project(unit)
    assert graph.exports["A"] == []
    assert [m.fqn for m in graph.members["A"]] == ["A.x"]


def test_unknown_import_annotation_is_rejected():
    unit = parse_source("object T {\n}\nobject A {\n  @foo import T._\n}")
    graph = build_scope_graph([unit])
    assert codes(graph) == [E_UNKNOWN_IMPORT_ANNOTATION]


def test_doubled_exported_annotation_is_rejected():
    unit = parse_source("object T {\n}\nobject A {\n  @exported @exported import T._\n}")
    graph = build_scope_graph([unit])
    assert codes(graph) == [E_UNKNOWN_IMPORT_ANNOTATION]


def test_duplicate_symbols_are_reported():
    graph = build_scope_graph(
        [
            parse_source("object A {\n  val x = 1\n  val x = 2\n}", "a.ml1"),
            parse_source("object A {\n}", "b.ml1"),
        ]
    )
    assert codes(graph) == [E_DUPLICATE_SYMBOL, E_DUPLICATE_SYMBOL]


def test_unresolved_import_path_is_reported():
    unit = parse_source("object A {\n  import missing.stuff._\n}")
    graph = build_scope_graph([unit])
    assert codes(graph) == [E_UNRESOLVED_IMPORT_PATH]


def test_unresolved_parent_is_reported():
    unit = parse_source("object A extends Nowhere {\n}")
    graph = build_scope_graph([unit])
    assert codes(graph) == [E_UNRESOLVED_PARENT]


def test_a_hierarchy_deeper_than_the_recursion_limit_links_and_resolves():
    depth = sys.getrecursionlimit() + 100
    source = "object T0 {\n  val x = 1\n}\n"
    source += "".join(f"object T{i} extends T{i - 1} {{\n}}\n" for i in range(1, depth))
    source += f"object C {{\n  val y = T{depth - 1}.x\n}}\n"
    unit = parse_source(source)
    graph = build_project(unit)
    assert graph.inherits[f"T{depth - 1}"] == [f"T{depth - 2}"]
    resolution = resolve_units(graph, [unit])
    assert not resolution.diagnostics
    assert resolution.records[-1].symbol.fqn == "T0.x"


def test_two_template_cycle_terminates_and_shares_names():
    p = parse_source("object P {\n  @exported import Q._\n  val x = 1\n}", "p.ml1")
    q = parse_source("object Q {\n  @exported import P._\n  val y = 2\n}", "q.ml1")
    graph = build_project(p, q)
    # Hand-derived by breadth-first reachability with a visited set:
    # from P the only extendable edge reaches Q (members {y}); the edge
    # back to P is pruned because P is already on the path.
    assert export_closure(graph, "P").pairs() == {("y", "Q.y")}
    assert export_closure(graph, "Q").pairs() == {("x", "P.x")}


def test_closure_of_template_without_exports_is_empty():
    unit = parse_source("object A {\n  val x = 1\n}")
    graph = build_project(unit)
    assert export_closure(graph, "A").pairs() == set()


def test_closure_follows_chained_exports_with_renames():
    units = [
        parse_source("object Base {\n  val deep = 1\n  val hidden = 2\n}", "base.ml1"),
        parse_source(
            "object Mid {\n  @exported import Base.{deep => renamed, hidden => _}\n}",
            "mid.ml1",
        ),
        parse_source("object Top {\n  @exported import Mid._\n}", "top.ml1"),
    ]
    graph = build_project(*units)
    assert export_closure(graph, "Top").pairs() == {("renamed", "Base.deep")}


def test_hidden_names_never_pass_their_edge():
    units = [
        parse_source("object Base {\n  val a = 1\n  val b = 2\n}", "base.ml1"),
        parse_source("object Top {\n  @exported import Base.{a => _, _}\n}", "top.ml1"),
    ]
    graph = build_project(*units)
    closure = export_closure(graph, "Top")
    assert closure.pairs() == {("b", "Base.b")}
    for entry in closure.entries:
        for edge in entry.path:
            assert entry.visible_name != "a"


def test_random_graphs_match_the_path_enumeration_oracle():
    rng = random.Random(11)
    mismatches = 0
    for _ in range(60):
        spec = random_graph_spec(rng)
        units = [
            parse_source(source, name) for name, source in graph_spec_sources(spec)
        ]
        graph = build_project(*units)
        for index in range(len(spec.members)):
            got = export_closure(graph, spec.template_name(index)).pairs()
            expected = {
                (name, fqn) for name, fqn in closure_oracle(spec, index)
            }
            if got != expected:
                mismatches += 1
    assert mismatches == 0


def witnesses(closure):
    """(visible name, symbol FQN) -> edge labels of the entry's path; fails
    when a pair carries more than one entry."""
    table = {
        (e.visible_name, e.symbol.fqn): tuple(edge.label() for edge in e.path)
        for e in closure.entries
    }
    assert len(table) == len(closure.entries)
    return table


def test_random_graphs_match_the_witness_oracle():
    rng = random.Random(17)
    for _ in range(200):
        spec = random_graph_spec(rng)
        units = [parse_source(source, name) for name, source in graph_spec_sources(spec)]
        graph = build_project(*units)
        for index in range(len(spec.members)):
            got = witnesses(export_closure(graph, spec.template_name(index)))
            assert got == closure_witness_oracle(spec, index)


def specs_with_parents(seed, count=200):
    """`count` random graphs in which some template extends another."""
    rng = random.Random(seed)
    while count:
        spec = random_graph_spec(rng, max_parents=2)
        if any(spec.parents):
            count -= 1
            yield spec


def test_random_graphs_with_parents_match_the_oracles():
    for spec in specs_with_parents(19):
        graph = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
        for index in range(len(spec.members)):
            scope = spec.template_name(index)
            assert {name: sym.fqn for name, sym in graph.scope_members(scope).items()} == spec.scope_members(index)
            closure = export_closure(graph, scope)
            assert closure.pairs() == closure_oracle(spec, index)
            assert witnesses(closure) == closure_witness_oracle(spec, index)


def test_adding_parents_never_removes_closure_pairs():
    for spec in specs_with_parents(29, count=100):
        with_parents = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
        spec.parents = []
        without = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
        for index in range(len(spec.members)):
            scope = spec.template_name(index)
            assert export_closure(without, scope).pairs() <= export_closure(with_parents, scope).pairs()


def test_a_template_body_sees_what_its_scope_provides():
    # `object S<i> extends T<i>` reads each name inside a def and as
    # `S<i>.<name>` from a client: both give one symbol, or one diagnostic.
    names = NAME_POOL + RENAME_POOL
    reads = "".join(f"    {name}\n" for name in names)
    for spec in specs_with_parents(23):
        count = len(spec.members)
        sources = graph_spec_sources(spec) + [
            (f"s{i}.ml1", f"object S{i} extends T{i} {{\n  def probe() = {{\n{reads}  }}\n}}\n") for i in range(count)
        ]
        client = "".join(f"    S{i}.{name}\n" for i in range(count) for name in names)
        sources.append(("client.ml1", f"object Client {{\n  def probe() = {{\n{client}  }}\n}}\n"))
        units = [parse_source(src, name) for name, src in sources]
        graph = build_project(*units)
        resolution = resolve_units(graph, units)
        diagnostics = {(d.unit, d.span): (d.code, d.candidates) for d in resolution.diagnostics}
        outcomes = [
            rec.symbol.fqn if rec.symbol else diagnostics[(rec.unit, rec.span)] for rec in resolution.records
        ]
        inside = outcomes[: count * len(names)]
        assert outcomes[count * len(names) :] == inside


def test_dense_wildcard_family_has_one_direct_witness_per_pair():
    # With k=12 there are 11! simple paths out of each template; only the
    # exact pruning keeps this test to milliseconds.
    k = 12
    graph = build_project(*[parse_source(src, name) for name, src in dense_family_sources(k)])
    for i in range(k):
        closure = export_closure(graph, f"D{i}")
        expected = {
            (f"v{j}_{m}", f"D{j}.v{j}_{m}"): (f"D{i}[{j if j < i else j - 1}]=>D{j}",)
            for j in range(k)
            if j != i
            for m in range(2)
        }
        assert witnesses(closure) == expected


def test_repeated_closure_is_the_same_object(salat_after_units):
    graph = build_project(*salat_after_units)
    pkgobj = graph.package_objects["com.mycompany.salat"]
    assert export_closure(graph, pkgobj) is export_closure(graph, pkgobj)


def test_graphs_from_different_units_do_not_share_closures():
    base = parse_source("object Base {\n  val a = 1\n  val b = 2\n}", "base.ml1")
    narrow = parse_source("object Top {\n  @exported import Base.{a}\n}", "top.ml1")
    wide = parse_source("object Top {\n  @exported import Base._\n}", "top.ml1")
    first = build_project(base, narrow)
    assert export_closure(first, "Top").pairs() == {("a", "Base.a")}
    second = build_project(base, wide)
    assert second.closures is not first.closures
    assert export_closure(second, "Top").pairs() == {("a", "Base.a"), ("b", "Base.b")}
    assert export_closure(first, "Top").pairs() == {("a", "Base.a")}


def test_adding_an_edge_never_removes_closure_pairs():
    rng = random.Random(13)
    for _ in range(30):
        spec = random_graph_spec(rng, max_templates=5, max_edges=8)
        units = [parse_source(src, name) for name, src in graph_spec_sources(spec)]
        graph = build_project(*units)
        before = {
            i: export_closure(graph, spec.template_name(i)).pairs()
            for i in range(len(spec.members))
        }
        # extend with one fresh wildcard edge
        origin = rng.randrange(len(spec.members))
        target = rng.randrange(len(spec.members))
        from gen import EdgeSpec

        spec.edges.append(EdgeSpec(origin, target, True, []))
        units = [parse_source(src, name) for name, src in graph_spec_sources(spec)]
        graph = build_project(*units)
        for i, old_pairs in before.items():
            new_pairs = export_closure(graph, spec.template_name(i)).pairs()
            assert old_pairs <= new_pairs


def test_inherited_exports_from_controller_trait(inherit_units):
    graph = build_project(*inherit_units)
    closure = export_closure(graph, "MyController")
    names = {name for name, _ in closure.pairs()}
    assert {"render", "action"} <= names


def test_template_without_parents_inherits_nothing():
    unit = parse_source("object A {\n}")
    graph = build_project(unit)
    assert export_closure(graph, "A").pairs() == set()


def test_diamond_inheritance_sees_the_shared_name_once():
    units = [
        parse_source("object Z {\n  val z = 1\n}", "z.ml1"),
        parse_source("trait A {\n  @exported import Z._\n}", "a.ml1"),
        parse_source("trait B extends A {\n}", "b.ml1"),
        parse_source("trait C extends A {\n}", "c.ml1"),
        parse_source("object D extends B with C {\n}", "d.ml1"),
    ]
    graph = build_project(*units)
    assert graph.linearized_parents("D") == ["B", "A", "C"]
    closure = export_closure(graph, "D")
    # A de-duplicating union over the hand-drawn DAG gives exactly one
    # (z, Z.z) pair even though two inheritance paths reach A.
    assert closure.pairs() == {("z", "Z.z")}
    symbols = {entry.symbol.fqn for entry in closure.entries if entry.visible_name == "z"}
    assert symbols == {"Z.z"}


def test_package_object_member_fqns_live_under_the_package():
    unit = parse_fixture("salat", "salat_core.ml1")
    graph = build_project(unit)
    pkgobj = graph.package_objects["com.novus.salat"]
    assert pkgobj == "com.novus.salat.package"
    assert [m.fqn for m in graph.members[pkgobj]] == ["com.novus.salat.grate"]


def test_rewriter_marker_is_injected_once():
    graph = build_project(parse_source("object A {\n}", "a.ml1"))
    assert "DefaultRewriter" in graph.symbols
    user = parse_source("trait DefaultRewriter {\n}", "marker.ml1")
    graph = build_project(user)
    assert graph.owner_unit["DefaultRewriter"] == "marker.ml1"


def test_closure_is_deterministic(salat_after_units):
    graph = build_project(*salat_after_units)
    pkgobj = graph.package_objects["com.mycompany.salat"]
    assert export_closure(graph, pkgobj) == export_closure(graph, pkgobj)


def test_member_maps_are_built_once_and_read_only():
    units = [
        parse_source("package p\n\nobject T {\n  def f() = {\n    1\n  }\n}", "t.ml1"),
        parse_source("package p\n\npackage object q {\n  def g() = {\n    1\n  }\n}", "q.ml1"),
        parse_source("package p.q\n\nobject U {\n}", "u.ml1"),
    ]
    graph = build_project(*units)
    for fqn, expected in [
        ("p.T", {"f": "p.T.f"}),
        ("p.q", {"U": "p.q.U", "g": "p.q.g"}),
        ("p", {"T": "p.T", "q": "p.q"}),
    ]:
        members = graph.scope_members(fqn)
        assert {name: sym.fqn for name, sym in members.items()} == expected
        assert graph.scope_members(fqn) is members
        with pytest.raises(TypeError):
            members["x"] = members[next(iter(members))]
