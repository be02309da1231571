import random
import sys

import pytest

from ml1 import ast, scopes
from ml1.diagnostics import (
    E_DUPLICATE_SYMBOL,
    E_UNKNOWN_IMPORT_ANNOTATION,
    E_UNRESOLVED_IMPORT_PATH,
    E_UNRESOLVED_PARENT,
)
from ml1.resolve import check_context_consistency, resolve_units
from ml1.scopes import build_scope_graph, export_closure

from conftest import build_project, parse_fixture, parse_source
from gen import (
    NAME_POOL,
    RENAME_POOL,
    _edge_filter,
    closure_oracle,
    closure_witness_oracle,
    dense_family_sources,
    diamond_ladder_spec,
    graph_spec_sources,
    layered_family_spec,
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
    # Such a clause is reported once, whether its path resolves or not, and
    # still imports what its path names.
    source = "object T {\n  val t = 1\n}\nobject A {\n  @foo import T._\n  @foo import missing._\n"
    unit = parse_source(source + "  def f() = {\n    print(t)\n  }\n}")
    graph = build_scope_graph([unit])
    assert codes(graph) == [E_UNKNOWN_IMPORT_ANNOTATION] * 2
    resolution = resolve_units(graph, [unit])
    assert [(r.name, r.symbol.fqn) for r in resolution.records] == [("print", "<builtin>.print"), ("t", "T.t")]


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


def test_a_hierarchy_deeper_than_the_recursion_limit_links_and_resolves(monkeypatch):
    depth = sys.getrecursionlimit() + 100
    # Linking walks no ancestry: no template of the chain is a parent when
    # its own link is checked. Resolving `T1099.x` linearizes the chain
    # once, so the linearizations return d-1 parents (1,099 at depth
    # 1,100). Checking every link with a walk would return d(d-1)/2, so
    # the spy fails past 4d.
    budget = 4 * depth
    parents = 0
    linearized_parents = scopes.ScopeGraph.linearized_parents

    def summing(self, tfqn):
        nonlocal parents
        found = linearized_parents(self, tfqn)
        parents += len(found)
        assert parents <= budget, f"linearizations returned more than {budget:,} parents"
        return found

    monkeypatch.setattr(scopes.ScopeGraph, "linearized_parents", summing)
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
    # Hand-derived: from P the only edge reaches Q (members {y}); Q's
    # edge leads back to P, the root, which no path enters again.
    assert export_closure(graph, "P").pairs() == {("y", "Q.y")}
    assert export_closure(graph, "Q").pairs() == {("x", "P.x")}


def test_a_path_may_pass_a_scope_again_under_another_name():
    # T1 re-exports its own `c` as `f`. From T0, the state (T1, f) leads on
    # through that clause to (T1, c): T1 again, under another name. A path
    # that entered each scope at most once could not take it.
    units = [
        parse_source("object T0 {\n  @exported import T1._\n}", "t0.ml1"),
        parse_source("object T1 {\n  @exported import T1.{c => f}\n  val c = 0\n}", "t1.ml1"),
        parse_source("import T0._\n\nobject C {\n  def g() = {\n    f\n  }\n}", "c.ml1"),
    ]
    graph = build_project(*units)
    assert witnesses(export_closure(graph, "T0")) == {
        ("c", "T1.c"): ("T0[0]=>T1",),
        ("f", "T1.c"): ("T0[0]=>T1", "T1[0]=>T1"),
    }
    assert export_closure(graph, "T1").entries == ()  # its one clause enters its root
    resolution = resolve_units(graph, units)
    assert not resolution.diagnostics
    assert [rec.symbol.fqn for rec in resolution.records if rec.name == "f"] == ["T1.c"]


def simple_path_pairs(spec, start):
    """The closure pairs under the rule that closures followed before they
    were a fixpoint over states: every simple edge path from `start`, where
    taking an inherited part's edge also enters the templates on the
    `extends` chain to that part."""

    def chains(index, chain=frozenset()):
        found = [(edge, chain) for edge in spec.edges if edge.origin == index]
        for parent in spec.parents[index] if spec.parents else ():
            found += chains(parent, chain | {parent})
        return found

    pairs, worklist = set(), [(start, frozenset({start}), ())]
    while worklist:
        scope, visited, path = worklist.pop()
        for edge, chain in chains(scope):
            if edge.target in visited | chain or chain & visited:
                continue
            new_path = path + (edge,)
            for member, fqn in spec.scope_members(edge.target).items():
                visible = member
                for step in reversed(new_path):
                    visible = visible and _edge_filter(step, visible)
                if visible:
                    pairs.add((visible, fqn))
            worklist.append((edge.target, visited | chain | {edge.target}, new_path))
    return pairs


@pytest.mark.parametrize("max_parents, gained", [(0, 186), (2, 552)])
def test_states_only_add_pairs_to_simple_paths(max_parents, gained):
    # Every pair a simple path yields, a path over states yields too; of
    # the 1,327 closures without parents, 186 gain pairs, and of the 1,335
    # with up to two parents per template, 552.
    rng = random.Random(37)
    grown = 0
    for _ in range(300):
        spec = random_graph_spec(rng, max_parents=max_parents)
        graph = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
        for index in range(len(spec.members)):
            before = simple_path_pairs(spec, index)
            after = export_closure(graph, spec.template_name(index)).pairs()
            assert before <= after
            grown += before != after
    assert grown == gained


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


def test_a_rename_reaches_every_closure_that_takes_its_edge():
    # Both hubs reach Mid's edge; every closure takes it.
    unit = parse_source(
        "object Base {\n  val a = 1\n  val b = 2\n}\n"
        "object Mid {\n  @exported import Base.{a => c, _}\n}\n"
        "object Hub1 {\n  @exported import Mid._\n}\n"
        "object Hub2 {\n  @exported import Mid._\n}\n"
    )
    graph = build_project(unit)
    closures = [export_closure(graph, name) for name in ("Base", "Mid", "Hub1", "Hub2")]
    assert [closure.lookup("c") for closure in closures] == [(), *[(graph.symbols["Base.a"],)] * 3]


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


@pytest.mark.parametrize("back_edge, largest", [(False, 8), (True, 6)])
def test_layered_families_match_the_oracles(back_edge, largest):
    # No two of the 2^i paths to layer i have comparable visited sets, and
    # with the back edge every template reaches every other.
    for k in range(largest + 1):
        spec = layered_family_spec(k, back_edge)
        graph = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
        for index in range(len(spec.members)):
            closure = export_closure(graph, spec.template_name(index))
            assert closure.pairs() == closure_oracle(spec, index), (k, index)
            assert witnesses(closure) == closure_witness_oracle(spec, index), (k, index)


def count_edge_steps(monkeypatch, budget, what):
    """Spy on the closure engine's unit of work, the edge step: a carried
    path taking one clause, which composes the clause's selectors into the
    path's filter. Fails past `budget` steps; returns the running count."""
    steps = [0]
    compose = scopes._compose

    def counting(outer, inner):
        steps[0] += 1
        assert steps[0] <= budget, f"{what} took more than {budget:,} edge steps"
        return compose(outer, inner)

    monkeypatch.setattr(scopes, "_compose", counting)
    return steps


def test_a_layered_family_closes_within_a_state_budget(monkeypatch):
    # A path carries on only the states no earlier path reached, so each
    # template of L(40) is expanded once from T0: 158 edge steps. Expanding
    # every path would take about 2^40, so the spy stops at the budget.
    spec = layered_family_spec(40)
    graph = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
    steps = count_edge_steps(monkeypatch, 500, "L(40)")
    closure = export_closure(graph, spec.template_name(0))
    assert closure.pairs() == {(f"v{i}", f"T{i}.v{i}") for i in range(2, 82)}
    assert steps == [158]


def test_a_dense_family_closes_within_a_state_budget(monkeypatch):
    # A clique of k wildcard hubs closes from D0 in (k-1)^2 edge steps: D0
    # takes its k-1 clauses, then each hub its clauses but the one back to
    # D0, and finds every state reached. 49, 225 and 729 at k = 8, 16, 28.
    k = 28
    graph = build_project(*[parse_source(src, name) for name, src in dense_family_sources(k)])
    steps = count_edge_steps(monkeypatch, 1_000, "the k=28 clique")
    closure = export_closure(graph, "D0")
    assert closure.pairs() == {(f"v{j}_{m}", f"D{j}.v{j}_{m}") for j in range(1, k) for m in range(2)}
    assert steps == [(k - 1) ** 2]


def test_a_layered_family_with_a_back_edge_closes_within_a_budget(monkeypatch):
    # With the back edge every template but T1 is reached from every other
    # through T0, and the paths to layer i have pairwise incomparable visited
    # sets, so a rule that enters each scope once per path expands about
    # 2^i of them. By states, all 24 closures of k=11 take 1,014 edge steps.
    spec = layered_family_spec(11, back_edge=True)
    graph = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
    steps = count_edge_steps(monkeypatch, 2_000, "closing layered_family_spec(11, back_edge=True)")
    for index in range(len(spec.members)):
        closure = export_closure(graph, spec.template_name(index))
        assert closure.pairs() == {(f"v{i}", f"T{i}.v{i}") for i in range(24) if i not in (1, index)}
    assert steps == [1_014]


class CountingInherits(dict):
    """`graph.inherits` under a spy: fails past `budget` `get` calls."""

    def __init__(self, inherits, budget, what):
        super().__init__(inherits)
        self.calls, self.budget, self.what = 0, budget, what

    def get(self, *args):
        self.calls += 1
        assert self.calls <= self.budget, f"{self.what} took more than {self.budget:,} inherits lookups"
        return super().get(*args)


def test_an_export_free_diamond_ladder_resolves_within_a_budget():
    # No template of the k=24 ladder has an `@exported` clause, so no
    # part's clauses need a walk. Resolving `T72.nope` asks
    # `graph.inherits` 74 times, to linearize T72; following each of the
    # 2^24 chains from T72 to T0 would ask once per chain, so the spy stops
    # at the budget.
    k = 24
    spec = diamond_ladder_spec(k)
    client = ("c.ml1", f"object C {{\n  val y = T{3 * k}.nope\n}}\n")
    units = [parse_source(src, name) for name, src in [*graph_spec_sources(spec), client]]
    graph = build_project(*units)

    graph.inherits = CountingInherits(graph.inherits, 1_000, "the k=24 ladder")
    resolution = resolve_units(graph, units)
    assert [d.render() for d in resolution.diagnostics] == ["c.ml1:21-29: E_UNRESOLVED: T72.nope is not in scope"]
    assert graph.inherits.calls == 74


def test_a_diamond_ladder_with_a_clause_closes_within_a_budget():
    # T0's one clause is one edge of every rung's scope, however many
    # `extends` chains lead to it. Closing T48 of the k=16 ladder asks
    # `graph.inherits` 50 times, to linearize T48; a step per chain would
    # ask once per each of the 2^16 chains, so the spy stops at the budget.
    spec = diamond_ladder_spec(16, clause=True)
    graph = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
    graph.inherits = CountingInherits(graph.inherits, 1_000, "closing T48 of the k=16 ladder")
    assert witnesses(export_closure(graph, "T48")) == {("x", "T49.x"): ("T0[0]=>T49",)}
    assert graph.inherits.calls == 50


@pytest.mark.parametrize("clause", [False, True])
def test_diamond_ladders_match_the_oracles(clause):
    # With the clause on T0, the top template's scope has that one clause,
    # however many of the 2^k chains lead to T0; without it there is none.
    for k in range(6):
        spec = diamond_ladder_spec(k, clause)
        graph = build_project(*[parse_source(src, name) for name, src in graph_spec_sources(spec)])
        assert len(graph.edges_of(spec.template_name(3 * k))) == (1 if clause else 0)
        for index in range(len(spec.members)):
            closure = export_closure(graph, spec.template_name(index))
            assert closure.pairs() == closure_oracle(spec, index), (k, index)
            assert witnesses(closure) == closure_witness_oracle(spec, index), (k, index)


# Families for the scaling test, by size n. A site's precedence list made
# once per template made each template pay for all of its unit's top-level
# statements and clauses: the first two families grew quadratically.
SCALING_FAMILIES = {
    "templates_under_clauses": lambda n: {
        "wide.ml1": "import p.Lib._\n" * n
        + "".join(f"object O{i} {{\n  def f() = {{\n    print(x)\n  }}\n}}\n" for i in range(n))
    },
    "deep_extends_chain": lambda n: {
        "chain.ml1": "trait T0 {\n}\n" + "".join(f"trait T{i} extends T{i - 1} {{\n}}\n" for i in range(1, n))
    },
    "top_level_clauses": lambda n: {"clauses.ml1": "import p.Lib._\n" * n + "object O {\n  val y = x\n}\n"},
    "units_importing_a_hub": lambda n: {
        "hub.ml1": "package h\n\nobject H {\n  @exported import p.Lib._\n}\n",
        **{f"c{i}.ml1": f"import h.H._\n\nobject C{i} {{\n  val y = x\n}}\n" for i in range(n)},
    },
}
# Every family also has an implicit object, so the implicit scan reads
# each unit's top-scope list.
SCALING_LIB = "package p\n\ntrait Context {\n}\n\nimplicit object Lib extends Context {\n  val x = 1\n}\n"


def count_resolution_work(monkeypatch):
    """Spies that count the import paths resolved and the top-level
    statements `top_imports` scans, and fail when resolution, the implicit
    scan or parent lookup resolves a path."""
    work = {"paths": 0, "scanned": 0}
    resolve_import_path, top_imports = scopes.resolve_import_path, ast.CompilationUnit.top_imports

    def resolving(graph, path):
        work["paths"] += 1
        frame, callers = sys._getframe(1), set()
        while frame is not None:
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        phases = callers & {"resolve_units", "implicit_candidates", "_resolve_parents"}
        assert not phases, f"{', '.join(sorted(phases))} resolved an import path"
        return resolve_import_path(graph, path)

    def scanning(unit):
        work["scanned"] += len(unit.top_stats)
        return top_imports(unit)

    monkeypatch.setattr(scopes, "resolve_import_path", resolving)
    monkeypatch.setattr(ast.CompilationUnit, "top_imports", scanning)
    return work


@pytest.mark.parametrize("family", sorted(SCALING_FAMILIES))
def test_resolution_work_grows_linearly_in_the_program(monkeypatch, family):
    # Builds the graph, resolves every unit and runs the implicit scan at
    # sizes n and 2n: the counted work may at most double. Each import path
    # is resolved once per graph built, so the count is the clause count.
    work = count_resolution_work(monkeypatch)
    counted = []
    for n in (40, 80):
        sources = {"lib.ml1": SCALING_LIB, **SCALING_FAMILIES[family](n)}
        units = [parse_source(text, name) for name, text in sources.items()]
        work.update(paths=0, scanned=0)
        graph = build_scope_graph(units)
        assert work["paths"] == sum(isinstance(node, ast.ImportClause) for unit in units for node in ast.walk(unit))
        resolve_units(graph, units)
        assert check_context_consistency(graph, "p.Context") == []
        counted.append(dict(work))
    small, large = counted
    for what in work:
        assert large[what] <= 2 * small[what], f"{what}: {small[what]:,} at n=40, {large[what]:,} at n=80"


def test_unknown_scope_has_no_closure():
    graph = build_project(parse_source("object A {\n}"))
    with pytest.raises(KeyError, match="unknown scope: no.such"):
        export_closure(graph, "no.such")


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


def test_a_package_object_closure_never_reenters_its_own_package():
    units = [
        parse_source("package r\n\npackage object s {\n  @exported import r.s._\n}", "s.ml1"),
        parse_source("package r.s\n\nobject Z {\n}", "z.ml1"),
        parse_source("import r.s._\n\nobject C {\n  def f() = {\n    Z\n  }\n}", "c.ml1"),
    ]
    graph = build_project(*units)
    assert export_closure(graph, "r.s.package").entries == ()
    resolution = resolve_units(graph, units)
    assert not resolution.diagnostics
    assert [rec.symbol.fqn for rec in resolution.records if rec.name == "Z"] == ["r.s.Z"]


def test_a_closure_built_while_parents_are_looked_up_is_rebuilt_once_they_are_linked():
    # Looking up Y's parent `X.Q` builds X's closure before X extends P.
    unit = parse_source(
        "object L {\n  val a = 1\n}\n"
        "object P {\n  @exported import L._\n}\n"
        "object X extends P {\n}\n"
        "object Y extends X.Q {\n}\n"
    )
    graph = build_scope_graph([unit])
    assert codes(graph) == [E_UNRESOLVED_PARENT]
    assert export_closure(graph, "X").lookup("a") == (graph.symbols["L.a"],)


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
