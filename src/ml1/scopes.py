"""Project scope graph: symbols, inheritance, and re-export edges.

A scope is made of its parts (`ScopeGraph.parts`): a template and its
linearized parents, or a package's package object and that object's
parents. A scope's members and edges are those of all its parts, so a
template provides what it inherits, to its own body and to every other
site alike. A part's `@exported` imports become edges; the names they make
visible (directly or through further exported imports) form the scope's
export closure. A closure path may enter each scope at most once, so cyclic
edges terminate while every finitely derivable name is still found.
Entering a package enters its package object too, and a package object's
closure starts inside it, so it never re-enters its own package; taking a
clause of an inherited part enters the parents on the `extends` chain to
that part, as a path of that parent's own closure would. What each clause
enters is derived once per graph (`ScopeGraph.edges_of`) and shared by
every closure.

`export_closure` is the one closure engine. It keeps a single witness path
per (visible name, symbol) pair: the shortest, then the lowest by its list
of edge labels. Paths are expanded breadth-first in that order. Each edge's
selectors make one filter, built once per graph (`ExportEdge.filter`); a
path's filters compose into one, which is then restricted to the names a
later edge can still deliver to it. A path stops exactly when it cannot
add a pair or a smaller witness: once that filter hides every name, or once
the same scope was already reached under the same filter with a visited set
that is a subset of this path's. Closures are memoized on the graph; the
memos built while parents are linked are dropped, so every closure is built
from the finished graph. The graph holds only memos of its own queries:
what a later phase derives from it, such as a resolution, stays with that
phase.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

from ml1 import ast
from ml1.diagnostics import (
    Diagnostic,
    E_CYCLIC_INHERITANCE,
    E_DUPLICATE_SYMBOL,
    E_UNKNOWN_IMPORT_ANNOTATION,
    E_UNRESOLVED_IMPORT_PATH,
    E_UNRESOLVED_PARENT,
)
from ml1.record import Record, field
from ml1.tokens import Span

TEMPLATE = "template"
DEF = "def"
VAL = "val"
PACKAGE = "package"
BUILTIN = "builtin"

# FQN suffix for the synthetic template symbol behind a package object;
# keeps it distinct from the package itself ("package" cannot be a member
# name, so nothing else can take this slot).
PACKAGE_OBJECT_MEMBER = "package"

REWRITER_MARKER = "DefaultRewriter"
# The host always provides the marker trait rewriter objects extend, unless
# the project defines its own.
_HOST_UNIT = ast.CompilationUnit((), (ast.TemplateDef(ast.TRAIT, REWRITER_MARKER, (), ()),), "<host>")


class SymbolId(Record, frozen=True):
    fqn: str
    kind: str

    def short_name(self) -> str:
        return self.fqn.rsplit(".", 1)[-1]


# Tiers of a position in a site's precedence list (see `import_positions`).
ENCLOSING_TEMPLATE = "member"
IMPORT_NAMED = "import-named"
IMPORT_WILDCARD = "import-wildcard"
ENCLOSING_PACKAGE = "package"
BUILTIN_SCOPE = "builtin"

BUILTIN_NAMES = ("print", "error", "concat", "add", "sub", "compose")
BUILTINS = {name: SymbolId(f"<builtin>.{name}", BUILTIN) for name in BUILTIN_NAMES}


class ExportEdge(Record, frozen=True):
    """The `index`-th `@exported` import clause of template `origin`, with
    the scope its path resolves to."""

    origin: str
    index: int
    resolved_target: str
    selectors: ast.ImportSelectors

    def label(self) -> str:
        return f"{self.origin}[{self.index}]=>{self.resolved_target}"

    @cached_property
    def filter(self) -> _Filter:
        """The clause's selectors as one filter, built once per edge and
        shared by every closure that takes it."""
        return _selector_filter(self.selectors)


class ClosureEntry(Record, frozen=True):
    visible_name: str
    symbol: SymbolId
    path: tuple[ExportEdge, ...]


class ExportClosure(Record, frozen=True):
    """One entry per (visible name, symbol) pair, ordered by visible name
    then symbol FQN."""

    entries: tuple[ClosureEntry, ...]

    @cached_property
    def by_name(self) -> dict[str, tuple[SymbolId, ...]]:
        """Each visible name with its symbols, ordered by FQN."""
        index: dict[str, list[SymbolId]] = {}
        for entry in self.entries:
            index.setdefault(entry.visible_name, []).append(entry.symbol)
        return {name: tuple(syms) for name, syms in index.items()}

    def pairs(self) -> set[tuple[str, str]]:
        return {(e.visible_name, e.symbol.fqn) for e in self.entries}

    def lookup(self, name: str) -> tuple[SymbolId, ...]:
        """Symbols the closure makes visible under `name`, ordered by FQN."""
        return self.by_name.get(name, ())


class ScopeGraph(Record):
    symbols: dict[str, SymbolId] = field(default_factory=dict)
    members: dict[str, list[SymbolId]] = field(default_factory=dict)
    inherits: dict[str, list[str]] = field(default_factory=dict)
    exports: dict[str, list[ExportEdge]] = field(default_factory=dict)
    package_objects: dict[str, str] = field(default_factory=dict)
    package_members: dict[str, list[SymbolId]] = field(default_factory=dict)
    decls: dict[str, object] = field(default_factory=dict)
    owner_unit: dict[str, str] = field(default_factory=dict)
    units: list[ast.CompilationUnit] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    # Memos of `export_closure`, `parts`, `scope_members` and `edges_of`,
    # keyed by scope FQN. Each entry depends on `inherits`, so
    # `build_scope_graph` clears the memos once every parent is linked; after
    # that each entry is built once and shared read-only.
    closures: dict[str, ExportClosure] = field(default_factory=dict, repr=False, compare=False)
    scope_parts: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False, compare=False)
    member_maps: dict[str, Mapping[str, SymbolId]] = field(default_factory=dict, repr=False, compare=False)
    scope_edges: dict[str, tuple[tuple[ExportEdge, frozenset[str]], ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def parts(self, fqn: str) -> tuple[str, ...]:
        """The templates whose members and `@exported` clauses make up
        scope `fqn`, first provider first: a template, then its linearized
        parents; for a package, its package object, if it has one, then
        that object's linearized parents."""
        found = self.scope_parts.get(fqn)
        if found is None:
            sym = self.symbols.get(fqn)
            head = fqn if sym is not None and sym.kind == TEMPLATE else self.package_objects.get(fqn)
            found = () if head is None else (head, *self.linearized_parents(head))
            self.scope_parts[fqn] = found
        return found

    def scope_members(self, fqn: str) -> Mapping[str, SymbolId]:
        """Names scope `fqn` provides as members: a package's templates and
        subpackages, then the members of its parts. A name keeps its first
        provider, so a template's own members beat inherited ones."""
        found = self.member_maps.get(fqn)
        if found is None:
            listed = () if fqn in self.members else self.package_members.get(fqn, ())  # not a template's
            out = {sym.short_name(): sym for sym in listed}
            for part in self.parts(fqn):
                for sym in self.members[part]:
                    out.setdefault(sym.short_name(), sym)
            found = self.member_maps[fqn] = MappingProxyType(out)
        return found

    def edges_of(self, fqn: str) -> tuple[tuple[ExportEdge, frozenset[str]], ...]:
        """The `@exported` clauses of scope `fqn`'s parts in label order,
        once per `extends` chain from the first part to the clause's part,
        each with what taking it enters: the parents on that chain, the
        clause's target and the target's package object. A clause that
        targets its own chain is left out."""
        found = self.scope_edges.get(fqn)
        if found is None:
            steps, pending = [], [(part, frozenset()) for part in self.parts(fqn)[:1]]
            while pending:
                part, chain = pending.pop()
                for edge in self.exports.get(part, ()):
                    target = edge.resolved_target
                    if target not in chain:
                        steps.append((edge, chain | {target, *self.parts(target)[:1]}))
                pending += [(up, chain | {up}) for up in self.inherits.get(part, ())]
            found = self.scope_edges[fqn] = tuple(sorted(steps, key=lambda step: step[0].label()))
        return found

    def linearized_parents(self, tfqn: str) -> list[str]:
        """Transitive parents, left-to-right depth-first, first occurrence
        kept. Iterative, so a deep hierarchy cannot exhaust the stack."""
        order: dict[str, None] = {}
        pending = self.inherits.get(tfqn, [])[::-1]
        while pending:
            parent = pending.pop()
            if parent not in order:
                order[parent] = None
                pending += self.inherits.get(parent, [])[::-1]
        return list(order)


def export_closure(graph: ScopeGraph, fqn: str) -> ExportClosure:
    """Every (visible name, symbol) pair reachable from `fqn` through
    exported imports, each with its witness path: the shortest edge path
    that yields the pair, then the lowest by edge labels.

    Each path may enter a scope at most once; selector filters compose
    along the path, so a rename or hide on an outer edge applies to every
    name carried through it. The result is memoized on the graph.
    """
    closure = graph.closures.get(fqn)
    if closure is None:
        if fqn not in graph.symbols:
            raise KeyError(f"unknown scope: {fqn}")
        closure = graph.closures[fqn] = _witness_closure(graph, fqn)
    return closure


# A combined selector filter: (wildcard, explicit map). A name in the map
# becomes its value (None hides it); any other name passes unchanged when
# wildcard is set and is hidden otherwise. Maps are kept normal (no entry
# that repeats the default), so equal filters have equal keys. Filters are
# shared between paths and closures and never mutated.
_Filter = tuple[bool, dict[str, "str | None"]]
_IDENTITY: _Filter = (True, {})


def _compose(outer: _Filter, inner: _Filter) -> _Filter:
    """The filter of a path extended by one edge: `inner` (the new edge's
    selectors) applies first, then `outer` (the path so far)."""
    outer_wild, outer_map = outer
    inner_wild, inner_map = inner
    if inner_wild and not inner_map:
        return outer
    if outer_wild and not outer_map:
        return inner
    wild = outer_wild and inner_wild
    out: dict[str, str | None] = {}
    for name, mid in inner_map.items():
        if mid is None:
            visible = None
        elif mid in outer_map:
            visible = outer_map[mid]
        else:
            visible = mid if outer_wild else None
        if visible != (name if wild else None):
            out[name] = visible
    if inner_wild:
        for name, visible in outer_map.items():
            if name not in inner_map and visible != (name if wild else None):
                out[name] = visible
    return wild, out


def _selector_filter(selectors: ast.ImportSelectors) -> _Filter:
    wild = selectors.wildcard
    return wild, {name: to for name, to in selectors.table.items() if to != (name if wild else None)}


def _witness_closure(graph: ScopeGraph, fqn: str) -> ExportClosure:
    # A name can reach a path's filter from a later edge only as a member of
    # a scope the path has not visited yet, or as the new name a selector
    # gives it on an edge of the path's last scope or of an unvisited one:
    # name -> (scope, whether by a rename) for each such source. So an edge's
    # hide of a name that arrives only from the edge's own scope, which every
    # path taking the edge has visited, decides nothing: the edge's filter
    # serves every closure as it is. The table covers the scopes reachable
    # from `fqn` only: over the whole graph it would count scopes no path of
    # this root reaches, and prune less.
    arrives: dict[str, list[tuple[str, bool]]] = {}
    reachable, pending = {fqn}, [fqn]
    while pending:
        scope = pending.pop()
        for name in graph.scope_members(scope):
            arrives.setdefault(name, []).append((scope, False))
        for edge, _ in graph.edges_of(scope):
            for name, to in edge.filter[1].items():
                if to is not None and to != name:
                    arrives.setdefault(to, []).append((scope, True))
            if edge.resolved_target not in reachable:
                reachable.add(edge.resolved_target)
                pending.append(edge.resolved_target)

    # Breadth-first over simple edge paths, each level in label order: the
    # first path to yield a pair is its witness.
    expanded: dict[tuple, list[frozenset[str]]] = {}
    witness: dict[tuple[str, str], tuple[SymbolId, tuple[ExportEdge, ...]]] = {}
    frontier = [(fqn, _IDENTITY, frozenset((fqn, *graph.parts(fqn)[:1])), ())]
    while frontier:
        next_frontier = []
        for scope, path_filter, visited, path in frontier:
            for edge, entered in graph.edges_of(scope):
                if not entered.isdisjoint(visited):
                    continue
                wild, names = _compose(path_filter, edge.filter)
                if not wild and not names:
                    continue  # hides every name, here and beyond
                target = edge.resolved_target
                target_path = path + (edge,)
                found = graph.scope_members(target)
                if wild:
                    visible_syms = ((names.get(name, name), sym) for name, sym in found.items())
                else:
                    visible_syms = ((visible, found.get(name)) for name, visible in names.items())
                for visible, sym in visible_syms:
                    if visible is not None and sym is not None:
                        key = (visible, sym.fqn)
                        if key not in witness:
                            witness[key] = (sym, target_path)
                target_visited = visited | entered
                carried = {
                    name: visible
                    for name, visible in names.items()
                    if any(s not in target_visited or renamed and s == target for s, renamed in arrives.get(name, ()))
                }
                if not wild and not carried:
                    continue  # nothing further can pass
                seen = expanded.setdefault((target, wild, frozenset(carried.items())), [])
                if any(earlier <= target_visited for earlier in seen):
                    continue  # an earlier, smaller path reaches all this one can
                seen.append(target_visited)
                next_frontier.append((target, (wild, carried), target_visited, target_path))
        frontier = next_frontier
    return ExportClosure(
        tuple(
            ClosureEntry(name, sym, path)
            for (name, _), (sym, path) in sorted(witness.items())
        )
    )


# Graph construction ---------------------------------------------------------


def build_scope_graph(units: list[ast.CompilationUnit]) -> ScopeGraph:
    graph = ScopeGraph(units=list(units))
    for unit in units:
        _declare_unit(graph, unit)
    if REWRITER_MARKER not in graph.symbols:
        _declare_unit(graph, _HOST_UNIT)
    for unit in units:
        _link_imports(graph, unit)
    # Parent names resolve without inherited names: every parent is looked
    # up before any is linked, and the memos built meanwhile are dropped.
    # A link that would close a cycle is reported and left out (SLS §5.1),
    # so `inherits` is acyclic.
    parents = dict(link for unit in units for link in _resolve_parents(graph, unit))
    for tfqn, (unit_name, span, resolved) in parents.items():
        for parent in resolved:
            if parent == tfqn or tfqn in graph.linearized_parents(parent):
                message = f"parent {parent} of {tfqn} closes an inheritance cycle"
                graph.diagnostics.append(Diagnostic(E_CYCLIC_INHERITANCE, message, unit_name, span))
            else:
                graph.inherits[tfqn].append(parent)
    graph.closures.clear()
    graph.scope_parts.clear()
    graph.member_maps.clear()
    graph.scope_edges.clear()
    return graph


def _ensure_package(graph: ScopeGraph, path: ast.QualName, unit: ast.CompilationUnit) -> None:
    graph.package_members.setdefault("", [])
    for depth in range(1, len(path) + 1):
        fqn = ".".join(path[:depth])
        existing = graph.symbols.get(fqn)
        if existing is not None:
            if existing.kind != PACKAGE:
                graph.diagnostics.append(
                    Diagnostic(
                        E_DUPLICATE_SYMBOL,
                        f"package {fqn} collides with a {existing.kind} of the same name",
                        unit.source_name,
                    )
                )
            continue
        sym = SymbolId(fqn, PACKAGE)
        graph.symbols[fqn] = sym
        graph.package_members[fqn] = []
        parent = ".".join(path[: depth - 1])
        graph.package_members.setdefault(parent, []).append(sym)


def _declare_symbol(graph: ScopeGraph, sym: SymbolId, decl, unit_name: str) -> bool:
    if sym.fqn in graph.symbols:
        graph.diagnostics.append(
            Diagnostic(
                E_DUPLICATE_SYMBOL,
                f"{sym.fqn} is already defined",
                unit_name,
                getattr(decl, "span", None),
            )
        )
        return False
    graph.symbols[sym.fqn] = sym
    graph.decls[sym.fqn] = decl
    graph.owner_unit[sym.fqn] = unit_name
    return True


def _declare_unit(graph: ScopeGraph, unit: ast.CompilationUnit) -> None:
    _ensure_package(graph, unit.package_path, unit)
    pkg = ast.dotted(unit.package_path)
    for tpl in unit.templates():
        tfqn = template_fqn_of(unit, tpl)
        sym = SymbolId(tfqn, TEMPLATE)
        if tpl.kind == ast.PACKAGE_OBJECT:
            member_prefix = tfqn.rpartition(".")[0]  # the package it belongs to
            _ensure_package(graph, tuple(member_prefix.split(".")), unit)
            if not _declare_symbol(graph, sym, tpl, unit.source_name):
                continue
            graph.package_objects[member_prefix] = tfqn
        else:
            member_prefix = tfqn
            if not _declare_symbol(graph, sym, tpl, unit.source_name):
                continue
            graph.package_members.setdefault(pkg, []).append(sym)
        graph.members[tfqn] = []
        graph.inherits[tfqn] = []
        graph.exports[tfqn] = []
        for stat in tpl.stats:
            if isinstance(stat, ast.DefDecl):
                kind = VAL if stat.is_val else DEF
                msym = SymbolId(f"{member_prefix}.{stat.name}", kind)
                if _declare_symbol(graph, msym, stat, unit.source_name):
                    graph.members[tfqn].append(msym)


def resolve_import_path(graph: ScopeGraph, path: ast.QualName) -> str | None:
    """Resolve an absolute import path to a package or template FQN."""
    current = ""
    for i, segment in enumerate(path):
        sym = graph.scope_members(current).get(segment)
        if sym is None:
            return None
        if sym.kind == PACKAGE:
            current = sym.fqn
            continue
        if sym.kind == TEMPLATE:
            return sym.fqn if i == len(path) - 1 else None
        return None
    return current or None


def _link_imports(graph: ScopeGraph, unit: ast.CompilationUnit) -> None:
    def resolve_clause(clause: ast.ImportClause) -> str | None:
        target = resolve_import_path(graph, clause.path)
        if target is None:
            graph.diagnostics.append(
                Diagnostic(
                    E_UNRESOLVED_IMPORT_PATH,
                    f"import path {ast.dotted(clause.path)} does not name a template or package",
                    unit.source_name,
                    clause.span,
                )
            )
        return target

    for clause in unit.top_imports():
        resolve_clause(clause)
    for tpl in unit.templates():
        tfqn = template_fqn(graph, unit, tpl)
        for stat in tpl.stats:
            if not isinstance(stat, ast.ImportClause):
                continue
            if stat.annotations and stat.annotations != ("exported",):
                graph.diagnostics.append(
                    Diagnostic(
                        E_UNKNOWN_IMPORT_ANNOTATION,
                        "only @exported is understood on imports, found "
                        + ", ".join(f"@{a}" for a in stat.annotations),
                        unit.source_name,
                        stat.span,
                    )
                )
                continue
            target = resolve_clause(stat)
            if stat.annotations == ("exported",) and target is not None and tfqn is not None:
                edges = graph.exports[tfqn]
                edges.append(ExportEdge(tfqn, len(edges), target, stat.selectors))


def template_fqn_of(unit: ast.CompilationUnit, tpl: ast.TemplateDef) -> str:
    """FQN a top-level template declares, derived purely from structure."""
    pkg = ast.dotted(unit.package_path)
    if tpl.kind == ast.PACKAGE_OBJECT:
        owned = f"{pkg}.{tpl.name}" if pkg else tpl.name
        return f"{owned}.{PACKAGE_OBJECT_MEMBER}"
    return f"{pkg}.{tpl.name}" if pkg else tpl.name


def template_fqn(graph: ScopeGraph, unit: ast.CompilationUnit, tpl: ast.TemplateDef) -> str | None:
    """The FQN of the symbol `tpl` declared; None for a duplicate, which
    declared none. A copy of the declaring unit, such as one with its
    import annotations erased, declares what the original did: there the
    first template of that FQN counts."""
    fqn = template_fqn_of(unit, tpl)
    decl = graph.decls.get(fqn)
    copied = isinstance(decl, ast.TemplateDef) and graph.owner_unit[fqn] == unit.source_name
    if decl is tpl or copied and next(t for t in unit.templates() if template_fqn_of(unit, t) == fqn) is tpl:
        return fqn
    return None


def _resolve_parents(
    graph: ScopeGraph, unit: ast.CompilationUnit
) -> Iterable[tuple[str, tuple[str, Span, list[str]]]]:
    """Each template of `unit` with the unit's name, the template's span
    and the templates its `extends` names, each looked up at the unit's top
    scope. A name that is ambiguous or missing at any segment misses; the
    full resolver reports it with its candidates."""
    positions = import_positions(graph, unit)
    for tpl in unit.templates():
        tfqn = template_fqn(graph, unit, tpl)
        if tfqn is None:
            continue
        resolved: list[str] = []
        for parent in tpl.parents:
            hits, _ = lookup_qualified(graph, positions, parent)
            if len(hits) != 1 or hits[0].kind != TEMPLATE:
                graph.diagnostics.append(
                    Diagnostic(
                        E_UNRESOLVED_PARENT,
                        f"parent {ast.dotted(parent)} of {tfqn} does not resolve to a template",
                        unit.source_name,
                        tpl.span,
                    )
                )
                continue
            resolved.append(hits[0].fqn)
        yield tfqn, (unit.source_name, tpl.span, resolved)


# A site's precedence list (`import_positions`) and `lookup_qualified`, the
# one lookup policy over it; the resolver, the implicit scan and graph
# construction (for parent names) all use it.


def scope_lookup(graph: ScopeGraph, scope_fqn: str, name: str) -> tuple[SymbolId, ...]:
    """Symbols scope `scope_fqn` provides under `name`: a member beats
    re-exported names; distinct re-exported symbols stay ambiguous."""
    member = graph.scope_members(scope_fqn).get(name)
    if member is not None:
        return (member,)
    return export_closure(graph, scope_fqn).lookup(name)


class ImportPosition(Record, frozen=True):
    """One entry of a site's precedence list: the member tier of the
    enclosing template (ENCLOSING_TEMPLATE), the named selectors of one
    clause (IMPORT_NAMED), the wildcard of one clause (IMPORT_WILDCARD), one
    enclosing package (ENCLOSING_PACKAGE) or the builtins (BUILTIN_SCOPE).
    `index` is the clause's textual index, the package's distance from the
    innermost one, or 0; `scope` is the template, the imported scope or the
    package, or "" for the builtins."""

    tier: str
    index: int
    scope: str
    renames: Mapping[str, str] = field(default_factory=dict)  # named: visible name -> source
    excluded: frozenset[str] = frozenset()  # wildcard: the names a selector mentions

    def lookup(self, graph: ScopeGraph, name: str) -> tuple[SymbolId, ...]:
        """Symbols this position provides under `name`. Inside a template's
        body, after its members come only its parents' re-exports, as one
        union where distinct symbols stay ambiguous; the template's own
        `@exported` clauses are import positions of the body instead."""
        tier = self.tier
        if tier == IMPORT_NAMED:
            source = self.renames.get(name)
            return () if source is None else scope_lookup(graph, self.scope, source)
        if tier == IMPORT_WILDCARD:
            return () if name in self.excluded else scope_lookup(graph, self.scope, name)
        hit = (BUILTINS if tier == BUILTIN_SCOPE else graph.scope_members(self.scope)).get(name)
        if hit is not None:
            return (hit,)
        if tier != ENCLOSING_TEMPLATE:
            return ()
        inherited = {sym for parent in graph.inherits[self.scope] for sym in export_closure(graph, parent).lookup(name)}
        return tuple(sorted(inherited, key=lambda sym: sym.fqn))

    def names(self, graph: ScopeGraph) -> Iterable[str]:
        """Every name `lookup` may find symbols under."""
        if self.tier == IMPORT_NAMED:
            return self.renames
        names = set(BUILTINS if self.tier == BUILTIN_SCOPE else graph.scope_members(self.scope))
        if self.tier == IMPORT_WILDCARD:
            names.update(export_closure(graph, self.scope).by_name)
            return names - self.excluded
        if self.tier == ENCLOSING_TEMPLATE:
            names.update(name for parent in graph.inherits[self.scope] for name in export_closure(graph, parent).by_name)
        return names


_BUILTIN_POSITION = ImportPosition(BUILTIN_SCOPE, 0, "")


def import_positions(
    graph: ScopeGraph, unit: ast.CompilationUnit, template: str | None = None
) -> tuple[ImportPosition, ...]:
    """The precedence list of a site in `unit`: its top scope, or the body
    of `template`, declared by `unit` or a copy of it. Highest first: the
    member tier of `template`, if any; each clause's named selectors, then
    each clause's wildcard, a later clause before an earlier one in both,
    the template's clauses after the unit's top-level ones; the enclosing
    packages, innermost first; last, the builtins. Each clause's target is
    resolved here, once; a clause whose path does not resolve provides
    nothing."""
    clauses = list(unit.top_imports())
    members = ()
    if template is not None:
        clauses += (s for s in graph.decls[template].stats if isinstance(s, ast.ImportClause))
        members = (ImportPosition(ENCLOSING_TEMPLATE, 0, template),)
    named: list[ImportPosition] = []
    wildcards: list[ImportPosition] = []
    for index, clause in reversed(list(enumerate(clauses))):
        target = resolve_import_path(graph, clause.path)
        if target is None:
            continue
        selected = clause.selectors.table
        renames = {visible: source for source, visible in selected.items() if visible is not None}
        if renames:
            named.append(ImportPosition(IMPORT_NAMED, index, target, renames=renames))
        if clause.selectors.wildcard:
            wildcards.append(ImportPosition(IMPORT_WILDCARD, index, target, excluded=frozenset(selected)))
    path = unit.package_path
    prefixes = [".".join(path[:depth]) for depth in range(len(path), -1, -1)]
    # A prefix that a template took (E_DUPLICATE_SYMBOL) encloses nothing.
    packages = [ImportPosition(ENCLOSING_PACKAGE, i, fqn) for i, fqn in enumerate(prefixes) if fqn not in graph.members]
    return (*members, *named, *wildcards, *packages, _BUILTIN_POSITION)


def lookup_qualified(
    graph: ScopeGraph, positions: tuple[ImportPosition, ...], parts: ast.QualName
) -> tuple[tuple[SymbolId, ...], int]:
    """Look up a qualified name at a site with precedence list `positions`:
    the first position that provides `parts[0]` wins, and each later
    segment names what the package or template reached so far provides
    (`scope_lookup`, export closures included). Returns the hits of the
    last segment looked up and its index: one symbol when `parts` names
    exactly one, else the first segment that does not, with its hits (none,
    or several when it is ambiguous)."""
    hits: tuple[SymbolId, ...] = ()
    for position in positions:
        hits = position.lookup(graph, parts[0])
        if hits:
            break
    for index in range(1, len(parts)):
        if len(hits) != 1:
            return hits, index - 1
        current = hits[0]
        hits = scope_lookup(graph, current.fqn, parts[index]) if current.kind in (PACKAGE, TEMPLATE) else ()
    return hits, len(parts) - 1
