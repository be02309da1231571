"""Project scope graph: symbols, inheritance, and re-export edges.

A scope is made of its parts (`ScopeGraph.parts`): a template and its
linearized parents, or a package's package object and that object's
parents. A scope's members and `@exported` clauses are those of all its
parts, each clause once, so a template provides what it inherits, to its
own body and to every other site alike. The names the clauses make
visible, directly or through further clauses, form its export closure.

A closure is a least fixpoint over (scope, source name, visible name)
states: a template's closure is what its own clauses reach plus its
parents' closures, and a package's is its package object's. A path may
pass a scope again under another name, but it never enters its root again
(nor, for a package object, its package), so cycles terminate.
`export_closure` is the one closure engine. It keeps a single witness path
per (visible name, symbol) pair, the shortest, then the lowest by its edge
labels, found breadth-first; a path carries on only the states no earlier
path reached, so closures cost polynomial work, cycles included. Closures
are memoized on the graph; the memos built while parents are linked are
dropped, so every closure is built from the finished graph. The graph
holds only memos of its own queries: what a later phase derives from it,
such as a resolution, stays with that phase.
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


# A closure pair's symbol and witness path.
_Witness = tuple[SymbolId, tuple[ExportEdge, ...]]


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
    # Memos of `export_closure`, `_own_closure`, `parts`, `scope_members`,
    # `edges_of` and `findable`, keyed by scope FQN, and of
    # `resolve._implicit_targets`, keyed by marker FQN. Each entry depends on
    # `inherits`, so `build_scope_graph` clears the memos once every parent
    # is linked; after that each entry is built once and shared read-only.
    closures: dict[str, ExportClosure] = field(default_factory=dict, repr=False, compare=False)
    own_closures: dict[str, dict[tuple[str, str], _Witness]] = field(default_factory=dict, repr=False, compare=False)
    scope_parts: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False, compare=False)
    member_maps: dict[str, Mapping[str, SymbolId]] = field(default_factory=dict, repr=False, compare=False)
    scope_edges: dict[str, tuple[ExportEdge, ...]] = field(default_factory=dict, repr=False, compare=False)
    scope_findable: dict[str, set[str]] = field(default_factory=dict, repr=False, compare=False)
    implicit_targets: dict[str, tuple[frozenset[SymbolId], frozenset[str]]] = field(
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

    def edges_of(self, fqn: str) -> tuple[ExportEdge, ...]:
        """The `@exported` clauses of scope `fqn`'s parts, each once, in
        label order."""
        found = self.scope_edges.get(fqn)
        if found is None:
            edges = [edge for part in self.parts(fqn) for edge in self.exports[part]]
            found = self.scope_edges[fqn] = tuple(sorted(edges, key=ExportEdge.label))
        return found

    def findable(self, fqn: str) -> set[str]:
        """The FQNs of the members of scope `fqn` and of every scope its
        clauses lead to, transitively: what a closure path at `fqn` can
        still find, under whatever name. A least fixpoint, built for the
        scopes `fqn` reaches, each of which keeps its entry."""
        found = self.scope_findable.get(fqn)
        if found is None:
            order = [fqn]
            for scope in order:
                self.scope_findable[scope] = {sym.fqn for sym in self.scope_members(scope).values()}
                for edge in self.edges_of(scope):
                    if edge.resolved_target not in self.scope_findable:
                        self.scope_findable[edge.resolved_target] = set()
                        order.append(edge.resolved_target)
            size = -1  # until no entry grows
            while size != (size := sum(len(self.scope_findable[scope]) for scope in order)):
                for scope in reversed(order):
                    for edge in self.edges_of(scope):
                        self.scope_findable[scope] |= self.scope_findable[edge.resolved_target]
            found = self.scope_findable[fqn]
        return found

    @cached_property
    def known_as(self) -> dict[str, set[str]]:
        """Each name with the FQNs of the symbols a closure can make visible
        under it: those of that short name and, transitively, those of a
        name a selector renames to it. It does not depend on `inherits`."""
        known: dict[str, set[str]] = {}
        for sym in self.symbols.values():
            known.setdefault(sym.short_name(), set()).add(sym.fqn)
        tables = [edge.selectors.table for edges in self.exports.values() for edge in edges]
        renames = [(source, to) for table in tables for source, to in table.items() if to not in (None, source)]
        size = -1
        while size != (size := sum(map(len, known.values()))):
            for source, to in renames:
                known.setdefault(to, set()).update(known.get(source, ()))
        return known

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
    that yields the pair, then the lowest by edge labels. It is the union of
    what the clauses of each of `fqn`'s parts reach (`_own_closure`), where
    a pair keeps its lowest witness. The result is memoized on the graph.
    """
    closure = graph.closures.get(fqn)
    if closure is None:
        if fqn not in graph.symbols:
            raise KeyError(f"unknown scope: {fqn}")
        best: dict[tuple[str, str], _Witness] = {}
        for part in graph.parts(fqn):
            for key, found in _own_closure(graph, part).items():
                if key not in best or _rank(found[1]) < _rank(best[key][1]):
                    best[key] = found
        entries = (ClosureEntry(name, sym, path) for (name, _), (sym, path) in sorted(best.items()))
        closure = graph.closures[fqn] = ExportClosure(tuple(entries))
    return closure


def _rank(path: tuple[ExportEdge, ...]) -> tuple[int, list[str]]:
    return len(path), [edge.label() for edge in path]


# A combined selector filter: (wildcard, explicit map). A name in the map
# becomes its value (None hides it); any other name passes unchanged when
# wildcard is set and is hidden otherwise. An edge's map is its clause's
# table and may repeat the default; `_compose` returns normal maps (no such
# entry), so equal path filters have equal keys. Never mutated.
_Filter = tuple[bool, dict[str, "str | None"]]
_IDENTITY: _Filter = (True, {})


def _compose(outer: _Filter, inner: _Filter) -> _Filter:
    """The filter of a path extended by one edge: `inner` (the new edge's
    selectors) applies first, then `outer` (the path so far)."""
    outer_wild, outer_map = outer
    inner_wild, inner_map = inner
    if inner_wild and not inner_map:
        return outer
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


def _own_closure(graph: ScopeGraph, root: str) -> dict[tuple[str, str], _Witness]:
    """(visible name, symbol FQN) -> (symbol, witness) for what template
    `root`'s own `@exported` clauses reach, never entering `root` again
    (nor, for a package object, its package)."""
    witness = graph.own_closures.get(root)
    if witness is not None:
        return witness
    witness = graph.own_closures[root] = {}
    package = root.rpartition(".")[0]
    barred = {root, package} if graph.package_objects.get(package) == root else {root}
    # The (source, visible) states reached at each scope: those an explicit
    # map carried there, and, once a wildcard got there (`opened`), every
    # name as itself but the names its map decides.
    reached: dict[str, set[tuple[str, str]]] = {}
    opened: dict[str, set[str]] = {}
    # Breadth-first, each level in label order: the first path to reach a
    # state is its witness, so a later path carries only the states it
    # reaches first.
    frontier = [(_IDENTITY, sorted(graph.exports[root], key=ExportEdge.label), ())]
    while frontier:
        next_frontier = []
        for path_filter, edges, path in frontier:
            for edge in edges:
                target = edge.resolved_target
                if target in barred:
                    continue
                wild, names = _compose(path_filter, (edge.selectors.wildcard, edge.selectors.table))
                # A name under which `target` can find no symbol leads nowhere.
                findable, known = graph.findable(target), graph.known_as
                names = {name: names[name] for name in names if not findable.isdisjoint(known.get(name, ()))}
                states, unopened = reached.setdefault(target, set()), opened.get(target)
                if wild and unopened is not None:
                    # An earlier wildcard carried every name as itself but
                    # those its map decided: only these can be new so.
                    wild, names = False, names | {name: name for name in unopened - names.keys()}
                fresh = {
                    name: visible
                    for name, visible in names.items()
                    if visible is not None
                    and (name, visible) not in states
                    and (unopened is None or name != visible or name in unopened)
                }
                if wild:
                    opened[target] = set(names)
                    carried = dict.fromkeys(names) | fresh
                elif fresh:
                    carried = fresh
                else:
                    continue
                states.update(fresh.items())
                target_path = path + (edge,)
                members = graph.scope_members(target)
                if wild:
                    visible_syms = ((carried.get(name, name), sym) for name, sym in members.items())
                else:
                    visible_syms = ((visible, members.get(name)) for name, visible in carried.items())
                for visible, sym in visible_syms:
                    if visible is not None and sym is not None:
                        witness.setdefault((visible, sym.fqn), (sym, target_path))
                if not wild:
                    # A name whose every findable symbol has its witness
                    # leads nowhere new.
                    carried = {
                        name: visible
                        for name, visible in carried.items()
                        if any((visible, fqn) not in witness for fqn in known[name] & findable)
                    }
                    if not carried:
                        continue
                next_frontier.append(((wild, carried), graph.edges_of(target), target_path))
        frontier = next_frontier
    return witness


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
    # so `inherits` is acyclic. Only a template that an accepted link names
    # as a parent is anyone's ancestor, so only its links need the walk.
    parents = dict(link for unit in units for link in _resolve_parents(graph, unit))
    ancestors: set[str] = set()
    for tfqn, (unit_name, span, resolved) in parents.items():
        for parent in resolved:
            if parent == tfqn or tfqn in ancestors and tfqn in graph.linearized_parents(parent):
                message = f"parent {parent} of {tfqn} closes an inheritance cycle"
                graph.diagnostics.append(Diagnostic(E_CYCLIC_INHERITANCE, message, unit_name, span))
            else:
                graph.inherits[tfqn].append(parent)
                ancestors.add(parent)
    memos = (graph.closures, graph.own_closures, graph.scope_parts, graph.member_maps, graph.scope_edges)
    for memo in (*memos, graph.scope_findable, graph.implicit_targets):
        memo.clear()
    return graph


def _ensure_package(graph: ScopeGraph, path: ast.QualName, unit: ast.CompilationUnit) -> None:
    graph.package_members.setdefault("", [])
    for depth in range(1, len(path) + 1):
        fqn = ".".join(path[:depth])
        existing = graph.symbols.get(fqn)
        if existing is not None:
            if existing.kind != PACKAGE:
                message = f"package {fqn} collides with a {existing.kind} of the same name"
                graph.diagnostics.append(Diagnostic(E_DUPLICATE_SYMBOL, message, unit.source_name))
            continue
        sym = SymbolId(fqn, PACKAGE)
        graph.symbols[fqn] = sym
        graph.package_members[fqn] = []
        parent = ".".join(path[: depth - 1])
        graph.package_members.setdefault(parent, []).append(sym)


def _declare_symbol(graph: ScopeGraph, sym: SymbolId, decl, unit_name: str) -> bool:
    if sym.fqn in graph.symbols:
        message = f"{sym.fqn} is already defined"
        graph.diagnostics.append(Diagnostic(E_DUPLICATE_SYMBOL, message, unit_name, getattr(decl, "span", None)))
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
            message = f"import path {ast.dotted(clause.path)} does not name a template or package"
            graph.diagnostics.append(Diagnostic(E_UNRESOLVED_IMPORT_PATH, message, unit.source_name, clause.span))
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
    package, or "" for the builtins. `lookup` finds a symbol only under
    its short name, which keys every member map and starts every closure
    entry, or under a name that a selector, of this clause or of an
    `@exported` clause on the closure path, renamed it to."""

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
