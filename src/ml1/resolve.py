"""Name resolution over a built scope graph.

Precedence, innermost first: block bindings, then template members
(own, inherited, inherited re-exports), then the site's import positions
in the order `scopes.import_positions` gives them (named selectors,
wildcards, enclosing packages), then builtins. The implicit scan walks
the same positions in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ml1 import ast
from ml1.diagnostics import (
    Diagnostic,
    Divergence,
    E_AMBIGUOUS,
    E_UNRESOLVED,
)
from ml1.scopes import (
    DEF,
    TEMPLATE,
    VAL,
    ImportPosition,
    ScopeGraph,
    SymbolId,
    export_closure,
    import_lookup,
    import_positions,
    navigate,
    template_fqn_of,
    unit_positions,
)
from ml1.tokens import Span

BUILTIN_NAMES = ("print", "error", "concat", "add", "sub", "compose")
BUILTINS = {name: SymbolId(f"<builtin>.{name}", DEF) for name in BUILTIN_NAMES}

# A Hit's tier when no import position gave it; those tiers are
# `scopes.IMPORT_NAMED`, `scopes.IMPORT_WILDCARD` and `scopes.ENCLOSING_PACKAGE`.
TIER_LOCAL = "local"
TIER_MEMBER = "member"
TIER_BUILTIN = "builtin"


@dataclass
class Site:
    """Where a reference occurs: its enclosing template, the import
    positions in scope (`scopes.import_positions`), and the chain of local
    scopes from outermost to innermost."""

    template: str | None
    positions: tuple[ImportPosition, ...]
    locals_chain: tuple[dict[str, SymbolId], ...] = ()

    def with_scope(self, bindings: dict[str, SymbolId]) -> "Site":
        return Site(self.template, self.positions, self.locals_chain + (bindings,))


def template_site(
    graph: ScopeGraph,
    unit: ast.CompilationUnit,
    tfqn: str,
    decl: ast.TemplateDef | None = None,
) -> Site:
    if decl is None:
        found = graph.decls.get(tfqn)
        decl = found if isinstance(found, ast.TemplateDef) else None
    clauses = list(unit.top_imports())
    if decl is not None:
        clauses += [s for s in decl.stats if isinstance(s, ast.ImportClause)]
    return Site(tfqn, import_positions(graph, clauses, unit.package_path))


@dataclass(frozen=True)
class Hit:
    symbols: tuple[SymbolId, ...]
    tier: str

    @property
    def symbol(self) -> SymbolId | None:
        return self.symbols[0] if len(self.symbols) == 1 else None


def resolve_name(graph: ScopeGraph, site: Site, name: str) -> Hit | None:
    """Resolve a single identifier at `site`. None means not found; a Hit
    with several symbols means the winning position was ambiguous."""
    for scope in reversed(site.locals_chain):
        if name in scope:
            return Hit((scope[name],), TIER_LOCAL)
    if site.template is not None:
        hit = _member_lookup(graph, site.template, name)
        if hit is not None:
            return hit
    found = import_lookup(graph, site.positions, name)
    if found is not None:
        return Hit(*found)
    if name in BUILTINS:
        return Hit((BUILTINS[name],), TIER_BUILTIN)
    return None


def _member_lookup(graph: ScopeGraph, tfqn: str, name: str) -> Hit | None:
    own = graph.template_members(tfqn).get(name)
    if own is not None:
        return Hit((own,), TIER_MEMBER)
    parents = graph.linearized_parents(tfqn)
    for parent in parents:
        inherited = graph.template_members(parent).get(name)
        if inherited is not None:
            return Hit((inherited,), TIER_MEMBER)
    for parent in parents:
        matches = export_closure(graph, parent).lookup(name)
        if matches:
            return Hit(matches, TIER_MEMBER)
    return None


@dataclass(frozen=True)
class RefRecord:
    unit: str
    span: Span
    name: str
    symbol: SymbolId | None


@dataclass
class Resolution:
    per_reference: dict[int, SymbolId] = field(default_factory=dict)
    records: list[RefRecord] = field(default_factory=list)
    erased_imports: list[tuple[str, ast.QualName, Span]] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def symbol_for(self, node: ast.Ref) -> SymbolId | None:
        return self.per_reference.get(id(node))

    def table(self) -> list[tuple[str, int, int, str, str]]:
        """Flat deterministic view: (unit, start, end, name, fqn)."""
        return [
            (r.unit, r.span.start, r.span.end, r.name, r.symbol.fqn)
            for r in self.records
            if r.symbol is not None
        ]


def resolve_units(graph: ScopeGraph, units: list[ast.CompilationUnit]) -> Resolution:
    resolution = Resolution()
    for unit in units:
        _UnitWalker(graph, resolution, unit).walk()
    return resolution


class _UnitWalker:
    def __init__(self, graph: ScopeGraph, resolution: Resolution, unit: ast.CompilationUnit):
        self.graph = graph
        self.resolution = resolution
        self.unit = unit

    def walk(self) -> None:
        for clause in self.unit.top_imports():
            if clause.annotations:
                self.resolution.erased_imports.append(
                    (self.unit.source_name, clause.path, clause.span)
                )
        for tpl in self.unit.templates():
            tfqn = self._template_fqn(tpl)
            site = (
                template_site(self.graph, self.unit, tfqn, tpl)
                if tfqn
                else Site(None, unit_positions(self.graph, self.unit))
            )
            for stat in tpl.stats:
                if isinstance(stat, ast.ImportClause):
                    if stat.annotations:
                        self.resolution.erased_imports.append(
                            (self.unit.source_name, stat.path, stat.span)
                        )
                elif isinstance(stat, ast.DefDecl):
                    owner = f"{tfqn}.{stat.name}" if tfqn else stat.name
                    self.walk_def(stat, site, owner)
                else:
                    self.walk_expr(stat, site, tfqn or "")

    def _template_fqn(self, tpl: ast.TemplateDef) -> str | None:
        fqn = template_fqn_of(self.unit, tpl)
        return fqn if fqn in self.graph.symbols else None

    def walk_def(self, decl: ast.DefDecl, site: Site, owner: str) -> None:
        if decl.is_val:
            self.walk_expr(decl.body, site, owner)
            return
        params = {p: self._local_symbol(site, owner, p, VAL) for p in decl.params}
        body_site = site.with_scope(params)
        self.walk_expr(decl.body, body_site, owner)

    def _local_symbol(self, site: Site, owner: str, name: str, kind: str) -> SymbolId:
        fqn = f"{owner}.{name}"
        taken = {sym.fqn for scope in site.locals_chain for sym in scope.values()}
        k = 2
        candidate = fqn
        while candidate in taken:
            candidate = f"{fqn}#{k}"
            k += 1
        return SymbolId(candidate, kind)

    def walk_expr(self, expr: ast.Expr, site: Site, owner: str) -> None:
        if isinstance(expr, ast.Ref):
            self.resolve_ref(expr, site)
        elif isinstance(expr, ast.Block):
            self.walk_block(expr, site, owner)
        else:
            for child in ast.child_nodes(expr):
                self.walk_expr(child, site, owner)

    def walk_block(self, block: ast.Block, site: Site, owner: str) -> None:
        bindings: dict[str, SymbolId] = {}
        inner = site.with_scope(bindings)
        for stat in block.stats:
            if isinstance(stat, ast.DefDecl):
                kind = VAL if stat.is_val else DEF
                bindings[stat.name] = self._local_symbol(site, owner, stat.name, kind)
        for stat in block.stats:
            if isinstance(stat, ast.DefDecl):
                self.walk_def(stat, inner, bindings[stat.name].fqn)
            else:
                self.walk_expr(stat, inner, owner)

    def resolve_ref(self, ref: ast.Ref, site: Site) -> None:
        symbol, diag = self._resolve_parts(ref.parts, ref.span, site)
        if diag is not None:
            self.resolution.diagnostics.append(diag)
        record = RefRecord(self.unit.source_name, ref.span, ast.dotted(ref.parts), symbol)
        self.resolution.records.append(record)
        if symbol is not None:
            self.resolution.per_reference[id(ref)] = symbol

    def _resolve_parts(
        self, parts: ast.QualName, span: Span, site: Site
    ) -> tuple[SymbolId | None, Diagnostic | None]:
        hit = resolve_name(self.graph, site, parts[0])
        if hit is None:
            return None, self._unresolved(parts[0], span)
        if hit.symbol is None:
            return None, self._ambiguous(parts[0], span, hit.symbols)
        hits, failed = navigate(self.graph, hit.symbol, parts[1:])
        if failed is None:
            return hits[0], None
        if hits:
            return None, self._ambiguous(failed, span, hits)
        return None, self._unresolved(ast.dotted(parts), span)

    def _unresolved(self, name: str, span: Span) -> Diagnostic:
        return Diagnostic(
            E_UNRESOLVED, f"{name} is not in scope", self.unit.source_name, span
        )

    def _ambiguous(self, name: str, span: Span, symbols: tuple[SymbolId, ...]) -> Diagnostic:
        return Diagnostic(
            E_AMBIGUOUS,
            f"{name} is provided by several symbols",
            self.unit.source_name,
            span,
            candidates=tuple(sorted(s.fqn for s in symbols)),
        )


def erase_import_annotations(units: list[ast.CompilationUnit]) -> list[ast.CompilationUnit]:
    """Strip annotations from every import clause; the scope graph already
    carries their meaning. Idempotent."""
    return [ast.strip_import_annotations(unit) for unit in units]


# Implicit-object scanning ----------------------------------------------------


@dataclass(frozen=True)
class ImplicitCandidate:
    symbol: SymbolId
    tier: str
    position: int


def _is_marker_implicit(graph: ScopeGraph, sym: SymbolId, marker_fqn: str) -> bool:
    if sym.kind != TEMPLATE:
        return False
    decl = graph.decls.get(sym.fqn)
    if not isinstance(decl, ast.TemplateDef) or not decl.is_implicit:
        return False
    return marker_fqn in graph.ancestors(sym.fqn)


def implicit_candidates(
    graph: ScopeGraph, unit: ast.CompilationUnit, marker_fqn: str
) -> list[ImplicitCandidate]:
    """Implicit objects extending `marker_fqn` visible at the unit's top
    scope, in the order of its import positions (`scopes.unit_positions`),
    highest precedence first; within one position ordered by FQN."""
    found: list[ImplicitCandidate] = []
    for position in unit_positions(graph, unit):
        symbols = {
            sym
            for name in position.names(graph)
            for sym in position.lookup(graph, name)
            if _is_marker_implicit(graph, sym, marker_fqn)
        }
        found += (
            ImplicitCandidate(sym, position.tier, position.index)
            for sym in sorted(symbols, key=lambda s: s.fqn)
        )
    return found


def select_implicit(
    candidates: list[ImplicitCandidate],
) -> tuple[SymbolId | None, tuple[SymbolId, ...]]:
    """Apply the selection policy to candidates in precedence order: the
    first candidate's position wins. Returns (winner, tied): several
    distinct symbols at the winning position tie, and the winner is None."""
    if not candidates:
        return None, ()
    first = candidates[0]
    winners = sorted(
        {c.symbol for c in candidates if (c.tier, c.position) == (first.tier, first.position)},
        key=lambda s: s.fqn,
    )
    if len(winners) == 1:
        return winners[0], ()
    return None, tuple(winners)


def check_context_consistency(
    graph: ScopeGraph, units: list[ast.CompilationUnit], marker_fqn: str
) -> list[Divergence]:
    """Pairs of units whose winning implicit provider for `marker_fqn`
    differs. A unit with no winner (none visible, or a tie) contributes no
    pair; an empty result means the project is consistent."""
    winners: list[tuple[str, SymbolId]] = []
    for unit in sorted(units, key=lambda u: u.source_name):
        winner, _tied = select_implicit(implicit_candidates(graph, unit, marker_fqn))
        if winner is not None:
            winners.append((unit.source_name, winner))
    divergences: list[Divergence] = []
    for i in range(len(winners)):
        for j in range(i + 1, len(winners)):
            unit_a, sym_a = winners[i]
            unit_b, sym_b = winners[j]
            if sym_a != sym_b:
                divergences.append(
                    Divergence(marker_fqn, unit_a, unit_b, sym_a.fqn, sym_b.fqn)
                )
    return divergences
