"""Name resolution over a built scope graph.

Precedence, innermost first: locals, then the site's precedence list in
the order `scopes.import_positions` gives it (the enclosing template's
member tier, named selectors, wildcards, enclosing packages, builtins).
`scopes.lookup_qualified` walks that list for every reference that is not
a local. The implicit scan walks the list of a unit's top scope in the
same order.

Only this module decides what a local name means: it gives each local
reference the (depth, slot) of its binder (SICP §5.5.6) in the frames the
interpreter makes, one per def call (its parameters) and one per block that
declares something (its declarations, in statement order). The walker
carries the current template's precedence list and a stack of these
frames' scopes; nothing it derives is stored on the graph.
"""

from __future__ import annotations

from ml1 import ast
from ml1.diagnostics import (
    Diagnostic,
    Divergence,
    E_AMBIGUOUS,
    E_FORWARD_REFERENCE,
    E_UNRESOLVED,
)
from ml1.record import Record, field
from ml1.scopes import (
    DEF,
    TEMPLATE,
    VAL,
    ImportPosition,
    ScopeGraph,
    SymbolId,
    import_positions,
    lookup_qualified,
    template_fqn,
)
from ml1.tokens import Span


class LocalScope:
    """The locals of one run-time frame, name -> (symbol, slot, statement
    index or -1 for a parameter). A block local's scope is the whole block
    (SLS §6.11); a name declared twice means its last declaration."""

    def __init__(self, stats: tuple[ast.Stat, ...] = ()):
        self.locals: dict[str, tuple[SymbolId, int, int]] = {}
        self.stats = stats
        self.at = 0  # index of the block statement being resolved


class RefRecord(Record, frozen=True):
    unit: str
    span: Span
    name: str
    symbol: SymbolId | None


class Resolution(Record):
    per_reference: dict[int, SymbolId] = field(default_factory=dict)
    # The (depth, slot) of each local reference, keyed like `per_reference`.
    addresses: dict[int, tuple[int, int]] = field(default_factory=dict)
    records: list[RefRecord] = field(default_factory=list)
    erased_imports: list[tuple[str, ast.QualName, Span]] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def symbol_for(self, node: ast.Ref) -> SymbolId | None:
        return self.per_reference.get(id(node))


def resolve_units(graph: ScopeGraph, units: list[ast.CompilationUnit]) -> Resolution:
    resolution = Resolution()
    for unit in units:
        clauses = [*unit.top_imports(), *(s for tpl in unit.templates() for s in tpl.stats)]
        resolution.erased_imports += [
            (unit.source_name, s.path, s.span) for s in clauses if isinstance(s, ast.ImportClause) and s.annotations
        ]
        walker = _UnitWalker(graph, resolution, unit)
        for tpl in unit.templates():
            walker.walk_template(tpl)
    return resolution


def resolve_template(graph: ScopeGraph, unit: ast.CompilationUnit, tpl: ast.TemplateDef) -> Resolution:
    """The bindings of the references in template `tpl` of `unit`."""
    resolution = Resolution()
    _UnitWalker(graph, resolution, unit).walk_template(tpl)
    return resolution


class _UnitWalker:
    def __init__(self, graph: ScopeGraph, resolution: Resolution, unit: ast.CompilationUnit):
        self.graph = graph
        self.resolution = resolution
        self.unit = unit
        self.taken: set[str] = set()  # local FQNs given out in this unit
        self.positions: tuple[ImportPosition, ...] = ()  # the current template's
        self.scopes: list[LocalScope] = []  # one per enclosing run-time frame, innermost last

    def walk_template(self, tpl: ast.TemplateDef) -> None:
        tfqn = template_fqn(self.graph, self.unit, tpl)
        self.positions = import_positions(self.graph, self.unit, tfqn)
        for stat in tpl.stats:
            if isinstance(stat, ast.DefDecl):
                self.walk_def(stat, f"{tfqn}.{stat.name}" if tfqn else stat.name)
            elif not isinstance(stat, ast.ImportClause):
                self.walk_expr(stat, tfqn or "")

    def walk_def(self, decl: ast.DefDecl, owner: str) -> None:
        if decl.is_val:
            self.walk_expr(decl.body, owner)
            return
        params = LocalScope()
        for slot, name in enumerate(decl.params):
            params.locals[name] = (self._local_symbol(owner, name, VAL), slot, -1)
        self.scopes.append(params)
        self.walk_expr(decl.body, owner)
        self.scopes.pop()

    def _local_symbol(self, owner: str, name: str, kind: str) -> SymbolId:
        """A symbol for a new binder: `owner.name`, with a `#k` suffix when
        another binder of the unit has that FQN already."""
        fqn = candidate = f"{owner}.{name}"
        k = 2
        while candidate in self.taken:
            candidate = f"{fqn}#{k}"
            k += 1
        self.taken.add(candidate)
        return SymbolId(candidate, kind)

    def walk_expr(self, expr: ast.Expr, owner: str) -> None:
        if isinstance(expr, ast.Ref):
            self.resolve_ref(expr)
        elif isinstance(expr, ast.Block):
            self.walk_block(expr, owner)
        else:
            for child in ast.child_nodes(expr):
                self.walk_expr(child, owner)

    def walk_block(self, block: ast.Block, owner: str) -> None:
        # A block that declares nothing has no frame of its own.
        scope = LocalScope(block.stats)
        decls = [(i, stat) for i, stat in enumerate(block.stats) if isinstance(stat, ast.DefDecl)]
        for slot, (i, stat) in enumerate(decls):
            symbol = self._local_symbol(owner, stat.name, VAL if stat.is_val else DEF)
            scope.locals[stat.name] = (symbol, slot, i)
        if decls:
            self.scopes.append(scope)
        for i, stat in enumerate(block.stats):
            scope.at = i
            if isinstance(stat, ast.DefDecl):
                self.walk_def(stat, scope.locals[stat.name][0].fqn)
            else:
                self.walk_expr(stat, owner)
        if decls:
            self.scopes.pop()

    def resolve_ref(self, ref: ast.Ref) -> None:
        symbol, address, diag = self._resolve_parts(ref.parts, ref.span)
        if diag is not None:
            self.resolution.diagnostics.append(diag)
        record = RefRecord(self.unit.source_name, ref.span, ast.dotted(ref.parts), symbol)
        self.resolution.records.append(record)
        if symbol is not None:
            self.resolution.per_reference[id(ref)] = symbol
        if address is not None:
            self.resolution.addresses[id(ref)] = address

    def _local(self, name: str) -> tuple[int, LocalScope, tuple[SymbolId, int, int]] | None:
        """The innermost local `name`: its frame's depth, its scope, its entry."""
        for depth, scope in enumerate(reversed(self.scopes)):
            found = scope.locals.get(name)
            if found is not None:
                return depth, scope, found
        return None

    def _resolve_parts(
        self, parts: ast.QualName, span: Span
    ) -> tuple[SymbolId | None, tuple[int, int] | None, Diagnostic | None]:
        """The symbol `parts` names, its lexical address when it is a
        local, and the diagnostic when it names no single symbol."""
        found = self._local(parts[0])
        if found is not None:
            depth, scope, (symbol, slot, stat) = found
            # A reference to a local declared at or after its own statement
            # may not extend over a `val` (SLS §4, forward references).
            for over in scope.stats[scope.at : stat + 1]:
                if isinstance(over, ast.DefDecl) and over.is_val:
                    message = f"forward reference to {parts[0]} extends over the definition of val {over.name}"
                    return None, None, Diagnostic(E_FORWARD_REFERENCE, message, self.unit.source_name, span)
            if len(parts) > 1:  # a local is no package or template
                return None, None, self._unresolved(ast.dotted(parts), span)
            return symbol, (depth, slot), None
        hits, failed = lookup_qualified(self.graph, self.positions, parts)
        if len(hits) == 1:
            return hits[0], None, None
        if hits:
            return None, None, self._ambiguous(parts[failed], span, hits)
        return None, None, self._unresolved(ast.dotted(parts) if failed else parts[0], span)

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


class ImplicitCandidate(Record, frozen=True):
    symbol: SymbolId
    tier: str
    position: int


def _is_marker_implicit(graph: ScopeGraph, sym: SymbolId, marker_fqn: str) -> bool:
    if sym.kind != TEMPLATE:
        return False
    decl = graph.decls.get(sym.fqn)
    if not isinstance(decl, ast.TemplateDef) or not decl.is_implicit:
        return False
    return marker_fqn in graph.linearized_parents(sym.fqn)


def implicit_candidates(
    graph: ScopeGraph, unit: ast.CompilationUnit, marker_fqn: str
) -> list[ImplicitCandidate]:
    """Implicit objects extending `marker_fqn` visible at the unit's top
    scope, in the order of its precedence list (`scopes.import_positions`),
    highest precedence first; within one position ordered by FQN."""
    found: list[ImplicitCandidate] = []
    for position in import_positions(graph, unit):
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
