"""Import-activated whole-unit rewriting.

A unit that brings an implicit rewriter object into scope gets every one
of its templates transformed by the matching host-registered intrinsic.
Rewriter objects whose body names `compose(x, y)` chain two rewriters,
applying the second argument first.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from ml1 import ast
from ml1.diagnostics import (
    Diagnostic,
    E_AMBIGUOUS_IMPLICIT,
    E_DEFER_OUTSIDE_METHOD,
    E_REWRITE,
    E_REWRITER_CYCLE,
    E_UNREGISTERED_REWRITER,
    SemanticError,
)
from ml1.resolve import ImplicitCandidate, select_implicit
from ml1.scopes import REWRITER_MARKER, ScopeGraph, lookup_at_unit_scope

DEFER_REWRITER = "go.defer.rewriter"
UPPER_REWRITER = "demo.upper.rewriter"


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Intrinsic:
    key: str


@dataclass(frozen=True)
class Composed:
    outer: "RewriterRef"
    inner: "RewriterRef"


RewriterRef = Identity | Intrinsic | Composed

IDENTITY = Identity()


def compose_rewriters(outer: RewriterRef, inner: RewriterRef) -> RewriterRef:
    return Composed(outer, inner)


def chain_of(ref: RewriterRef) -> list[str]:
    """Intrinsic keys in application order (inner first)."""
    if isinstance(ref, Identity):
        return []
    if isinstance(ref, Intrinsic):
        return [ref.key]
    return chain_of(ref.inner) + chain_of(ref.outer)


class RewriterRegistry:
    """Host-side intrinsics keyed by the declaring implicit object's FQN.
    Registration is write-once; transformation functions must be pure."""

    def __init__(self):
        self._table: dict[str, object] = {}

    def register(self, key: str, fn) -> None:
        if key in self._table:
            raise ValueError(f"rewriter {key} is already registered")
        self._table[key] = fn

    def __contains__(self, key: str) -> bool:
        return key in self._table

    def get(self, key: str):
        return self._table[key]


def builtin_registry() -> RewriterRegistry:
    registry = RewriterRegistry()
    registry.register(DEFER_REWRITER, defer_lowering)
    registry.register(UPPER_REWRITER, uppercase_defs)
    return registry


def bind_rewriter(
    graph: ScopeGraph,
    candidates: list[ImplicitCandidate],
    registry: RewriterRegistry,
) -> RewriterRef:
    """Pick the winning rewriter object for a unit and map it to a
    RewriterRef; no candidate at all means Identity."""
    winner, tied = select_implicit(candidates)
    if tied:
        raise SemanticError(
            Diagnostic(
                E_AMBIGUOUS_IMPLICIT,
                "several rewriters are visible at the same position",
                candidates=tuple(s.fqn for s in tied),
            )
        )
    if winner is None:
        return IDENTITY
    return _ref_for(graph, winner.fqn, registry, visiting=())


def _ref_for(graph: ScopeGraph, fqn: str, registry: RewriterRegistry, visiting: tuple[str, ...]) -> RewriterRef:
    if fqn in visiting:
        raise SemanticError(
            Diagnostic(
                E_REWRITER_CYCLE,
                f"rewriter composition cycles through {fqn}",
                candidates=visiting + (fqn,),
            )
        )
    composition = _composition_args(graph, fqn)
    if composition is None:
        if fqn not in registry:
            raise SemanticError(
                Diagnostic(
                    E_UNREGISTERED_REWRITER,
                    f"no intrinsic transformation is registered for {fqn}",
                )
            )
        return Intrinsic(fqn)
    outer_fqn, inner_fqn = composition
    return Composed(
        _ref_for(graph, outer_fqn, registry, visiting + (fqn,)),
        _ref_for(graph, inner_fqn, registry, visiting + (fqn,)),
    )


def _composition_args(graph: ScopeGraph, fqn: str) -> tuple[str, str] | None:
    """A `compose(x, y)` statement in the rewriter object's body, either
    bare or as the sole statement of a member's body."""
    decl = graph.decls.get(fqn)
    if not isinstance(decl, ast.TemplateDef):
        return None
    unit_name = graph.owner_unit.get(fqn)

    def match(expr: ast.Expr) -> tuple[str, str] | None:
        if (
            isinstance(expr, ast.Call)
            and expr.callee.parts == ("compose",)
            and len(expr.args) == 2
            and all(isinstance(a, ast.Ref) for a in expr.args)
        ):
            resolved = []
            for arg in expr.args:
                sym = _resolve_rewriter_arg(graph, fqn, arg.parts)
                if sym is None:
                    raise SemanticError(
                        Diagnostic(
                            E_UNREGISTERED_REWRITER,
                            f"compose argument {ast.dotted(arg.parts)} does not resolve"
                            f" to a rewriter object",
                            unit_name,
                            arg.span,
                        )
                    )
                resolved.append(sym)
            return resolved[0], resolved[1]
        return None

    for stat in decl.stats:
        if isinstance(stat, ast.DefDecl):
            stat = stat.body
            if isinstance(stat, ast.Block) and len(stat.stats) == 1:
                stat = stat.stats[0]
        hit = match(stat)  # None for anything but a call
        if hit is not None:
            return hit
    return None


def _resolve_rewriter_arg(graph: ScopeGraph, owner_fqn: str, parts: ast.QualName) -> str | None:
    # Compose arguments resolve in the scope of the unit that declares the
    # rewriter object, not the importing unit.
    unit = graph.units_by_name.get(graph.owner_unit.get(owner_fqn, ""))
    if unit is None:
        return None
    sym = lookup_at_unit_scope(graph, unit, parts)
    if sym is None or sym.kind != "template":
        return None
    if REWRITER_MARKER not in graph.linearized_parents(sym.fqn):
        return None
    return sym.fqn


@dataclass
class RewriteReport:
    unit: str
    chain: list[str]
    templates_touched: int = 0
    nodes_replaced: int = 0

    def as_dict(self) -> dict:
        return {
            "unit": self.unit,
            "chain": self.chain,
            "templatesTouched": self.templates_touched,
            "nodesReplaced": self.nodes_replaced,
        }


def apply_rewriter(
    ref: RewriterRef, unit: ast.CompilationUnit, registry: RewriterRegistry
) -> tuple[ast.CompilationUnit, RewriteReport]:
    """Run the bound rewriter over every template of the unit, in source
    order. Identity returns the unit object unchanged."""
    chain = chain_of(ref)
    report = RewriteReport(unit.source_name, chain)
    if not chain:
        return unit, report
    new_top: list[ast.TopStat] = []
    changed = False
    for stat in unit.top_stats:
        if isinstance(stat, ast.TemplateDef):
            transformed = stat
            for key in chain:
                transformed = _run_intrinsic(registry, key, transformed, unit.source_name)
            if transformed != stat:
                report.templates_touched += 1
                report.nodes_replaced += _diff_count(stat, transformed)
                changed = True
            new_top.append(transformed)
        else:
            new_top.append(stat)
    if not changed:
        return unit, report
    return replace(unit, top_stats=tuple(new_top)), report


def _run_intrinsic(registry: RewriterRegistry, key: str, tpl: ast.TemplateDef, unit_name: str) -> ast.TemplateDef:
    try:
        return registry.get(key)(tpl)
    except SemanticError as err:
        inner = err.diagnostic
        raise SemanticError(
            Diagnostic(
                E_REWRITE,
                f"{key} rejected {tpl.name}: {inner.code}: {inner.message}",
                inner.unit or unit_name,
                inner.span,
            )
        ) from err


def _diff_count(before, after) -> int:
    """Number of maximal differing positions between two trees; a changed
    scalar field or reshaped child list counts once and is not descended."""
    if before == after:
        return 0
    if type(before) is not type(after):
        return 1
    if not hasattr(before, "__dataclass_fields__"):
        return 1
    count = 0
    for f in fields(before):
        if f.compare is False:
            continue
        a, b = getattr(before, f.name), getattr(after, f.name)
        if a == b:
            continue
        if isinstance(a, tuple) and isinstance(b, tuple):
            if len(a) != len(b):
                count += 1
                continue
            for x, y in zip(a, b):
                count += _diff_count(x, y)
        elif hasattr(a, "__dataclass_fields__") and type(a) is type(b):
            count += _diff_count(a, b)
        else:
            count += 1
    return count


# Built-in intrinsic: dynamic defer lowering ---------------------------------


def defer_lowering(tpl: ast.TemplateDef) -> ast.TemplateDef:
    """Replace each `defer { b }` with `__defer(thunk { b })` and wrap the
    body of every def that registered at least one with `__frame`.

    Defers are judged per def: a nested def gets its own frame, while
    block-local vals register on the enclosing def. A defer with no
    enclosing def (template statement or template-level val) has no method
    scope to attach to.
    """
    return ast.map_children(tpl, lambda stat: _lower(stat, None))


def _lower(node, hits: list[ast.DeferCandidate] | None):
    """Lower the defers under `node`, collecting those that register on the
    enclosing def in `hits`; None means there is no enclosing def."""
    if isinstance(node, ast.DeferCandidate):
        if hits is None:
            raise SemanticError(
                Diagnostic(
                    E_DEFER_OUTSIDE_METHOD,
                    "defer used outside any def; there is no method scope to leave",
                    span=node.span,
                )
            )
        hits.append(node)
        thunk = ast.ThunkExpr(_lower(node.body, hits), node.span)
        return ast.DeferRegister(thunk, node.span)
    if isinstance(node, ast.DefDecl) and not node.is_val:
        return _lower_def(node)
    return ast.map_children(node, lambda child: _lower(child, hits))


def _lower_def(decl: ast.DefDecl) -> ast.DefDecl:
    hits: list[ast.DeferCandidate] = []
    body = _lower(decl.body, hits)
    if hits and isinstance(body, ast.Block):
        body = ast.Block((ast.FrameExpr(body, body.span),), body.span)
    return decl if body is decl.body else replace(decl, body=body)


# Built-in intrinsic: a trivially observable second rewriter -----------------


def uppercase_defs(tpl: ast.TemplateDef) -> ast.TemplateDef:
    """Rename every def (not val) to its upper-cased name."""

    def rename(node):
        node = ast.map_children(node, rename)
        if isinstance(node, ast.DefDecl) and not node.is_val and node.name != node.name.upper():
            return replace(node, name=node.name.upper())
        return node

    return rename(tpl)
