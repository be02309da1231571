"""Import-activated whole-unit rewriting.

A unit that brings an implicit rewriter object into scope gets every one
of its templates transformed by that object's entry in `INTRINSICS`. A
bound rewriter is its chain: the intrinsic keys it applies, inner first.
`bind_rewriter(graph, unit)` scans a unit for the rewriter object its
imports bring into scope; `apply_rewriter(chain, unit)` runs the chain.
Rewriter objects whose body calls the builtin `compose(x, y)` chain two
rewriters, applying the second argument first; the call binds as
`resolve` binds it in a walk of the rewriter object alone.
"""

from __future__ import annotations

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
from ml1.record import Record, replace
from ml1.resolve import implicit_candidates, resolve_template
from ml1.scopes import BUILTINS, REWRITER_MARKER, TEMPLATE, ScopeGraph

DEFER_REWRITER = "go.defer.rewriter"
UPPER_REWRITER = "demo.upper.rewriter"

# Intrinsic keys in application order, inner first. Composing two chains
# concatenates them; the identity rewriter is `()`.
Chain = tuple[str, ...]


def bind_rewriter(graph: ScopeGraph, unit: ast.CompilationUnit) -> Chain:
    """Pick the winning rewriter object visible at `unit`'s top scope and
    return its chain; no rewriter object at all means the empty chain."""
    found = implicit_candidates(graph, unit, REWRITER_MARKER)
    if len(found) > 1:
        raise SemanticError(
            Diagnostic(
                E_AMBIGUOUS_IMPLICIT,
                "several rewriters are visible at the same position",
                candidates=tuple(s.fqn for s in found),
            )
        )
    return _chain_for(graph, found[0].fqn, visiting=()) if found else ()


def _chain_for(graph: ScopeGraph, fqn: str, visiting: tuple[str, ...]) -> Chain:
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
        if fqn not in INTRINSICS:
            raise SemanticError(
                Diagnostic(
                    E_UNREGISTERED_REWRITER,
                    f"no intrinsic transformation is registered for {fqn}",
                )
            )
        return (fqn,)
    outer_fqn, inner_fqn = composition
    outer = _chain_for(graph, outer_fqn, visiting + (fqn,))
    return _chain_for(graph, inner_fqn, visiting + (fqn,)) + outer


def _composition_args(graph: ScopeGraph, fqn: str) -> tuple[str, str] | None:
    """The arguments of a call to the builtin `compose` in the rewriter
    object's body, either bare or as the sole statement of a member's body,
    as `resolve` binds them in that body."""
    decl = graph.decls[fqn]
    calls = []
    for stat in decl.stats:
        if isinstance(stat, ast.DefDecl):
            stat = stat.body
            if isinstance(stat, ast.Block) and len(stat.stats) == 1:
                stat = stat.stats[0]
        if isinstance(stat, ast.Call) and len(stat.args) == 2 and all(isinstance(a, ast.Ref) for a in stat.args):
            calls.append(stat)
    if not calls:
        return None
    unit = next(u for u in graph.units if any(stat is decl for stat in u.top_stats))
    resolution = resolve_template(graph, unit, decl)
    call = next((c for c in calls if resolution.symbol_for(c.callee) == BUILTINS["compose"]), None)
    if call is None:
        return None
    resolved = []
    for arg in call.args:
        sym = resolution.symbol_for(arg)
        if sym is None or sym.kind != TEMPLATE or REWRITER_MARKER not in graph.parts(sym.fqn)[1:]:
            raise SemanticError(
                Diagnostic(
                    E_UNREGISTERED_REWRITER,
                    f"compose argument {ast.dotted(arg.parts)} does not resolve to a rewriter object",
                    unit.source_name,
                    arg.span,
                )
            )
        resolved.append(sym.fqn)
    return resolved[0], resolved[1]


class RewriteReport(Record):
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


def apply_rewriter(chain: Chain, unit: ast.CompilationUnit) -> tuple[ast.CompilationUnit, RewriteReport]:
    """Run the chain over every template of the unit, in source order. A
    unit the chain leaves unchanged is returned as the same object."""
    report = RewriteReport(unit.source_name, list(chain))

    def rewrite(stat: ast.TopStat) -> ast.TopStat:
        if not isinstance(stat, ast.TemplateDef):
            return stat
        transformed = stat
        for key in chain:
            transformed = _run_intrinsic(key, transformed)
        replaced = _diff_count(stat, transformed)
        if not replaced:
            return stat
        report.templates_touched += 1
        report.nodes_replaced += replaced
        return transformed

    return ast.map_children(unit, rewrite), report


def _run_intrinsic(key: str, tpl: ast.TemplateDef) -> ast.TemplateDef:
    try:
        return INTRINSICS[key](tpl)
    except SemanticError as err:
        inner = err.diagnostic
        raise SemanticError(
            Diagnostic(
                E_REWRITE,
                f"{key} rejected {tpl.name}: {inner.code}: {inner.message}",
                inner.unit,
                inner.span,
            )
        ) from err


def _diff_count(before, after) -> int:
    """Number of maximal differing positions between two trees, over the
    values records compare; a changed scalar, a change of type or a child
    list of another length counts once and is not descended."""
    if before == after:
        return 0
    if type(before) is not type(after) or not isinstance(before, Record):
        return 1
    count = 0
    for a, b in zip(before._compared(before), after._compared(after)):
        if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
            count += sum(map(_diff_count, a, b))
        else:
            count += _diff_count(a, b)
    return count


# Built-in intrinsic: dynamic defer lowering ---------------------------------


def defer_lowering(tpl: ast.TemplateDef) -> ast.TemplateDef:
    """Replace each `defer { b }` with `__defer(thunk { b })`, and give every
    def that registered at least one a frame: its body becomes the
    `FrameExpr` `__frame { body }`, unless it already is one.

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
    # A def written as `__frame { ... }` keeps that frame: every defer in it
    # registers there, so a second frame would only add a nesting level.
    if hits and not isinstance(body, ast.FrameExpr):
        body = ast.FrameExpr(body, body.span)
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


# Host-side intrinsics keyed by the declaring implicit object's FQN; a host
# adds one by adding an entry, and each transformation must be pure.
INTRINSICS = {DEFER_REWRITER: defer_lowering, UPPER_REWRITER: uppercase_defs}
