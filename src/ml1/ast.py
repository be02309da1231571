"""Syntax tree for ml1 compilation units.

All nodes are frozen records (`ml1.record`). Spans (and unit source
names) are excluded from equality so that two trees compare structurally:
a unit is equal to the result of parsing its own pretty-printed form.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, Union

from ml1.record import Record, field, fields, replace
from ml1.tokens import Span

NO_SPAN = Span(0, 0)

QualName = tuple[str, ...]

OBJECT = "object"
TRAIT = "trait"
PACKAGE_OBJECT = "packageObject"

HIDDEN = None  # selector target for the `name => _` hide form


def dotted(parts: QualName) -> str:
    return ".".join(parts)


class Selector(Record, frozen=True):
    """One name filter of an import clause.

    target is the visible name, HIDDEN (None) for `source => _`, and equal
    to source for the plain form.
    """

    source: str
    target: str | None


class ImportSelectors(Record, frozen=True):
    """Selector part of an import: a bare wildcard, or a named list with an
    optional trailing wildcard."""

    wildcard: bool
    names: tuple[Selector, ...] = ()

    @cached_property
    def table(self) -> dict[str, str | None]:
        """Each name a selector decides, with the name it becomes visible
        as (None hides it), built once per clause. The first selector of a
        name decides. Beside a wildcard, a rename's new name that no selector
        names as a source is hidden (SLS §4.7): in `{a => b, _}`, `b` means
        `a` only."""
        table: dict[str, str | None] = {}
        for sel in self.names:
            table.setdefault(sel.source, sel.target)
        if self.wildcard:
            for sel in self.names:
                if sel.target:
                    table.setdefault(sel.target, None)
        return table

    def apply(self, name: str) -> str | None:
        """Visible name this filter gives `name`, or None when filtered out."""
        return self.table.get(name, name if self.wildcard else None)


WILDCARD = ImportSelectors(wildcard=True)


class IntLit(Record, frozen=True):
    value: int
    span: Span = field(default=NO_SPAN, compare=False)


class StrLit(Record, frozen=True):
    value: str
    span: Span = field(default=NO_SPAN, compare=False)


class Ref(Record, frozen=True):
    parts: QualName
    span: Span = field(default=NO_SPAN, compare=False)


class Call(Record, frozen=True):
    callee: "Expr"
    args: tuple["Expr", ...]
    span: Span = field(default=NO_SPAN, compare=False)


class Block(Record, frozen=True):
    stats: tuple["Stat", ...]
    span: Span = field(default=NO_SPAN, compare=False)


class DeferCandidate(Record, frozen=True):
    """Surface `defer { ... }`. Carries no semantics until a rewriter
    assigns one."""

    body: Block
    span: Span = field(default=NO_SPAN, compare=False)


class FrameExpr(Record, frozen=True):
    """`__frame { ... }`: runs the body under a fresh deferred-thunk frame."""

    body: Block
    span: Span = field(default=NO_SPAN, compare=False)


class ThunkExpr(Record, frozen=True):
    """`thunk { ... }`: evaluates to a delayed body closing over the
    current environment."""

    body: Block
    span: Span = field(default=NO_SPAN, compare=False)


class DeferRegister(Record, frozen=True):
    """`__defer(thunk { ... })`: pushes the thunk onto the innermost frame."""

    thunk: ThunkExpr
    span: Span = field(default=NO_SPAN, compare=False)


Expr = Union[IntLit, StrLit, Ref, Call, Block, DeferCandidate, FrameExpr, ThunkExpr, DeferRegister]


class DefDecl(Record, frozen=True):
    name: str
    params: tuple[str, ...]
    body: Expr  # a def's Block, or its FrameExpr for `= __frame { ... }`; any expression for vals
    is_val: bool
    span: Span = field(default=NO_SPAN, compare=False)


Stat = Union[DefDecl, Expr]


class ImportClause(Record, frozen=True):
    annotations: tuple[str, ...]
    path: QualName
    selectors: ImportSelectors
    span: Span = field(default=NO_SPAN, compare=False)


class TemplateDef(Record, frozen=True):
    kind: str  # OBJECT | TRAIT | PACKAGE_OBJECT
    name: str
    parents: tuple[QualName, ...]
    stats: tuple["TemplateStat", ...]
    is_implicit: bool = False
    span: Span = field(default=NO_SPAN, compare=False)


TemplateStat = Union[ImportClause, DefDecl, Expr]
TopStat = Union[ImportClause, TemplateDef]


class CompilationUnit(Record, frozen=True):
    package_path: QualName
    top_stats: tuple[TopStat, ...]
    source_name: str = field(default="<unit>", compare=False)

    def templates(self) -> Iterator[TemplateDef]:
        for stat in self.top_stats:
            if isinstance(stat, TemplateDef):
                yield stat

    def top_imports(self) -> Iterator[ImportClause]:
        for stat in self.top_stats:
            if isinstance(stat, ImportClause):
                yield stat


# Which fields of each node hold its children, in source order. A child
# field holds one node or a tuple of nodes. Every node class has an entry;
# leaves have an empty one.
CHILD_FIELDS: dict[type, tuple[str, ...]] = {
    IntLit: (),
    StrLit: (),
    Ref: (),
    Call: ("callee", "args"),
    Block: ("stats",),
    DeferCandidate: ("body",),
    FrameExpr: ("body",),
    ThunkExpr: ("body",),
    DeferRegister: ("thunk",),
    DefDecl: ("body",),
    ImportClause: (),
    TemplateDef: ("stats",),
    CompilationUnit: ("top_stats",),
}


def child_nodes(node) -> Iterator[object]:
    """Direct AST children of a node, in source order."""
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if type(value) is tuple:
            yield from value
        else:
            yield value


def map_children(node, fn):
    """`node` with `fn` applied to each direct child, in source order. When
    `fn` returns every child itself, the result is `node` itself."""
    changes = {}
    for name in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if type(value) is tuple:
            new = tuple(fn(child) for child in value)
            if any(a is not b for a, b in zip(new, value)):
                changes[name] = new
        else:
            new = fn(value)
            if new is not value:
                changes[name] = new
    return replace(node, **changes) if changes else node


def walk(node) -> Iterator[object]:
    """The node and all its descendants, depth-first."""
    yield node
    for child in child_nodes(node):
        yield from walk(child)


def strip_import_annotations(unit: CompilationUnit) -> CompilationUnit:
    """Copy of `unit` with annotations removed from every import clause."""

    def strip(node):
        if isinstance(node, ImportClause):
            return replace(node, annotations=()) if node.annotations else node
        if isinstance(node, (CompilationUnit, TemplateDef)):
            return map_children(node, strip)
        return node  # imports occur only at unit and template level

    return strip(unit)


def _camel(name: str) -> str:
    if name == "kind":  # the node-kind key is reserved for the type name
        return "templateKind"
    head, *rest = name.split("_")
    return head + "".join(part.capitalize() for part in rest)


def to_dict(node) -> object:
    """Deterministic JSON-ready form: kind first, then span, then fields in
    declaration order (camelCased)."""
    if isinstance(node, tuple):
        return [to_dict(item) for item in node]
    if not isinstance(node, Record):
        return node
    out: dict[str, object] = {"kind": type(node).__name__}
    span = getattr(node, "span", None)
    if isinstance(span, Span):
        out["span"] = to_dict(span)
    for f in fields(node):
        if f.name == "span":
            continue
        out[_camel(f.name)] = to_dict(getattr(node, f.name))
    return out
