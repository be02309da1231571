"""A small source model for generated ml1 projects, and its canonical rendering.

The generators build units from these records instead of from `ml1.ast`, so
the oracles in `oracles.py` never depend on the code under test. Every
reference carries the symbol it must bind to and how it evaluates, which is
what the resolution and run oracles check against.

`render` writes text in the exact layout of `ml1.printer.pretty_print`, so a
unit that no rewriter touches must come back from `ml1 rewrite` byte for byte.
It can also write the lowered form `go.defer` produces and the upper-cased
form `demo.upper` produces, which is what `ml1 rewrite` must print for units
that import those rewriters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# How a reference evaluates at run time.
LOCAL = "local"  # a parameter, block val or nested def of the running def
BUILTIN = "builtin"
DEF = "def"  # a template member def, by symbol
VAL = "val"  # a template member val, by symbol
OBJECT = "object"  # a template or package; evaluates to its FQN

# Rendering modes, one per rewriter the generators use.
SOURCE = "source"
LOWERED = "lowered"  # go.defer
LOWERED_UPPER = "lowered-upper"  # compose(demo.upper, go.defer)


@dataclass(frozen=True)
class Str:
    value: str


@dataclass(frozen=True)
class Ref:
    text: str  # as written, possibly dotted
    symbol: str  # the FQN the resolver must bind it to
    how: str  # LOCAL, BUILTIN, DEF, VAL or OBJECT


@dataclass(frozen=True)
class Call:
    callee: Ref
    args: tuple


def builtin(name: str) -> Ref:
    return Ref(name, f"<builtin>.{name}", BUILTIN)


def call(callee: Ref, *args) -> Call:
    return Call(callee, tuple(args))


@dataclass(frozen=True)
class Val:
    name: str
    expr: object
    symbol: str


@dataclass
class Def:
    name: str
    params: tuple[str, ...]
    body: list  # Val, Def (nested), Defer, or an expression
    symbol: str

    def registers_defer(self) -> bool:
        return any(isinstance(stat, Defer) for stat in self.body)


@dataclass(frozen=True)
class Defer:
    body: tuple


@dataclass(frozen=True)
class Selectors:
    wildcard: bool
    names: tuple[tuple[str, str | None], ...] = ()  # (source, target or None to hide)

    def apply(self, name: str) -> str | None:
        for source, target in self.names:
            if source == name:
                return target
        return name if self.wildcard else None


WILDCARD = Selectors(True)


@dataclass(frozen=True)
class Import:
    path: str  # always the absolute FQN of a package or template
    selectors: Selectors
    exported: bool = False


@dataclass
class Template:
    kind: str  # "object", "trait" or "package object"
    name: str
    body: list = field(default_factory=list)  # Import, Val, Def or an expression
    parents: tuple[str, ...] = ()
    implicit: bool = False


@dataclass
class Unit:
    file: str
    package: str
    imports: list[Import] = field(default_factory=list)
    templates: list[Template] = field(default_factory=list)
    mode: str = SOURCE  # what `ml1 rewrite` does to it

    def template_fqn(self, tpl: Template) -> str:
        owned = f"{self.package}.{tpl.name}" if self.package else tpl.name
        return f"{owned}.package" if tpl.kind == "package object" else owned

    def member_prefix(self, tpl: Template) -> str:
        """Package-object members live in the package, not under `.package`."""
        if tpl.kind == "package object":
            return f"{self.package}.{tpl.name}" if self.package else tpl.name
        return self.template_fqn(tpl)


# Rendering --------------------------------------------------------------------


def selectors_text(sel: Selectors) -> str:
    if sel.wildcard and not sel.names:
        return "_"
    if not sel.wildcard and len(sel.names) == 1 and sel.names[0][0] == sel.names[0][1]:
        return sel.names[0][0]
    parts = []
    for source, target in sel.names:
        if target == source:
            parts.append(source)
        elif target is None:
            parts.append(f"{source} => _")
        else:
            parts.append(f"{source} => {target}")
    if sel.wildcard:
        parts.append("_")
    return "{" + ", ".join(parts) + "}"


@dataclass(frozen=True)
class RefSite:
    start: int
    end: int
    text: str
    symbol: str


class _Writer:
    def __init__(self, mode: str):
        self.mode = mode
        self.parts: list[str] = []
        self.pos = 0
        self.refs: list[RefSite] = []

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.pos += len(text)

    def line(self, depth: int, text: str = "") -> None:
        self.write("  " * depth + text + "\n")

    def indent(self, depth: int) -> None:
        self.write("  " * depth)

    def expr(self, expr) -> None:
        if isinstance(expr, Str):
            if any(ch in expr.value for ch in '"\\\n\t'):
                raise ValueError(f"generated strings need no escapes: {expr.value!r}")
            self.write(f'"{expr.value}"')
        elif isinstance(expr, Ref):
            start = self.pos
            self.write(expr.text)
            self.refs.append(RefSite(start, self.pos, expr.text, expr.symbol))
        elif isinstance(expr, Call):
            self.expr(expr.callee)
            self.write("(")
            for i, arg in enumerate(expr.args):
                if i:
                    self.write(", ")
                self.expr(arg)
            self.write(")")
        else:
            raise TypeError(f"not a generated expression: {expr!r}")

    def def_name(self, name: str) -> str:
        return name.upper() if self.mode == LOWERED_UPPER else name

    def stat(self, depth: int, stat) -> None:
        if isinstance(stat, Val):
            self.indent(depth)
            self.write(f"val {stat.name} = ")
            self.expr(stat.expr)
            self.write("\n")
        elif isinstance(stat, Def):
            self.define(depth, stat)
        elif isinstance(stat, Defer):
            lowered = self.mode != SOURCE
            self.line(depth, "__defer(thunk {" if lowered else "defer {")
            for inner in stat.body:
                self.stat(depth + 1, inner)
            self.line(depth, "})" if lowered else "}")
        else:
            self.indent(depth)
            self.expr(stat)
            self.write("\n")

    def define(self, depth: int, decl: Def) -> None:
        framed = self.mode != SOURCE and decl.registers_defer()
        opener = "__frame {" if framed else "{"
        self.line(depth, f"def {self.def_name(decl.name)}({', '.join(decl.params)}) = {opener}")
        for stat in decl.body:
            self.stat(depth + 1, stat)
        self.line(depth, "}")

    def import_line(self, depth: int, imp: Import) -> None:
        annotation = "@exported " if imp.exported else ""
        self.line(depth, f"{annotation}import {imp.path}.{selectors_text(imp.selectors)}")

    def unit(self, unit: Unit) -> None:
        started = False
        if unit.package:
            self.line(0, f"package {unit.package}")
            started = True
        for i, imp in enumerate(unit.imports):
            if i == 0 and unit.package:
                self.line(0)
            self.import_line(0, imp)
            started = True
        for tpl in unit.templates:
            if started:
                self.line(0)
            started = True
            head = "implicit " if tpl.implicit else ""
            head += f"{tpl.kind} {tpl.name}"
            if tpl.parents:
                head += " extends " + " with ".join(tpl.parents)
            self.line(0, head + " {")
            for stat in tpl.body:
                if isinstance(stat, Import):
                    self.import_line(1, stat)
                else:
                    self.stat(1, stat)
            self.line(0, "}")


def render(unit: Unit, mode: str = SOURCE) -> tuple[str, list[RefSite]]:
    """Source text of `unit` in canonical layout, and every reference in it
    with its character span."""
    writer = _Writer(mode)
    writer.unit(unit)
    text = "".join(writer.parts)
    return (text if text else "\n"), writer.refs
