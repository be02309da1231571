"""Independent oracles for the benchmark's generated projects.

Everything here reads the generator's own model (`model.py`), never ml1's
output or ml1's code:

- closure pairs: (visible name, symbol) reachable through `@exported`
  imports, by enumerating simple edge paths over the model's graph;
- run traces: a direct evaluator over the model, whose deferred thunks live
  on a list used as a stack;
- lint: the winning `Context` provider each unit was generated with, paired
  the way `ml1 lint` reports divergences.
"""

from __future__ import annotations

from dataclasses import dataclass

import model as m

INJECTED_MARKER = "DefaultRewriter"  # the host adds this trait when no unit does


class ScopeModel:
    """Packages, templates, members and export edges of a set of units."""

    def __init__(self, units: list[m.Unit]):
        self.packages: set[str] = {""}
        self.package_members: dict[str, dict[str, str]] = {"": {}}
        self.package_objects: dict[str, str] = {}
        self.members: dict[str, dict[str, str]] = {}
        self.edges: dict[str, list[tuple[str, m.Selectors]]] = {}
        self.defs: dict[str, m.Def] = {}
        self.vals: dict[str, m.Val] = {}
        for unit in units:
            self._package(unit.package)
            for tpl in unit.templates:
                tfqn = unit.template_fqn(tpl)
                if tpl.kind == "package object":
                    owned = unit.member_prefix(tpl)
                    self._package(owned)
                    self.package_objects[owned] = tfqn
                else:
                    self.package_members[unit.package][tpl.name] = tfqn
                prefix = unit.member_prefix(tpl)
                self.members[tfqn] = {}
                self.edges[tfqn] = []
                for stat in tpl.body:
                    if isinstance(stat, (m.Def, m.Val)):
                        symbol = f"{prefix}.{stat.name}"
                        if symbol in self.defs or symbol in self.vals:
                            raise ValueError(f"generator collision on {symbol}")
                        self.members[tfqn][stat.name] = symbol
                        (self.defs if isinstance(stat, m.Def) else self.vals)[symbol] = stat
                    elif isinstance(stat, m.Import) and stat.exported:
                        self.edges[tfqn].append((stat.path, stat.selectors))
        if INJECTED_MARKER not in self.members:
            self.package_members[""][INJECTED_MARKER] = INJECTED_MARKER
            self.members[INJECTED_MARKER] = {}
            self.edges[INJECTED_MARKER] = []

    def _package(self, fqn: str) -> None:
        parts = fqn.split(".") if fqn else []
        for depth in range(1, len(parts) + 1):
            pkg = ".".join(parts[:depth])
            if pkg not in self.packages:
                self.packages.add(pkg)
                self.package_members[pkg] = {}
                self.package_members[".".join(parts[: depth - 1])][parts[depth - 1]] = pkg

    def templates(self) -> list[str]:
        return sorted(self.members)

    def scope_members(self, fqn: str) -> dict[str, str]:
        if fqn in self.packages:
            out = dict(self.package_members[fqn])
            if fqn in self.package_objects:
                out.update(self.members[self.package_objects[fqn]])
            return out
        return dict(self.members.get(fqn, {}))

    def edges_of(self, fqn: str) -> list[tuple[str, m.Selectors]]:
        if fqn in self.packages:
            return self.edges.get(self.package_objects.get(fqn, ""), [])
        return self.edges.get(fqn, [])

    def ids(self, fqn: str) -> frozenset[str]:
        """A package and its package object are one scope for cycle checks."""
        if fqn in self.package_objects:
            return frozenset({fqn, self.package_objects[fqn]})
        return frozenset({fqn})

    def closure_pairs(self, start: str) -> set[tuple[str, str]]:
        """(visible name, symbol) pairs along every simple path of export
        edges from `start`; selectors apply innermost edge first."""
        pairs: set[tuple[str, str]] = set()
        work = [(start, self.ids(start), ())]
        while work:
            scope, visited, filters = work.pop()
            for target, selectors in self.edges_of(scope):
                if target in visited:
                    continue
                path_filters = filters + (selectors,)
                for name, symbol in self.scope_members(target).items():
                    visible: str | None = name
                    for sel in reversed(path_filters):
                        visible = sel.apply(visible)
                        if visible is None:
                            break
                    if visible is not None:
                        pairs.add((visible, symbol))
                work.append((target, visited | self.ids(target), path_filters))
        return pairs

    def visible(self, scope: str) -> dict[str, set[str]]:
        """What a wildcard import of `scope` offers: direct members win over
        re-exported names; several re-exported symbols stay ambiguous."""
        out: dict[str, set[str]] = {}
        for name, symbol in self.closure_pairs(scope):
            out.setdefault(name, set()).add(symbol)
        for name, symbol in self.scope_members(scope).items():
            out[name] = {symbol}
        return out


# Run traces ---------------------------------------------------------------------


class _Failure(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.suppressed: list[str] = []


class _Unit:
    """The unit value `print` renders as `()`."""


UNIT = _Unit()


def _render(value) -> str:
    return "()" if value is UNIT else value


@dataclass(frozen=True)
class _Closure:
    decl: m.Def
    env: dict


class Evaluator:
    """Evaluates a generated program from the model alone."""

    def __init__(self, scopes: ScopeModel, lowered: set[str]):
        self.scopes = scopes
        self.lowered = lowered  # symbols of defs whose unit imports a defer rewriter
        self.events: list[str] = []

    def run(self, entry: str) -> tuple[list[str], str | None, list[str]]:
        try:
            self.call(self.scopes.defs[entry], [], {}, framed=entry in self.lowered)
        except _Failure as err:
            return self.events, err.message, err.suppressed
        return self.events, None, []

    def call(self, decl: m.Def, args: list, outer: dict, framed: bool):
        env = dict(outer)
        env.update(zip(decl.params, args))
        if not (framed and decl.registers_defer()):
            return self.block(decl.body, env, None, framed)
        stack: list[tuple[tuple, dict]] = []
        primary: _Failure | None = None
        value = UNIT
        try:
            value = self.block(decl.body, env, stack, framed)
        except _Failure as err:
            primary = err
        while stack:
            body, captured = stack.pop()
            try:
                self.block(body, captured, None, framed)
            except _Failure as err:
                if primary is None:
                    primary = err
                else:
                    primary.suppressed.append(err.message)
        if primary is not None:
            raise primary
        return value

    def block(self, stats, env: dict, stack, framed: bool):
        value = UNIT
        for stat in stats:
            value = UNIT
            if isinstance(stat, m.Val):
                env[stat.name] = self.eval(stat.expr, env, framed)
            elif isinstance(stat, m.Def):
                env[stat.name] = _Closure(stat, env)
            elif isinstance(stat, m.Defer):
                stack.append((stat.body, env))
            else:
                value = self.eval(stat, env, framed)
        return value

    def eval(self, expr, env: dict, framed: bool):
        if isinstance(expr, m.Str):
            return expr.value
        if isinstance(expr, m.Ref):
            if expr.how == m.LOCAL:
                return env[expr.text]
            if expr.how == m.VAL:
                return self.eval(self.scopes.vals[expr.symbol].expr, {}, framed)
            if expr.how == m.OBJECT:
                return expr.symbol
            raise ValueError(f"{expr.text} is not a value in generated code")
        callee = expr.callee
        args = [self.eval(arg, env, framed) for arg in expr.args]
        if callee.how == m.BUILTIN:
            name = callee.text
            if name == "print":
                self.events.append(_render(args[0]))
                return UNIT
            if name == "concat":
                return _render(args[0]) + _render(args[1])
            if name == "error":
                raise _Failure(_render(args[0]))
            raise ValueError(f"builtin {name} is not used by the generators")
        if callee.how == m.LOCAL:
            closure = env[callee.text]
            return self.call(closure.decl, args, closure.env, framed)
        return self.call(self.scopes.defs[callee.symbol], args, {}, callee.symbol in self.lowered)


# Lint ------------------------------------------------------------------------------


def divergence_lines(marker: str, winners: dict[str, str]) -> list[str]:
    """`ml1 lint` lines for units whose winning provider differs, given each
    unit's winner by source name (units with no winner left out)."""
    names = sorted(winners)
    lines = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if winners[a] != winners[b]:
                lines.append(f"DIVERGENCE {marker} {a}:{winners[a]} != {b}:{winners[b]}")
    return sorted(lines)
