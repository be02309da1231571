"""Seeded random generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: the export
closure oracle enumerates simple edge paths over a plain description of
the graph, and the defer oracle simulates traces with a list-as-stack.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ml1 import ast

NAME_POOL = ["a", "b", "c", "d"]
RENAME_POOL = ["e", "f", "g"]


# Random export graphs, emitted as source text --------------------------------


@dataclass
class EdgeSpec:
    origin: int
    target: int
    wildcard: bool
    named: list[tuple[str, str | None]]  # (source, target-or-None-for-hide)


@dataclass
class GraphSpec:
    members: list[list[str]]  # per template
    edges: list[EdgeSpec]

    def template_name(self, index: int) -> str:
        return f"T{index}"


def random_graph_spec(rng: random.Random, max_templates: int = 8, max_edges: int = 16) -> GraphSpec:
    n = rng.randint(1, max_templates)
    members = [
        sorted(rng.sample(NAME_POOL, rng.randint(0, min(4, len(NAME_POOL)))))
        for _ in range(n)
    ]
    edges: list[EdgeSpec] = []
    for _ in range(rng.randint(0, max_edges)):
        origin = rng.randrange(n)
        target = rng.randrange(n)
        if rng.random() < 0.5:
            edges.append(EdgeSpec(origin, target, True, []))
        else:
            count = rng.randint(1, 3)
            sources = rng.sample(NAME_POOL, min(count, len(NAME_POOL)))
            named: list[tuple[str, str | None]] = []
            takens: set[str] = set()
            for source in sources:
                roll = rng.random()
                if roll < 0.34:
                    named.append((source, source))
                    takens.add(source)
                elif roll < 0.67:
                    named.append((source, None))
                else:
                    fresh = [t for t in RENAME_POOL + NAME_POOL if t not in takens and t != source]
                    if not fresh:
                        named.append((source, source))
                        takens.add(source)
                    else:
                        tgt = rng.choice(fresh)
                        named.append((source, tgt))
                        takens.add(tgt)
            # keep plain selectors' targets distinct too
            plain_targets = [t for _, t in named if t is not None]
            if len(set(plain_targets)) != len(plain_targets):
                continue
            edges.append(EdgeSpec(origin, target, rng.random() < 0.5, named))
    return GraphSpec(members, edges)


def graph_spec_sources(spec: GraphSpec) -> list[tuple[str, str]]:
    """Render the spec as one unit per template, ready for the pipeline."""
    sources = []
    for index, members in enumerate(spec.members):
        lines = [f"object {spec.template_name(index)} {{"]
        for edge in spec.edges:
            if edge.origin != index:
                continue
            lines.append(f"  @exported import {spec.template_name(edge.target)}.{_selector_text(edge)}")
        for i, member in enumerate(members):
            lines.append(f"  val {member} = {i}")
        lines.append("}")
        sources.append((f"t{index}.ml1", "\n".join(lines) + "\n"))
    return sources


def _selector_text(edge: EdgeSpec) -> str:
    if edge.wildcard and not edge.named:
        return "_"
    parts = []
    for source, target in edge.named:
        if target is None:
            parts.append(f"{source} => _")
        elif target == source:
            parts.append(source)
        else:
            parts.append(f"{source} => {target}")
    if edge.wildcard:
        parts.append("_")
    return "{" + ", ".join(parts) + "}"


def _edge_filter(edge: EdgeSpec, name: str) -> str | None:
    for source, target in edge.named:
        if source == name:
            return target
    return name if edge.wildcard else None


def closure_oracle(spec: GraphSpec, start: int) -> set[tuple[str, str]]:
    """(visible name, defining template member FQN) pairs reachable from
    `start`, by exhaustive worklist enumeration of simple edge paths."""
    results: set[tuple[str, str]] = set()
    worklist: list[tuple[int, frozenset[int], tuple[EdgeSpec, ...]]] = [
        (start, frozenset({start}), ())
    ]
    while worklist:
        scope, visited, path = worklist.pop()
        for edge in spec.edges:
            if edge.origin != scope or edge.target in visited:
                continue
            new_path = path + (edge,)
            for member in spec.members[edge.target]:
                visible: str | None = member
                for step in reversed(new_path):
                    visible = _edge_filter(step, visible)
                    if visible is None:
                        break
                if visible is not None:
                    results.add((visible, f"{spec.template_name(edge.target)}.{member}"))
            worklist.append((edge.target, visited | {edge.target}, new_path))
    return results


def edge_label(spec: GraphSpec, edge: EdgeSpec) -> str:
    """The label the scope graph gives `edge`: its origin, its position among
    the origin's exported imports, and its target."""
    same_origin = [e for e in spec.edges if e.origin == edge.origin]
    index = next(i for i, e in enumerate(same_origin) if e is edge)
    return f"{spec.template_name(edge.origin)}[{index}]=>{spec.template_name(edge.target)}"


def closure_witness_oracle(spec: GraphSpec, start: int) -> dict[tuple[str, str], tuple[str, ...]]:
    """(visible name, member FQN) -> edge labels of the witness path: the
    minimum by (length, labels) over every simple edge path from `start`
    that yields the pair, found by exhaustive enumeration."""
    best: dict[tuple[str, str], tuple[int, tuple[str, ...]]] = {}
    worklist: list[tuple[int, frozenset[int], tuple[EdgeSpec, ...]]] = [
        (start, frozenset({start}), ())
    ]
    while worklist:
        scope, visited, path = worklist.pop()
        for edge in spec.edges:
            if edge.origin != scope or edge.target in visited:
                continue
            new_path = path + (edge,)
            rank = (len(new_path), tuple(edge_label(spec, e) for e in new_path))
            for member in spec.members[edge.target]:
                visible: str | None = member
                for step in reversed(new_path):
                    visible = _edge_filter(step, visible)
                    if visible is None:
                        break
                if visible is not None:
                    pair = (visible, f"{spec.template_name(edge.target)}.{member}")
                    if pair not in best or rank < best[pair]:
                        best[pair] = rank
            worklist.append((edge.target, visited | {edge.target}, new_path))
    return {pair: labels for pair, (_, labels) in best.items()}


def dense_family_sources(k: int, vals: int = 2) -> list[tuple[str, str]]:
    """k templates, each wildcard-exporting all the others, with `vals`
    members of its own: D{i} declares v{i}_0 .. v{i}_{vals-1}."""
    sources = []
    for i in range(k):
        lines = [f"object D{i} {{"]
        lines += [f"  @exported import D{j}._" for j in range(k) if j != i]
        lines += [f"  val v{i}_{m} = {m}" for m in range(vals)]
        lines.append("}")
        sources.append((f"d{i}.ml1", "\n".join(lines) + "\n"))
    return sources


# Random units for round-trip and rewriter-law testing -------------------------


_IDENT_POOL = [
    "alpha", "beta", "gamma", "delta", "omega", "f", "g", "h", "x", "y", "z",
    "run", "load", "store", "emit", "tick",
]


def _ident(rng: random.Random) -> str:
    return rng.choice(_IDENT_POOL)


def _qual_name(rng: random.Random) -> ast.QualName:
    return tuple(_ident(rng) for _ in range(rng.randint(1, 3)))


def random_expr(rng: random.Random, depth: int, allow_defer: bool) -> ast.Expr:
    roll = rng.random()
    if depth <= 0 or roll < 0.25:
        return ast.IntLit(rng.randint(0, 99))
    if roll < 0.4:
        return ast.StrLit(rng.choice(["", "hi", "a b", 'quote"d', "tab\tand\nnl"]))
    if roll < 0.6:
        return ast.Ref(_qual_name(rng))
    if roll < 0.8:
        args = tuple(random_expr(rng, depth - 1, allow_defer) for _ in range(rng.randint(0, 2)))
        return ast.Call(ast.Ref(_qual_name(rng)), args)
    if roll < 0.92:
        return random_block(rng, depth - 1, allow_defer)
    if allow_defer:
        return ast.DeferCandidate(random_block(rng, depth - 1, allow_defer))
    return ast.Block((ast.IntLit(rng.randint(0, 9)),))


def random_block(rng: random.Random, depth: int, allow_defer: bool) -> ast.Block:
    stats: list[ast.Stat] = []
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.3:
            stats.append(random_def(rng, depth - 1, allow_defer))
        else:
            stats.append(random_expr(rng, depth - 1, allow_defer))
    return ast.Block(tuple(stats))


def random_def(rng: random.Random, depth: int, allow_defer: bool) -> ast.DefDecl:
    if rng.random() < 0.4:
        return ast.DefDecl(_ident(rng), (), random_expr(rng, depth - 1, allow_defer), True)
    params = tuple(dict.fromkeys(_ident(rng) for _ in range(rng.randint(0, 2))))
    return ast.DefDecl(_ident(rng), params, random_block(rng, depth - 1, allow_defer), False)


def random_import(rng: random.Random, annotated: bool) -> ast.ImportClause:
    annotations = ("exported",) if annotated and rng.random() < 0.6 else ()
    if rng.random() < 0.4:
        selectors = ast.WILDCARD
    else:
        count = rng.randint(1, 3)
        names = []
        used: set[str] = set()
        for _ in range(count):
            source = _ident(rng)
            roll = rng.random()
            if roll < 0.5:
                target: str | None = source
            elif roll < 0.75:
                target = None
            else:
                target = _ident(rng) + "r"
            if target is not None and target in used:
                target = source
            if target is not None:
                if target in used:
                    continue
                used.add(target)
            names.append(ast.Selector(source, target))
        if not names:
            names = [ast.Selector("x", "x")]
        selectors = ast.ImportSelectors(wildcard=rng.random() < 0.5, names=tuple(names))
    return ast.ImportClause(annotations, _qual_name(rng), selectors)


def random_template(rng: random.Random, allow_defer: bool) -> ast.TemplateDef:
    kind = rng.choice([ast.OBJECT, ast.OBJECT, ast.TRAIT, ast.PACKAGE_OBJECT])
    is_implicit = kind == ast.OBJECT and rng.random() < 0.15
    parents = tuple(_qual_name(rng) for _ in range(rng.randint(0, 2)))
    stats: list[ast.TemplateStat] = []
    for _ in range(rng.randint(0, 4)):
        roll = rng.random()
        if roll < 0.3:
            stats.append(random_import(rng, annotated=True))
        elif roll < 0.75:
            stats.append(random_def(rng, 2, allow_defer))
        else:
            stats.append(random_expr(rng, 2, allow_defer))
    name = _ident(rng).capitalize() + str(rng.randint(0, 9))
    return ast.TemplateDef(kind, name, parents, tuple(stats), is_implicit)


def random_unit(rng: random.Random, allow_defer: bool = True) -> ast.CompilationUnit:
    package: ast.QualName = _qual_name(rng) if rng.random() < 0.6 else ()
    stats: list[ast.TopStat] = []
    for _ in range(rng.randint(0, 2)):
        stats.append(random_import(rng, annotated=False))
    for _ in range(rng.randint(0, 3)):
        stats.append(random_template(rng, allow_defer))
    return ast.CompilationUnit(package, tuple(stats), "<gen>")


def random_unit_defs_only(rng: random.Random) -> ast.CompilationUnit:
    """Units whose defer statements all sit inside non-val defs, so the
    defer rewriter accepts them."""
    templates = []
    for index in range(rng.randint(1, 2)):
        stats: list[ast.TemplateStat] = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.7:
                params = tuple(dict.fromkeys(_ident(rng) for _ in range(rng.randint(0, 2))))
                stats.append(
                    ast.DefDecl(_ident(rng), params, random_block(rng, 2, allow_defer=True), False)
                )
            else:
                stats.append(ast.DefDecl(_ident(rng), (), random_expr(rng, 1, allow_defer=False), True))
        templates.append(ast.TemplateDef(ast.OBJECT, f"Gen{index}", (), tuple(stats)))
    return ast.CompilationUnit((), tuple(templates), "<gen>")


# Random defer programs plus a trace simulator ---------------------------------


@dataclass
class SimError(Exception):
    label: str


@dataclass
class Action:
    kind: str  # print | defer | error | block
    label: str = ""
    body: list["Action"] = field(default_factory=list)


def random_program(rng: random.Random) -> list[Action]:
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"L{counter[0]}"

    def actions(depth: int, allow_defer: bool, allow_error: bool) -> list[Action]:
        out = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            if roll < 0.42:
                out.append(Action("print", fresh()))
            elif roll < 0.62 and allow_defer:
                out.append(Action("defer", body=actions(depth - 1, False, allow_error)))
            elif roll < 0.75 and depth > 0:
                out.append(Action("block", body=actions(depth - 1, allow_defer, allow_error)))
            elif allow_error and roll < 0.82:
                out.append(Action("error", fresh()))
            else:
                out.append(Action("print", fresh()))
        return out

    return actions(2, True, rng.random() < 0.5)


def simulate(program: list[Action]) -> tuple[list[str], str | None, list[str]]:
    """Expected (events, primary error label, suppressed labels) for one
    method body run under a single deferred-thunk frame."""
    events: list[str] = []
    stack: list[list[Action]] = []

    def exec_actions(actions: list[Action]) -> str | None:
        for action in actions:
            if action.kind == "print":
                events.append(action.label)
            elif action.kind == "defer":
                stack.append(action.body)
            elif action.kind == "block":
                failed = exec_actions(action.body)
                if failed is not None:
                    return failed
            elif action.kind == "error":
                return action.label
        return None

    primary = exec_actions(program)
    suppressed: list[str] = []
    for body in reversed(stack):
        failed = exec_actions(body)
        if failed is not None:
            if primary is None:
                primary = failed
            else:
                suppressed.append(failed)
    return events, primary, suppressed


def program_to_block(program: list[Action]) -> ast.Block:
    def expr_of(action: Action) -> ast.Expr:
        if action.kind == "print":
            return ast.Call(ast.Ref(("print",)), (ast.StrLit(action.label),))
        if action.kind == "error":
            return ast.Call(ast.Ref(("error",)), (ast.StrLit(action.label),))
        if action.kind == "defer":
            return ast.DeferCandidate(block_of(action.body))
        return block_of(action.body)

    def block_of(actions: list[Action]) -> ast.Block:
        return ast.Block(tuple(expr_of(a) for a in actions))

    return block_of(program)


def program_unit(program: list[Action]) -> ast.CompilationUnit:
    main = ast.DefDecl("main", (), program_to_block(program), False)
    template = ast.TemplateDef(ast.OBJECT, "Main", (), (main,))
    imports = ast.ImportClause((), ("go", "defer"), ast.WILDCARD)
    return ast.CompilationUnit((), (imports, template), "gen_main.ml1")
