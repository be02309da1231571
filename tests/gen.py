"""Seeded random generators and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: the export
closure oracle enumerates simple edge paths over a plain description of
the graph, the defer oracle simulates traces with a list-as-stack, and the
reference lexer scans one character at a time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ml1 import ast
from ml1.tokens import (
    E_ILLEGAL_CHARACTER,
    E_UNSUPPORTED_ESCAPE,
    E_UNTERMINATED_STRING,
    IDENT,
    KEYWORD,
    LITERAL,
    PUNCT,
    LexError,
    Span,
)

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
    parents: list[list[int]] = field(default_factory=list)  # per template; none when empty

    def template_name(self, index: int) -> str:
        return f"T{index}"

    def parts(self, index: int) -> list[int]:
        """The template, then its transitive parents, left-to-right depth-first,
        first occurrence kept; parents are acyclic."""
        order = [index]
        for parent in self.parents[index] if self.parents else ():
            order += [p for p in self.parts(parent) if p not in order]
        return order

    def edge_chains(self, index: int, chain: frozenset[int] = frozenset()) -> list[tuple[EdgeSpec, frozenset[int]]]:
        """Each edge of a part of `index`, with the templates an `extends`
        path from `index` to the edge's origin passes, once per such path."""
        found = [(edge, chain) for edge in self.edges if edge.origin == index]
        for parent in self.parents[index] if self.parents else ():
            found += self.edge_chains(parent, chain | {parent})
        return found

    def scope_members(self, index: int) -> dict[str, str]:
        """Visible member name -> FQN: the first part that declares it provides it."""
        found: dict[str, str] = {}
        for part in self.parts(index):
            for member in self.members[part]:
                found.setdefault(member, f"{self.template_name(part)}.{member}")
        return found


def random_graph_spec(
    rng: random.Random, max_templates: int = 8, max_edges: int = 16, max_parents: int = 0
) -> GraphSpec:
    """With `max_parents`, each template extends up to that many templates of
    a lower index, so inheritance stays acyclic."""
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
    parents = [rng.sample(range(i), rng.randint(0, min(i, max_parents))) for i in range(n)] if max_parents else []
    return GraphSpec(members, edges, parents)


def graph_spec_sources(spec: GraphSpec) -> list[tuple[str, str]]:
    """Render the spec as one unit per template, ready for the pipeline."""
    sources = []
    for index, members in enumerate(spec.members):
        parents = spec.parents[index] if spec.parents else []
        extends = " extends " + " with ".join(map(spec.template_name, parents)) if parents else ""
        lines = [f"object {spec.template_name(index)}{extends} {{"]
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
    if any(target == name for _, target in edge.named):
        return None  # a rename onto `name` shadows the wildcard's `name`
    return name if edge.wildcard else None


def _closure_pairs(spec: GraphSpec, start: int):
    """Every simple edge path from `start`, by exhaustive worklist
    enumeration, with each (visible name, member FQN) pair it yields. A
    scope is its parts: a path follows the edges of every part, and taking an
    inherited part's edge visits the templates on the `extends` path to it."""
    worklist: list[tuple[int, frozenset[int], tuple[EdgeSpec, ...]]] = [(start, frozenset({start}), ())]
    while worklist:
        scope, visited, path = worklist.pop()
        for edge, chain in spec.edge_chains(scope):
            if edge.target in visited | chain or chain & visited:
                continue
            new_path = path + (edge,)
            for member, fqn in spec.scope_members(edge.target).items():
                visible: str | None = member
                for step in reversed(new_path):
                    visible = _edge_filter(step, visible)
                    if visible is None:
                        break
                if visible is not None:
                    yield new_path, (visible, fqn)
            worklist.append((edge.target, visited | chain | {edge.target}, new_path))


def closure_oracle(spec: GraphSpec, start: int) -> set[tuple[str, str]]:
    """(visible name, defining template member FQN) pairs reachable from
    `start`."""
    return {pair for _, pair in _closure_pairs(spec, start)}


def edge_label(spec: GraphSpec, edge: EdgeSpec) -> str:
    """The label the scope graph gives `edge`: its origin, its position among
    the origin's exported imports, and its target."""
    same_origin = [e for e in spec.edges if e.origin == edge.origin]
    index = next(i for i, e in enumerate(same_origin) if e is edge)
    return f"{spec.template_name(edge.origin)}[{index}]=>{spec.template_name(edge.target)}"


def closure_witness_oracle(spec: GraphSpec, start: int) -> dict[tuple[str, str], tuple[str, ...]]:
    """(visible name, member FQN) -> edge labels of the witness path: the
    minimum by (length, labels) over every simple edge path from `start`
    that yields the pair."""
    best: dict[tuple[str, str], tuple[int, tuple[str, ...]]] = {}
    for path, pair in _closure_pairs(spec, start):
        rank = (len(path), tuple(edge_label(spec, e) for e in path))
        if pair not in best or rank < best[pair]:
            best[pair] = rank
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
            # Deep enough that a def's body may hold a defer, which
            # `go.defer` frames.
            stats.append(random_def(rng, 4, allow_defer))
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
                # A deferred block may defer again, down to depth 0.
                out.append(Action("defer", body=actions(depth - 1, depth > 1, allow_error)))
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
    method body run under a single deferred-thunk frame. Deferred blocks
    run last registered first; the frame stays open while they run, so a
    deferred block's own defers run right after it (Go order)."""
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
    while stack:
        failed = exec_actions(stack.pop())
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


# Random binding programs for the resolver/interpreter differential test -------


@dataclass
class Binder:
    """A binder of a generated program. Its tag, the value every read of it
    yields, is the FQN the resolver is expected to give it."""

    name: str
    tag: str
    kind: str  # val | param | def
    params: list["Binder"] = field(default_factory=list)
    order: int = -1  # defs and `tv2`: a def reads only binders of a higher order
    stat: int = -1  # block locals: the index of the declaring statement


@dataclass
class _Scope:
    """One run-time frame of the program being generated."""

    binders: dict[str, Binder]
    stats: list[str] = field(default_factory=list)  # block: statement kinds
    at: int = 0


class BindingProgram:
    """A unit `Main` whose `main` mixes params, nested blocks, shadowing,
    local defs (called forward too) and defers. Every binder holds a unique
    tag and every read is printed as `<id>|<value>`; `expected[id]` is the
    tag of the binder that read must see, by Scala's block rules: a block
    local's scope is the whole block, the innermost binder wins, and no
    generated read extends forward over a `val`."""

    def __init__(self, rng: random.Random, max_depth: int = 3):
        self.rng = rng
        self.max_depth = max_depth
        self.expected: dict[str, str] = {}
        self.forward_reads = 0  # reads of a local def declared later
        self.tags: set[str] = set()
        self.fresh = 0
        self.orders = 0
        # `tv2` runs a block at its first read, so it is ordered like a def:
        # its body may call `helper`, and `helper` may not read it.
        tv2 = Binder("tv2", "Main.tv2", "val", order=self._order())
        helper = Binder("helper", "Main.helper", "def", order=self._order())
        helper.params = [Binder(p, f"Main.helper.{p}", "param") for p in ("a", "b")]
        self.template = {"tv": Binder("tv", "Main.tv", "val"), "tv2": tv2, "helper": helper}
        self.tags.update({"Main.tv", "Main.tv2", "Main.helper", "Main.helper.a", "Main.helper.b", "Main.main"})
        params = _Scope({p.name: p for p in helper.params})
        helper_body = self.block("Main.helper", [params], helper.order, 1, True, "Main.helper")
        tv2_body = self.block("Main.tv2", [], tv2.order, 1, False, "Main.tv2")
        main_body = self.block("Main.main", [_Scope({})], -1, 0, True, "Main.main")
        stats = (
            ast.DefDecl("tv", (), ast.StrLit("Main.tv"), True),
            ast.DefDecl("tv2", (), tv2_body, True),
            ast.DefDecl("helper", ("a", "b"), helper_body, False),
            ast.DefDecl("main", (), main_body, False),
        )
        imports = ast.ImportClause((), ("go", "defer"), ast.WILDCARD)
        template = ast.TemplateDef(ast.OBJECT, "Main", (), stats)
        self.unit = ast.CompilationUnit((), (imports, template), "gen_binding.ml1")

    def _order(self) -> int:
        self.orders += 1
        return self.orders

    def _fresh_name(self) -> str:
        self.fresh += 1
        return f"n{self.fresh}"

    def _binder(self, chain: list[_Scope], owner: str, kind: str, taken_names: set[str]) -> Binder:
        """A new binder: it shadows a visible name or takes a fresh one. Its
        tag follows the resolver's local FQNs: the owner, the name and a
        `#k` suffix when an earlier binder of the unit holds that FQN. The
        binders of one owner are made in the order the resolver meets them."""
        visible = sorted({n for scope in chain for n in scope.binders} | set(self.template))
        visible = [n for n in visible if n not in taken_names]
        name = self.rng.choice(visible) if visible and self.rng.random() < 0.5 else self._fresh_name()
        tag, k = f"{owner}.{name}", 2
        while tag in self.tags:
            tag, k = f"{owner}.{name}#{k}", k + 1
        self.tags.add(tag)
        return Binder(name, tag, kind)

    def _readable(self, chain: list[_Scope], min_order: int) -> list[tuple[Binder, bool]]:
        """The binders a read may name here, each with whether the read is
        forward."""
        seen: dict[str, tuple[Binder, bool]] = {n: (b, False) for n, b in self.template.items()}
        for scope in chain:
            for name, binder in scope.binders.items():
                forward = binder.stat >= scope.at
                seen[name] = (binder, forward)
                if forward and "val" in scope.stats[scope.at : binder.stat + 1]:
                    del seen[name]  # a forward read over a val is an error
        return [
            (b, forward) for _, (b, forward) in sorted(seen.items())
            if b.order < 0 or b.order > min_order
        ]

    def _read(self, chain: list[_Scope], min_order: int) -> ast.Expr:
        candidates = self._readable(chain, min_order)
        if not candidates:
            return ast.IntLit(0)
        binder, forward = self.rng.choice(candidates)
        self.forward_reads += forward
        ident = f"r{len(self.expected)}"
        self.expected[ident] = binder.tag
        read: ast.Expr = ast.Ref((binder.name,))
        if binder.kind == "def":
            read = ast.Call(read, tuple(ast.StrLit(p.tag) for p in binder.params))
        label = ast.StrLit(f"{ident}|")
        return ast.Call(ast.Ref(("print",)), (ast.Call(ast.Ref(("concat",)), (label, read)),))

    def block(
        self, owner: str, chain: list[_Scope], min_order: int, depth: int, in_def: bool, result: str | None
    ) -> ast.Block:
        rng = self.rng
        kinds = ["print", "print", "val", "def", "block"] + (["defer"] if in_def else [])
        if depth >= self.max_depth:
            kinds = ["print", "print", "val"]
        plan = [rng.choice(kinds) for _ in range(rng.randint(1, 4))]
        scope = _Scope({}, plan)
        names: set[str] = set()
        for i, kind in enumerate(plan):
            if kind in ("val", "def"):
                binder = self._binder(chain, owner, kind, names)
                binder.stat = i
                if kind == "def":
                    binder.order = self._order()
                names.add(binder.name)
                scope.binders[binder.name] = binder
        inner = chain + [scope] if scope.binders else chain
        # Parameters come before any body, since a read may call forward.
        params: dict[str, _Scope] = {}
        for binder in scope.binders.values():
            if binder.kind == "def":
                found = params[binder.name] = _Scope({})
                for _ in range(rng.randint(0, 2)):
                    param = self._binder(inner, binder.tag, "param", set(found.binders))
                    found.binders[param.name] = param
                binder.params = list(found.binders.values())
        stats: list[ast.Stat] = []
        for i, kind in enumerate(plan):
            scope.at = i
            if kind == "print":
                stats.append(self._read(inner, min_order))
            elif kind == "val":
                binder = next(b for b in scope.binders.values() if b.stat == i)
                body: ast.Expr = ast.StrLit(binder.tag)
                if rng.random() < 0.3 and depth < self.max_depth:
                    body = self.block(binder.tag, inner, min_order, depth + 1, False, binder.tag)
                stats.append(ast.DefDecl(binder.name, (), body, True))
            elif kind == "def":
                binder = next(b for b in scope.binders.values() if b.stat == i)
                frame = params[binder.name]
                body = self.block(binder.tag, inner + [frame], binder.order, depth + 1, True, binder.tag)
                stats.append(ast.DefDecl(binder.name, tuple(frame.binders), body, False))
            elif kind == "block":
                stats.append(self.block(owner, inner, min_order, depth + 1, in_def, None))
            else:
                stats.append(ast.DeferCandidate(self.block(owner, inner, min_order, depth + 1, in_def, None)))
        if result is not None:
            stats.append(ast.StrLit(result))
        return ast.Block(tuple(stats))


# Reference lexer ----------------------------------------------------------------

# A character loop that states the lexical grammar one character at a time;
# `ml1.tokens.tokenize` must give the same tokens and the same errors.

_KEYWORDS = frozenset({"package", "import", "object", "trait", "def", "val", "implicit", "extends", "with", "defer"})
_SINGLE_PUNCT = frozenset(".,{}()@;=_")
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | _DIGITS
_BLANKS = frozenset(" \t\r\f\v")  # newlines are counted separately
_ESCAPE_CHARS = frozenset('nt"\\')


def reference_tokenize(source: str) -> list[tuple[str, str, int, int, int]]:
    """The tokens of `source` as (kind, text, start, end, line), or the
    `LexError` that stops it."""
    tokens: list[tuple[str, str, int, int, int]] = []
    i = 0
    line = 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            i += 1
            continue
        if ch in _BLANKS:
            i += 1
            continue
        if ch == "/" and source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        start = i
        if ch in _IDENT_START:
            while i < n and source[i] in _IDENT_CHARS:
                i += 1
            text = source[start:i]
            if text == "_":
                kind = PUNCT
            elif text in _KEYWORDS:
                kind = KEYWORD
            else:
                kind = IDENT
            tokens.append((kind, text, start, i, line))
            continue
        if ch in _DIGITS:
            while i < n and source[i] in _DIGITS:
                i += 1
            tokens.append((LITERAL, source[start:i], start, i, line))
            continue
        if ch == '"':
            i += 1
            while True:
                if i >= n or source[i] == "\n":
                    raise LexError(Span(start, i), "unterminated string literal", E_UNTERMINATED_STRING)
                if source[i] == "\\":
                    if i + 1 >= n or source[i + 1] not in _ESCAPE_CHARS:
                        raise LexError(Span(i, min(i + 2, n)), "unsupported escape sequence", E_UNSUPPORTED_ESCAPE)
                    i += 2
                    continue
                if source[i] == '"':
                    i += 1
                    break
                i += 1
            tokens.append((LITERAL, source[start:i], start, i, line))
            continue
        if source.startswith("=>", i):
            i += 2
            tokens.append((PUNCT, "=>", start, i, line))
            continue
        if ch in _SINGLE_PUNCT:
            i += 1
            tokens.append((PUNCT, ch, start, i, line))
            continue
        raise LexError(Span(i, i + 1), f"illegal character {ch!r}", E_ILLEGAL_CHARACTER)
    return tokens
