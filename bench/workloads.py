"""Seeded generators for the benchmark's three workloads.

Each generator returns a `Workload`: the units to write, the entry `run`
calls, and each unit's winning `Context` provider for `lint`. Sizes are fixed
per workload; the seed picks names, strings, selectors and which references
are planted, so every seed costs about the same.

None of the generators emits a read of a block name before its `val`, or a
template `val` with a side effect. What ml1 should do in those two cases is
not decided yet, so no oracle could judge the output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import model as m
from model import Call, Def, Defer, Import, Ref, Selectors, Str, Template, Unit, Val, builtin, call
from oracles import ScopeModel

MARKER = "Context"
PRINT, CONCAT, ERROR, COMPOSE = (builtin(n) for n in ("print", "concat", "error", "compose"))

_SYLLABLES = ["ka", "lo", "mi", "nu", "pe", "ra", "si", "to", "vu", "ze", "bo", "di"]


def word(rng: random.Random, syllables: int = 2) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(syllables))


@dataclass
class Workload:
    name: str
    units: list[Unit]
    entry: str
    winners: dict[str, str] = field(default_factory=dict)  # unit file -> Context provider

    @property
    def files(self) -> list[str]:
        return [unit.file for unit in self.units]


def local(name: str, symbol: str) -> Ref:
    return Ref(name, symbol, m.LOCAL)


def show(expr) -> Call:
    return call(PRINT, expr)


def go_defer_lib() -> Unit:
    return Unit(
        "go_defer.ml1",
        "go.defer",
        templates=[Template("object", "rewriter", parents=("DefaultRewriter",), implicit=True)],
    )


def compose_libs() -> list[Unit]:
    """`demo.upper` plus a package that composes it with `go.defer`, laid out
    like the compose example in the test fixtures."""
    hidden = Selectors(True, (("rewriter", None),))
    return [
        Unit(
            "demo_upper.ml1",
            "demo.upper",
            templates=[Template("object", "rewriter", parents=("DefaultRewriter",), implicit=True)],
        ),
        Unit(
            "awithb.ml1",
            "com.ext",
            templates=[
                Template(
                    "package object",
                    "AwithB",
                    body=[
                        Import("demo.upper", hidden, exported=True),
                        Import("go.defer", hidden, exported=True),
                    ],
                )
            ],
        ),
        Unit(
            "awithb_rewriter.ml1",
            "com.ext.AwithB",
            templates=[
                Template(
                    "object",
                    "rewriter",
                    parents=("DefaultRewriter",),
                    implicit=True,
                    body=[
                        call(
                            COMPOSE,
                            Ref("demo.upper.rewriter", "demo.upper.rewriter", m.OBJECT),
                            Ref("go.defer.rewriter", "go.defer.rewriter", m.OBJECT),
                        )
                    ],
                )
            ],
        ),
    ]


def provider_def(owner_tfqn: str, prefix: str, name: str) -> Def:
    """`def name(x) = { concat("name-", x) }`."""
    x = local("x", f"{owner_tfqn}.{name}.x")
    return Def(name, ("x",), [call(CONCAT, Str(f"{name}-"), x)], f"{prefix}.{name}")


def package_object(name: str, body: list) -> Unit:
    """A unit `NAME.ml1` holding only the root package object `NAME`."""
    return Unit(f"{name}.ml1", "", templates=[Template("package object", name, body=body)])


def provider_unit(name: str, defs: list[str]) -> Unit:
    """A root package object holding `defs`."""
    return package_object(name, [provider_def(f"{name}.package", name, d) for d in defs])


def unique_names(scopes: ScopeModel, scope: str, prefix: str = "") -> dict[str, str]:
    """Names a wildcard import of `scope` binds to exactly one symbol."""
    return {
        name: next(iter(symbols))
        for name, symbols in sorted(scopes.visible(scope).items())
        if len(symbols) == 1 and next(iter(symbols)).startswith(prefix)
    }


# project --------------------------------------------------------------------------


def project(rng: random.Random, clients: int = 16, providers: int = 8, defs: int = 8) -> Workload:
    """A clean multi-package project: providers behind a core hub, two hubs
    that re-export it with renames and hides, and clients that call through
    them. Half the clients import `go.defer`; three import the composed
    rewriter. Each hub also re-exports one of two `Context` providers."""
    units = [go_defer_lib(), *compose_libs()]
    units.append(Unit("marker.ml1", "", templates=[Template("trait", MARKER)]))
    contexts = ["ctxAlpha", "ctxBeta"]
    units.append(
        Unit(
            "ctximpl.ml1",
            "ctximpl",
            templates=[Template("object", c, parents=(MARKER,), implicit=True) for c in contexts],
        )
    )
    provider_names = [f"prov{k}" for k in range(providers)]
    for k, pname in enumerate(provider_names):
        units.append(provider_unit(pname, [f"p{k}d{j}" for j in range(defs)]))
    units.append(package_object("core", [Import(p, m.WILDCARD, exported=True) for p in provider_names]))
    all_defs = [f"p{k}d{j}" for k in range(providers) for j in range(defs)]
    hubs = ["hubA", "hubB"]
    for hub, ctx in zip(hubs, contexts):
        picked = rng.sample(all_defs, 10)
        renames = tuple((d, f"{hub.lower()}_{d}") for d in picked[:5])
        hides = tuple((d, None) for d in picked[5:])
        other = next(c for c in contexts if c != ctx)
        units.append(
            package_object(
                hub,
                [
                    Import("core", Selectors(True, renames + hides), exported=True),
                    Import("ctximpl", Selectors(False, ((ctx, "ctx"), (other, None))), exported=True),
                ],
            )
        )
    scopes = ScopeModel(units)
    offered = {hub: unique_names(scopes, hub, "prov") for hub in hubs}
    renamed = {hub: [n for n in offered[hub] if n.startswith(hub.lower())] for hub in hubs}

    order = list(range(clients))
    rng.shuffle(order)
    composed = set(order[:3])
    deferring = set(order[3 : 3 + clients // 2])
    group = {i: hubs[n % 2] for n, i in enumerate(rng.sample(range(clients), clients))}

    winners: dict[str, str] = {}
    entry_calls = []
    for i in range(clients):
        hub = group[i]
        mode = m.LOWERED_UPPER if i in composed else m.LOWERED if i in deferring else m.SOURCE
        imports = [Import(hub, m.WILDCARD)]
        if mode == m.LOWERED:
            imports.append(Import("go.defer", m.WILDCARD))
        elif mode == m.LOWERED_UPPER:
            imports.append(Import("com.ext.AwithB", m.WILDCARD))
        unit = Unit(f"c{i:02d}.ml1", "app", imports, mode=mode)
        trait = f"T{i:02d}"
        unit.templates.append(_client_trait(trait))
        ctx_symbol = f"ctximpl.{contexts[hubs.index(hub)]}"
        for suffix in "ab":
            obj = f"O{i:02d}{suffix}"
            picks = rng.sample(sorted(offered[hub]), 3)
            if renamed[hub]:
                picks[0] = rng.choice(renamed[hub])
            calls = [(name, offered[hub][name]) for name in picks]
            unit.templates.append(
                _client_object(rng, obj, trait, calls, ctx_symbol, mode)
            )
            if mode != m.LOWERED_UPPER:  # demo.upper renames these defs away
                entry_calls.append(
                    call(
                        Ref(f"{obj}.work", f"app.{obj}.work", m.DEF),
                        Str(f"s{i}{suffix}"),
                        Str(word(rng)),
                    )
                )
        units.append(unit)
        winners[unit.file] = ctx_symbol
    units.append(
        Unit(
            "main.ml1",
            "app",
            templates=[Template("object", "Main", body=[Def("main", (), entry_calls, "app.Main.main")])],
        )
    )
    return Workload("project", units, "app.Main.main", winners)


def _client_trait(name: str) -> Template:
    tfqn = f"app.{name}"
    base_x = local("x", f"{tfqn}.base.x")
    hello_x = local("x", f"{tfqn}.hello.x")
    return Template(
        "trait",
        name,
        body=[
            Def("base", ("x",), [call(CONCAT, Str(f"{name}-"), base_x)], f"{tfqn}.base"),
            Def("hello", ("x",), [show(call(CONCAT, Str("hello-"), hello_x)), hello_x], f"{tfqn}.hello"),
        ],
    )


def _client_object(
    rng: random.Random,
    name: str,
    trait: str,
    calls: list[tuple[str, str]],
    ctx_symbol: str,
    mode: str,
) -> Template:
    tfqn = f"app.{name}"
    work = f"{tfqn}.work"
    a, b, u = (local(n, f"{work}.{n}") for n in ("a", "b", "u"))
    body: list = []
    if mode != m.SOURCE:
        body.append(Defer((show(call(CONCAT, Str("bye-"), a)),)))
    body.append(Val("u", call(CONCAT, a, b), f"{work}.u"))
    own_calls = mode != m.LOWERED_UPPER  # upper-cased defs can no longer be called by name
    if own_calls:
        inner = f"{work}.inner"
        y = local("y", f"{inner}.y")
        body.append(Def("inner", ("y",), [call(CONCAT, y, Str("!"))], inner))
        body.append(show(call(local("inner", inner), u)))
        body.append(show(call(Ref("base", f"app.{trait}.base", m.DEF), u)))
    for callee, symbol in calls:
        body.append(show(call(Ref(callee, symbol, m.DEF), u)))
    body.append(show(Ref("ctx", ctx_symbol, m.OBJECT)))
    body.append(show(Ref("tag", f"{tfqn}.tag", m.VAL)))
    if mode != m.SOURCE:
        body.append(Defer((show(call(CONCAT, Str("end-"), u)),)))
    if own_calls:
        body.append(call(Ref("own", f"{tfqn}.own", m.DEF), u))
        body.append(call(Ref("hello", f"app.{trait}.hello", m.DEF), Ref("tag", f"{tfqn}.tag", m.VAL)))
    z = local("z", f"{tfqn}.own.z")
    return Template(
        "object",
        name,
        parents=(trait,),
        body=[
            Val("tag", Str(f"{name}-{word(rng)}"), f"{tfqn}.tag"),
            Def("work", ("a", "b"), body, work),
            Def("own", ("z",), [show(call(CONCAT, Str("own-"), z)), z], f"{tfqn}.own"),
        ],
    )


# reexport_web ----------------------------------------------------------------------


def reexport_web(
    rng: random.Random, dense: int = 7, chain: int = 50, wide: int = 8, wide_defs: int = 20
) -> Workload:
    """Export closures at their largest: a dense family where every template
    re-exports all the others, a long chain of hubs, and a wide hub; one
    client reaches into each. Every dense edge renames one name and hides
    another, and every wide edge hides one name, so the number of closure
    entries does not depend on the seed."""
    units: list[Unit] = []
    for i in range(dense):
        body: list = []
        for j in range(dense):
            if j == i:
                continue
            kept, hidden = rng.sample(range(3), 2)
            sel = Selectors(True, ((f"d{j}v{kept}", f"r{i}d{j}v{kept}"), (f"d{j}v{hidden}", None)))
            body.append(Import(f"dense.D{j}", sel, exported=True))
        body += [Val(f"d{i}v{k}", Str(f"d{i}v{k}-{word(rng)}"), f"dense.D{i}.d{i}v{k}") for k in range(3)]
        units.append(Unit(f"dense{i}.ml1", "dense", templates=[Template("object", f"D{i}", body=body)]))

    links = []
    for i in range(chain):
        body = []
        if i + 1 < chain:
            nxt = i + 1
            sel = m.WILDCARD
            if rng.random() < 1 / 3:
                sel = Selectors(True, ((f"h{nxt}v", f"g{nxt}v"),))
            body.append(Import(f"chain.H{nxt}", sel, exported=True))
        for v in "vw":
            body.append(Val(f"h{i}{v}", Str(f"h{i}{v}-{word(rng)}"), f"chain.H{i}.h{i}{v}"))
        links.append(Template("object", f"H{i}", body=body))
    units.append(Unit("chain.ml1", "chain", templates=links))

    wide_body = []
    for k in range(wide):
        names = [f"w{k}n{j}" for j in range(wide_defs)]
        units.append(provider_unit(f"wp{k}", names))
        sel = Selectors(True, ((rng.choice(names), None),))
        wide_body.append(Import(f"wp{k}", sel, exported=True))
    units.append(package_object("wide", wide_body))

    scopes = ScopeModel(units)
    through_dense = unique_names(scopes, "dense.D0")
    through_chain = unique_names(scopes, "chain.H0")
    through_wide = unique_names(scopes, "wide", "wp")

    chain_refs = [show(Ref(n, through_chain[n], m.VAL)) for n in _pick(rng, through_chain, 20)]
    # Qualified references: a wildcard import of D0 would make every command's
    # implicit scan look up each of D0's re-exported names.
    dense_refs = [show(Ref(f"dense.D0.{n}", through_dense[n], m.VAL)) for n in _pick(rng, through_dense, 4)]
    x = local("x", "web.CW.use.x")
    wide_calls = [show(call(Ref(n, through_wide[n], m.DEF), x)) for n in _pick(rng, through_wide, 12)]
    units += [
        _web_client("client_chain.ml1", [Import("chain.H0", m.WILDCARD)], "CC", "probe", (), chain_refs),
        _web_client("client_dense.ml1", [], "CD", "use", (), dense_refs),
        _web_client("client_wide.ml1", [Import("wide", m.WILDCARD)], "CW", "use", ("x",), wide_calls),
    ]
    return Workload("reexport_web", units, "web.CC.probe")


def _pick(rng: random.Random, names: dict[str, str], count: int) -> list[str]:
    return rng.sample(sorted(names), min(count, len(names)))


def _web_client(file: str, imports: list[Import], obj: str, name: str, params: tuple, body: list) -> Unit:
    """A unit in package `web` with one object holding one def."""
    return Unit(file, "web", imports, [Template("object", obj, body=[Def(name, params, body, f"web.{obj}.{name}")])])


# defer_tree ------------------------------------------------------------------------


def defer_tree(rng: random.Random, depth: int = 14, chain: int = 100, failing: int = 20) -> Workload:
    """One `go.defer` unit: a binary call tree where every call registers a
    defer, then a deep call chain that ends in `error` while some deferred
    thunks fail too, so unwinding and suppression run. The chain stays well
    below the interpreter's call-depth limit of 200: at about 145 calls the
    seed interpreter exhausts Python's recursion limit instead."""
    owner = "deep.Tree"
    defs: list = []
    for level in range(depth + 1):
        name = f"t{level}"
        p = local("p", f"{owner}.{name}.p")
        body: list = [Defer((show(p),))]
        if level < depth:
            left, right = rng.sample("abcdefgh", 2)
            nxt = Ref(f"t{level + 1}", f"{owner}.t{level + 1}", m.DEF)
            body += [call(nxt, call(CONCAT, p, Str(left))), call(nxt, call(CONCAT, p, Str(right)))]
        defs.append(Def(name, ("p",), body, f"{owner}.{name}"))
    fails = set(rng.sample(range(chain), failing))
    for i in range(chain):
        name = f"e{i}"
        x = local("x", f"{owner}.{name}.x")
        thunk = call(ERROR, call(CONCAT, Str(f"s{i}-"), x)) if i in fails else show(call(CONCAT, Str(f"u{i}-"), x))
        body = [Defer((thunk,))]
        if i + 1 < chain:
            body.append(call(Ref(f"e{i + 1}", f"{owner}.e{i + 1}", m.DEF), x))
        else:
            body.append(call(ERROR, call(CONCAT, Str("boom-"), x)))
        defs.append(Def(name, ("x",), body, f"{owner}.{name}"))
    main = Def(
        "main",
        (),
        [
            call(Ref("t0", f"{owner}.t0", m.DEF), Str(word(rng))),
            call(Ref("e0", f"{owner}.e0", m.DEF), Str(word(rng))),
        ],
        f"{owner}.main",
    )
    tree = Unit(
        "tree.ml1",
        "deep",
        [Import("go.defer", m.WILDCARD)],
        [Template("object", "Tree", body=[main, *defs])],
        mode=m.LOWERED,
    )
    return Workload("defer_tree", [go_defer_lib(), tree], f"{owner}.main")


GENERATORS = {"project": project, "reexport_web": reexport_web, "defer_tree": defer_tree}


def generate(name: str, seed: int, **sizes) -> Workload:
    return GENERATORS[name](random.Random(f"{name}:{seed}"), **sizes)
