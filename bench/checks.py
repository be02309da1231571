"""The CLI invocations each workload times, with the output each must give.

Every expectation comes from the generator's model through `oracles.py`;
none is taken from ml1's own output. An expected exit code of 1 or 2 (a lint
divergence, a program that ends in `error`) is part of the expectation, not
a failure.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

import model as m
from oracles import Evaluator, ScopeModel, divergence_lines
from workloads import MARKER, Workload

COMMANDS = ("parse", "resolve", "rewrite", "run", "lint")


@dataclass
class Command:
    name: str
    argv: list[str]
    exit_code: int
    stdout: str | None  # exact text, or None when `check_stdout` judges it
    stderr: str = ""
    check_stdout: Callable[[str], str | None] | None = None
    _verdicts: dict = field(default_factory=dict)

    def verify(self, status: int, out: bytes, err: bytes) -> str | None:
        """None when the invocation gave the expected result, else why not.
        Identical outputs get the verdict they got the first time."""
        key = (status, hashlib.sha256(out).digest(), hashlib.sha256(err).digest())
        if key not in self._verdicts:
            self._verdicts[key] = self._judge(status, out.decode("utf-8", "replace"), err.decode("utf-8", "replace"))
        return self._verdicts[key]

    def _judge(self, status: int, out: str, err: str) -> str | None:
        if status != self.exit_code:
            return f"{self.name}: exit {status}, expected {self.exit_code}; stderr: {err[:300]}"
        if err != self.stderr:
            return f"{self.name}: stderr {err[:300]!r}, expected {self.stderr[:300]!r}"
        if self.stdout is not None:
            if out != self.stdout:
                return f"{self.name}: stdout differs from the oracle at offset {_first_difference(out, self.stdout)}"
            return None
        return self.check_stdout(out)


def _first_difference(a: str, b: str) -> int:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return min(len(a), len(b))


@dataclass
class Prepared:
    """A workload's source texts, its timed commands and the untimed first
    invocation made during set-up."""

    sources: dict[str, str]
    commands: list[Command]
    cold: Command


def prepare(workload: Workload) -> Prepared:
    sources: dict[str, str] = {}
    refs: dict[str, list] = {}
    rewritten: list[str] = []
    erased: list[tuple[str, str]] = []
    for unit in workload.units:
        text, sites = m.render(unit)
        sources[unit.file] = text
        if sites:
            refs[unit.file] = sorted((s.start, s.end, s.text, s.symbol) for s in sites)
        rewritten.append(m.render(unit, unit.mode)[0])
        for tpl in unit.templates:
            erased += [(unit.file, s.path) for s in tpl.body if isinstance(s, m.Import) and s.exported]
    scopes = ScopeModel(workload.units)
    closures = {t: scopes.closure_pairs(t) for t in scopes.templates()}

    lowered = {
        f"{unit.member_prefix(tpl)}.{stat.name}"
        for unit in workload.units
        if unit.mode != m.SOURCE
        for tpl in unit.templates
        for stat in tpl.body
        if isinstance(stat, m.Def)
    }
    events, error, suppressed = Evaluator(scopes, lowered).run(workload.entry)
    run_err = ""
    if error is not None:
        run_err = f"error: {error}\n" + "".join(f"suppressed: {s}\n" for s in suppressed)
    lint = divergence_lines(MARKER, workload.winners)

    files = workload.files
    commands = [
        Command("parse", ["parse", *files], 0, ""),
        Command(
            "resolve",
            ["resolve", "--dump", *files],
            0,
            None,
            check_stdout=lambda out: check_dump(out, refs, closures, sorted(erased)),
        ),
        Command("rewrite", ["rewrite", *files], 0, "".join(rewritten)),
        Command(
            "run",
            ["run", "--entry", workload.entry, *files],
            2 if error is not None else 0,
            "".join(f"{e}\n" for e in events),
            run_err,
        ),
        Command("lint", ["lint", "--marker", MARKER, *files], 1 if lint else 0, "".join(f"{l}\n" for l in lint)),
    ]
    cold = Command("resolve-cold", ["resolve", *files], 0, "")
    return Prepared(sources, commands, cold)


def check_dump(
    out: str,
    refs: dict[str, list],
    closures: dict[str, set[tuple[str, str]]],
    erased: list[tuple[str, str]],
) -> str | None:
    """Compare a `resolve --dump` document with the planted bindings and the
    closure oracle. Closures are compared as (name, symbol) pairs, so any
    choice of witness paths passes."""
    try:
        doc = json.loads(out)
    except ValueError as err:
        return f"resolve: stdout is not JSON: {err}"
    if doc["diagnostics"]:
        return f"resolve: unexpected diagnostics {doc['diagnostics'][:3]}"
    got_refs = {
        u["unit"]: sorted((r["span"][0], r["span"][1], r["name"], r["symbol"]) for r in u["refs"])
        for u in doc["units"]
    }
    if got_refs != refs:
        for unit in sorted(set(got_refs) | set(refs)):
            if got_refs.get(unit) != refs.get(unit):
                missing = sorted(set(refs.get(unit, [])) - set(got_refs.get(unit, [])))[:3]
                extra = sorted(set(got_refs.get(unit, [])) - set(refs.get(unit, [])))[:3]
                return f"resolve: bindings in {unit} differ; expected {missing}, got {extra}"
    got_closures = {
        c["template"]: {(e["name"], e["symbol"]) for e in c["entries"]} for c in doc["closures"]
    }
    if set(got_closures) != set(closures):
        return f"resolve: closure templates differ: {sorted(set(got_closures) ^ set(closures))[:5]}"
    for template, pairs in closures.items():
        if got_closures[template] != pairs:
            diff = sorted(got_closures[template] ^ pairs)[:3]
            return f"resolve: closure of {template} differs from the oracle: {diff}"
    got_erased = sorted((e["unit"], e["path"]) for e in doc["erasedImports"])
    if got_erased != erased:
        return "resolve: erased imports differ"
    return None
