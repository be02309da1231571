"""Spans and counters around the calls into each ml1 layer.

`Tracer.install` replaces each public function listed in `LAYERS`, in every
loaded `ml1` module that refers to it, with a wrapper that records a span
(name, start, end, parent, command) and the layer's work counts. Spans stay
in memory. Counting happens outside the spans, and its time is subtracted
from the enclosing ones, so counting does not inflate any layer's time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

_NODE_DATA = {"Span", "Selector", "ImportSelectors"}


def _nodes(tree) -> int:
    """AST nodes under `tree`, by a walk over dataclass fields (spans and
    selectors are node data, not nodes)."""
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.extend(node)
        elif hasattr(node, "__dataclass_fields__") and type(node).__name__ not in _NODE_DATA:
            count += 1
            stack.extend(getattr(node, name) for name in node.__dataclass_fields__)
    return count


def _closure_counts(closure) -> dict[str, int]:
    entries = closure.entries
    return {
        "scopes.closure_entries": len(entries),
        "scopes.closure_pairs": len({(e.visible_name, e.symbol.fqn) for e in entries}),
    }


# (module, function, span name, counts taken from the result)
LAYERS = [
    ("ml1.tokens", "tokenize", "tokens.tokenize", lambda r: {"tokens.count": len(r)}),
    ("ml1.parser", "parse_unit", "parser.parse_unit", lambda r: {"parser.nodes": _nodes(r)}),
    (
        "ml1.scopes",
        "build_scope_graph",
        "scopes.build_scope_graph",
        lambda r: {
            "scopes.symbols": len(r.symbols),
            "scopes.export_edges": sum(len(edges) for edges in r.exports.values()),
        },
    ),
    ("ml1.scopes", "export_closure", "scopes.export_closure", _closure_counts),
    (
        "ml1.resolve",
        "resolve_units",
        "resolve.resolve_units",
        lambda r: {
            "resolve.refs": len(r.records),
            "resolve.unresolved": sum(1 for rec in r.records if rec.symbol is None),
        },
    ),
    (
        "ml1.resolve",
        "implicit_candidates",
        "resolve.implicit_candidates",
        lambda r: {"resolve.implicit_candidates.found": len(r)},
    ),
    (
        "ml1.resolve",
        "check_context_consistency",
        "resolve.check_context_consistency",
        lambda r: {"resolve.divergences": len(r)},
    ),
    ("ml1.rewrite", "bind_rewriter", "rewrite.bind_rewriter", None),
    (
        "ml1.rewrite",
        "apply_rewriter",
        "rewrite.apply_rewriter",
        lambda r: {
            "rewrite.templates_touched": r[1].templates_touched,
            "rewrite.nodes_replaced": r[1].nodes_replaced,
        },
    ),
    ("ml1.printer", "pretty_print", "printer.pretty_print", lambda r: {"printer.bytes": len(r.encode())}),
    ("ml1.interp", "run", "interp.run", lambda r: {"interp.events": len(r.events)}),
    ("ml1.cli", "main", "cli.main", None),
]

COUNTERS = [
    "tokens.count",
    "parser.nodes",
    "scopes.symbols",
    "scopes.export_edges",
    "scopes.closure_entries",
    "scopes.closure_pairs",
    "resolve.refs",
    "resolve.unresolved",
    "resolve.implicit_candidates.found",
    "resolve.divergences",
    "rewrite.templates_touched",
    "rewrite.nodes_replaced",
    "printer.bytes",
    "interp.events",
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    command: str
    excluded: float  # counting time inside this span

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.excluded


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.command = ""
        self._stack: list[int] = []
        self._excluded = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.calls = defaultdict(int)

    def install(self) -> None:
        loaded = [mod for name, mod in sys.modules.items() if name == "ml1" or name.startswith("ml1.")]
        for module_name, function, span_name, count in LAYERS:
            original = getattr(importlib.import_module(module_name), function)
            wrapper = self._wrap(span_name, original, count)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in self._patched:
            setattr(mod, attr, original)
        self._patched = []

    def _wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            excluded = self._excluded
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, self.command, self._excluded - excluded)
            begin = time.perf_counter()
            self.calls[name] += 1
            if count is not None:
                for key, value in count(result).items():
                    self.counts[key] += value
            self._excluded += time.perf_counter() - begin
            return result

        return traced

    def self_times(self) -> list[float]:
        """Each span's time minus the time of the spans directly inside it."""
        own = [span.seconds for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.seconds
        return own

    def metrics(self) -> dict[str, float]:
        """Summed time, self time and calls per layer, plus per-command CLI
        time and the CLI's own time outside every layer span."""
        out: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[f"{span.name}.s"] += span.seconds
            out[f"{span.name}.self_s"] += own
            if span.name == "cli.main":
                out[f"cli.main.{span.command}.s"] += span.seconds
                out[f"cli.self.{span.command}.s"] += own
        out["cli.self.s"] = out.pop("cli.main.self_s", 0.0)
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
        for key in COUNTERS:
            out[key] = self.counts.get(key, 0)
        entries = out["scopes.closure_entries"]
        out["scopes.closure_pairs_per_entry"] = out["scopes.closure_pairs"] / entries if entries else 1.0
        return dict(out)

    def span_records(self, workload: str) -> list[dict]:
        return [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "self": own,
                "parent": span.parent,
                "workload": workload,
                "command": span.command,
            }
            for span, own in zip(self.spans, self.self_times())
        ]
