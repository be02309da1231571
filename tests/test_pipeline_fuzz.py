"""Whole-pipeline robustness: arbitrary well-formed projects may produce
diagnostics, but never internal exceptions."""

import random

from ml1.parser import parse_unit
from ml1.printer import pretty_print
from ml1.resolve import check_context_consistency, implicit_candidates, resolve_units
from ml1.scopes import REWRITER_MARKER, build_scope_graph, export_closure
from ml1.tokens import tokenize

from gen import random_unit


def test_random_projects_never_crash_the_pipeline():
    rng = random.Random(31337)
    for _ in range(120):
        units = []
        for index in range(rng.randint(1, 3)):
            text = pretty_print(random_unit(rng))
            units.append(parse_unit(tokenize(text), f"u{index}.ml1"))
        graph = build_scope_graph(units)
        for fqn, sym in graph.symbols.items():
            if sym.kind == "template":
                export_closure(graph, fqn)
        resolve_units(graph, units)
        for unit in units:
            found = implicit_candidates(graph, unit, REWRITER_MARKER)
            assert found == tuple(sorted(set(found), key=lambda sym: sym.fqn))
        check_context_consistency(graph, REWRITER_MARKER)
