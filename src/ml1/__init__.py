"""ml1: a small object language with re-exportable imports and
import-activated AST rewriting, plus an interpreter that makes the
rewritten defer semantics observable.

The public names below are imported on first use (PEP 562), so a command
that only parses never loads the semantic phases."""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule defining it.
_EXPORTS = {
    "LexError": "tokens",
    "ParseError": "parser",
    "Span": "tokens",
    "Token": "tokens",
    "Trace": "interp",
    "apply_rewriter": "rewrite",
    "bind_rewriter": "rewrite",
    "build_scope_graph": "scopes",
    "builtin_registry": "rewrite",
    "check_context_consistency": "resolve",
    "erase_import_annotations": "resolve",
    "export_closure": "scopes",
    "implicit_candidates": "resolve",
    "parse_unit": "parser",
    "pretty_print": "printer",
    "resolve_units": "resolve",
    "run": "interp",
    "tokenize": "tokens",
}

__all__ = sorted([*_EXPORTS, "__version__"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
