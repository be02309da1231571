"""ml1: a small object language with re-exportable imports and
import-activated AST rewriting, plus an interpreter that makes the
rewritten defer semantics observable."""

__version__ = "0.1.0"

from ml1.interp import Trace, run
from ml1.parser import ParseError, parse_unit
from ml1.printer import pretty_print
from ml1.resolve import (
    check_context_consistency,
    erase_import_annotations,
    implicit_candidates,
    resolve_units,
)
from ml1.rewrite import apply_rewriter, bind_rewriter, builtin_registry, compose_rewriters
from ml1.scopes import build_scope_graph, export_closure
from ml1.tokens import LexError, Span, Token, tokenize

__all__ = [
    "LexError",
    "ParseError",
    "Span",
    "Token",
    "Trace",
    "__version__",
    "apply_rewriter",
    "bind_rewriter",
    "build_scope_graph",
    "builtin_registry",
    "check_context_consistency",
    "compose_rewriters",
    "erase_import_annotations",
    "export_closure",
    "implicit_candidates",
    "parse_unit",
    "pretty_print",
    "resolve_units",
    "run",
    "tokenize",
]
