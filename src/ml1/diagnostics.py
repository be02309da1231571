"""Shared diagnostic records for the semantic phases."""

from __future__ import annotations

from ml1.record import Record
from ml1.tokens import Span

E_DUPLICATE_SYMBOL = "E_DUPLICATE_SYMBOL"
E_UNKNOWN_IMPORT_ANNOTATION = "E_UNKNOWN_IMPORT_ANNOTATION"
E_UNRESOLVED_IMPORT_PATH = "E_UNRESOLVED_IMPORT_PATH"
E_UNRESOLVED_PARENT = "E_UNRESOLVED_PARENT"
E_CYCLIC_INHERITANCE = "E_CYCLIC_INHERITANCE"
E_UNRESOLVED = "E_UNRESOLVED"
E_AMBIGUOUS = "E_AMBIGUOUS"
E_FORWARD_REFERENCE = "E_FORWARD_REFERENCE"
E_AMBIGUOUS_IMPLICIT = "E_AMBIGUOUS_IMPLICIT"
E_UNREGISTERED_REWRITER = "E_UNREGISTERED_REWRITER"
E_REWRITER_CYCLE = "E_REWRITER_CYCLE"
E_DEFER_OUTSIDE_METHOD = "E_DEFER_OUTSIDE_METHOD"
E_REWRITE = "E_REWRITE"
E_NO_ENTRY = "E_NO_ENTRY"
E_NO_FRAME = "E_NO_FRAME"
E_CYCLIC_VAL = "E_CYCLIC_VAL"


class Diagnostic(Record):
    code: str
    message: str
    unit: str | None = None
    span: Span | None = None
    candidates: tuple[str, ...] = ()

    def render(self) -> str:
        where = self.unit or "<project>"
        if self.span is not None:
            where += f":{self.span.start}-{self.span.end}"
        text = f"{where}: {self.code}: {self.message}"
        if self.candidates:
            text += " (" + ", ".join(self.candidates) + ")"
        return text


class SemanticError(Exception):
    """Raised by phases that cannot return a partial result."""

    def __init__(self, diagnostic: Diagnostic):
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    @property
    def code(self) -> str:
        return self.diagnostic.code


class Divergence(Record):
    """Two units settling on different providers for one marker type."""

    marker: str
    unit_a: str
    unit_b: str
    symbol_a: str
    symbol_b: str

    def render(self) -> str:
        return (
            f"DIVERGENCE {self.marker} "
            f"{self.unit_a}:{self.symbol_a} != {self.unit_b}:{self.symbol_b}"
        )
