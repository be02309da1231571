"""Lexer for ml1 source text.

Tokens carry the raw source slice they came from, so concatenating token
texts plus the skipped whitespace/comments reproduces the input exactly.
"""

from __future__ import annotations

import re
from typing import NamedTuple

KEYWORDS = frozenset(
    {
        "package",
        "import",
        "object",
        "trait",
        "def",
        "val",
        "implicit",
        "extends",
        "with",
        "defer",
    }
)

# Token kinds.
KEYWORD = "keyword"
IDENT = "identifier"
PUNCT = "punctuation"
LITERAL = "literal"
END = "end"  # the parser's end-of-input token; `tokenize` never returns one

# Lex error codes.
E_ILLEGAL_CHARACTER = "E_ILLEGAL_CHARACTER"
E_UNTERMINATED_STRING = "E_UNTERMINATED_STRING"
E_UNSUPPORTED_ESCAPE = "E_UNSUPPORTED_ESCAPE"

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# One alternative per token class, tried in order at each position. The
# character classes are ASCII only: `str.isdigit` and friends also accept
# characters such as "²" that `int()` and the rest of the pipeline reject.
# A string runs over its characters and supported escapes; what stops it,
# the `stop` group, tells a closed string from an unsupported escape, and no
# stop at all means a newline or the end of the text cut it off. Anything
# else is one illegal character.
_SCAN = re.compile(
    r"""
    (?P<blank>[ \t\r\f\v]+|//[^\n]*)
    | (?P<newline>\n)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<integer>[0-9]+)
    | (?P<string>"(?:[^"\\\n]|\\[nt"\\])*(?P<stop>["\\])?)
    | (?P<punct>=>|[.,{}()@;=])
    | (?P<illegal>.)
    """,
    re.VERBOSE,
)


class Span(NamedTuple):
    """Half-open byte range [start, end) into the source text."""

    start: int
    end: int


class Token(NamedTuple):
    kind: str
    text: str
    start: int
    end: int
    line: int  # 1-based; the parser uses it to separate statements

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


class LexError(Exception):
    def __init__(self, span: Span, message: str, code: str):
        super().__init__(f"{span.start}-{span.end}: {message}")
        self.span = span
        self.message = message
        self.code = code


def string_value(raw: str) -> str:
    """Decode a raw string-literal token (including quotes) to its value."""
    return re.sub(r"\\(.)", lambda m: _ESCAPES[m.group(1)], raw[1:-1])


def tokenize(source: str) -> list[Token]:
    """Split source into tokens, skipping whitespace and `//` comments."""
    tokens: list[Token] = []
    line = 1
    for match in _SCAN.finditer(source):
        group = match.lastgroup
        if group == "blank":
            continue
        if group == "newline":
            line += 1
            continue
        start, end = match.span()
        text = match.group()
        if group == "word":
            kind = PUNCT if text == "_" else KEYWORD if text in KEYWORDS else IDENT
        elif group == "string":
            stop = match.group("stop")
            if stop is None:
                raise LexError(Span(start, end), "unterminated string literal", E_UNTERMINATED_STRING)
            if stop == "\\":
                # The escape's two characters, or the backslash alone at the end of the text.
                span = Span(end - 1, min(end + 1, len(source)))
                raise LexError(span, "unsupported escape sequence", E_UNSUPPORTED_ESCAPE)
            kind = LITERAL
        elif group == "illegal":
            raise LexError(Span(start, end), f"illegal character {text!r}", E_ILLEGAL_CHARACTER)
        else:
            kind = LITERAL if group == "integer" else PUNCT
        tokens.append(Token(kind, text, start, end, line))
    return tokens
