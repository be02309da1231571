"""Lexer for ml1 source text.

Tokens carry the raw source slice they came from, so concatenating token
texts plus the skipped whitespace/comments reproduces the input exactly.
"""

from __future__ import annotations

import re

from ml1.record import Record

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

_SINGLE_PUNCT = frozenset(".,{}()@;=_")

# Character classes are ASCII only: `str.isdigit` and friends also accept
# characters such as "²" that `int()` and the rest of the pipeline reject.
_DIGITS = frozenset("0123456789")
_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CHARS = _IDENT_START | _DIGITS
_BLANKS = frozenset(" \t\r\f\v")  # newlines are counted separately

# Lex error codes.
E_ILLEGAL_CHARACTER = "E_ILLEGAL_CHARACTER"
E_UNTERMINATED_STRING = "E_UNTERMINATED_STRING"
E_UNSUPPORTED_ESCAPE = "E_UNSUPPORTED_ESCAPE"

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class Span(Record, frozen=True):
    """Half-open byte range [start, end) into the source text."""

    start: int
    end: int


class Token(Record, frozen=True):
    kind: str
    text: str
    span: Span
    line: int  # 1-based; the parser uses it to separate statements


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
            elif text in KEYWORDS:
                kind = KEYWORD
            else:
                kind = IDENT
            tokens.append(Token(kind, text, Span(start, i), line))
            continue
        if ch in _DIGITS:
            while i < n and source[i] in _DIGITS:
                i += 1
            tokens.append(Token(LITERAL, source[start:i], Span(start, i), line))
            continue
        if ch == '"':
            i += 1
            while True:
                if i >= n or source[i] == "\n":
                    raise LexError(Span(start, i), "unterminated string literal", E_UNTERMINATED_STRING)
                if source[i] == "\\":
                    if i + 1 >= n or source[i + 1] not in _ESCAPES:
                        raise LexError(Span(i, i + 2), "unsupported escape sequence", E_UNSUPPORTED_ESCAPE)
                    i += 2
                    continue
                if source[i] == '"':
                    i += 1
                    break
                i += 1
            tokens.append(Token(LITERAL, source[start:i], Span(start, i), line))
            continue
        if source.startswith("=>", i):
            i += 2
            tokens.append(Token(PUNCT, "=>", Span(start, i), line))
            continue
        if ch in _SINGLE_PUNCT:
            i += 1
            tokens.append(Token(PUNCT, ch, Span(start, i), line))
            continue
        raise LexError(Span(i, i + 1), f"illegal character {ch!r}", E_ILLEGAL_CHARACTER)
    return tokens
