"""Lexer for ml1 source text.

Tokens carry the raw source slice they came from, so concatenating token
texts plus the skipped whitespace/comments reproduces the input exactly.
"""

from __future__ import annotations

import re
from itertools import accumulate, islice, repeat
from operator import add, itemgetter, sub
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

# Each match is the gap before a token (blanks, newlines and `//` comments)
# and then the token, so `findall` yields one (gap, token, stray) triple per
# token. The character classes are ASCII only: `str.isdigit` and friends also
# accept characters such as "²" that `int()` and the rest of the pipeline
# reject. A string here is a closed one. At a character no token starts
# with, the `stray` group takes it, so the scan never skips text and never
# backtracks into the gap; `_error` then says what is wrong there. The
# last match or two, at the end of the text, hold no token.
_TOKEN = re.compile(
    r"""
    ([ \t\r\f\v\n]*(?://[^\n]*[ \t\r\f\v\n]*)*)
    (?:
        ([A-Za-z_][A-Za-z0-9_]*|[0-9]+|"[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*"|=>|[.,{}()@;=])
        | (.)
        | \Z
    )
    """,
    re.VERBOSE,
)
# A string from its opening quote: what stops it, the `stop` group, tells a
# closed string from an unsupported escape, and no stop at all means a
# newline or the end of the text cut it off. Only an error needs it, so `re`
# compiles it then, not at every start-up.
_STRING = r'"(?:[^"\\\n]|\\[nt"\\])*(?P<stop>["\\])?'

# A token's kind: a keyword or `_` by its text, any other by its first character.
_KIND_OF_WORD = {**dict.fromkeys(KEYWORDS, KEYWORD), "_": PUNCT}
_KIND_OF_FIRST = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", IDENT),
    **dict.fromkeys('0123456789"', LITERAL),
    **dict.fromkeys(".,{}()@;=", PUNCT),
}


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
    gaps, texts, strays = zip(*_TOKEN.findall(source))
    ends = list(accumulate(map(add, map(len, gaps), map(len, texts))))
    if any(strays):
        raise _error(source, next(end for end, stray in zip(ends, strays) if stray))
    texts = texts[: len(texts) - 1 - (len(texts) > 1 and not texts[-2])]  # the matches at the end hold none
    kinds = map(_KIND_OF_WORD.get, texts, map(_KIND_OF_FIRST.__getitem__, map(itemgetter(0), texts)))
    starts = map(sub, ends, map(len, texts))
    lines = islice(accumulate(map(str.count, gaps, repeat("\n")), initial=1), 1, None)
    return list(map(tuple.__new__, repeat(Token), zip(kinds, texts, starts, ends, lines)))


def _error(source: str, offset: int) -> LexError:
    """The error at `offset`, where no token starts."""
    string = re.compile(_STRING).match(source, offset)
    if string is None:
        return LexError(Span(offset, offset + 1), f"illegal character {source[offset]!r}", E_ILLEGAL_CHARACTER)
    end = string.end()
    if string.group("stop") is None:
        return LexError(Span(offset, end), "unterminated string literal", E_UNTERMINATED_STRING)
    # A stop that is no closing quote is a backslash: the escape's two
    # characters, or the backslash alone at the end of the text.
    return LexError(Span(end - 1, min(end + 1, len(source))), "unsupported escape sequence", E_UNSUPPORTED_ESCAPE)
