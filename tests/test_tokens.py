import random

import pytest
from hypothesis import given, settings, strategies as st

from ml1.printer import pretty_print
from ml1.tokens import (
    E_ILLEGAL_CHARACTER,
    E_UNSUPPORTED_ESCAPE,
    IDENT,
    KEYWORD,
    LITERAL,
    PUNCT,
    LexError,
    string_value,
    tokenize,
)

from conftest import FRAGMENTS
from gen import random_unit, reference_tokenize


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source)]


def test_wildcard_import_tokens():
    assert kinds_and_texts("import a.b._") == [
        (KEYWORD, "import"),
        (IDENT, "a"),
        (PUNCT, "."),
        (IDENT, "b"),
        (PUNCT, "."),
        (PUNCT, "_"),
    ]


def test_empty_input():
    assert tokenize("") == []


def test_annotated_import_leading_tokens():
    tokens = kinds_and_texts("@exported import A._")
    assert tokens[:3] == [(PUNCT, "@"), (IDENT, "exported"), (KEYWORD, "import")]


def test_comments_and_whitespace_are_skipped():
    assert kinds_and_texts("a // trailing comment\n  b") == [(IDENT, "a"), (IDENT, "b")]


def test_arrow_and_equals_are_distinct():
    assert kinds_and_texts("= =>") == [(PUNCT, "="), (PUNCT, "=>")]


def test_string_literal_keeps_raw_text():
    (token,) = tokenize('"hi\\nthere"')
    assert token.kind == LITERAL
    assert token.text == '"hi\\nthere"'
    assert string_value(token.text) == "hi\nthere"


def test_underscore_alone_is_punctuation_but_named_underscores_are_idents():
    assert kinds_and_texts("_ __frame _x") == [
        (PUNCT, "_"),
        (IDENT, "__frame"),
        (IDENT, "_x"),
    ]


def test_unterminated_string_is_a_lex_error():
    with pytest.raises(LexError):
        tokenize('"never closed')


def test_illegal_character_is_a_lex_error():
    with pytest.raises(LexError):
        tokenize("a ? b")


@pytest.mark.parametrize(
    "source, span",
    [
        ('object A { val x = "ab\\q"', (22, 24)),
        ('object A { val x = "ab\\', (22, 23)),  # the backslash is the text's last character
    ],
    ids=["inside", "at-the-end"],
)
def test_an_unsupported_escape_spans_its_characters_inside_the_text(source, span):
    for lex in (tokenize, reference_tokenize):
        with pytest.raises(LexError) as info:
            lex(source)
        assert info.value.code == E_UNSUPPORTED_ESCAPE
        assert (info.value.span.start, info.value.span.end) == span


@pytest.mark.parametrize(
    "source, offset",
    [
        ("print(²)", 6),  # superscript digit: str.isdigit accepts it, int() does not
        ("print(٣)", 6),  # Arabic-Indic digit
        ("val é = 1", 4),  # non-ASCII letter
        ("x1²", 2),  # non-ASCII digit inside an identifier
        ("a\u00a0b", 1),  # no-break space
    ],
)
def test_non_ascii_characters_are_coded_lex_errors(source, offset):
    with pytest.raises(LexError) as info:
        tokenize(source)
    assert info.value.code == E_ILLEGAL_CHARACTER
    assert (info.value.span.start, info.value.span.end) == (offset, offset + 1)


def test_non_ascii_text_inside_strings_and_comments_is_kept():
    assert kinds_and_texts('"²é" // ٣ ü\nx') == [(LITERAL, '"²é"'), (IDENT, "x")]


def test_line_numbers_follow_newlines():
    tokens = tokenize("a\nb\n\nc")
    assert [t.line for t in tokens] == [1, 2, 4]


def test_spans_reconstruct_generated_sources():
    rng = random.Random(7)
    for _ in range(50):
        source = pretty_print(random_unit(rng))
        tokens = tokenize(source)
        last_end = 0
        for token in tokens:
            assert token.span.start >= last_end
            assert source[token.span.start : token.span.end] == token.text
            gap = source[last_end : token.span.start]
            assert gap.strip() == "" or gap.lstrip().startswith("//")
            last_end = token.span.end


# Fragments near the lexical grammar: non-ASCII letters and digits, every
# blank, a lone `/` and a comment that runs to the end of the text.
LEX_FRAGMENTS = FRAGMENTS + [
    "é", "Ж", "ß", "²", "٣", "\u00a0", "\t", "\r", "\f", "\v", "/", "a/b", "//c", "7x", "_1",
]
# String literals with each escape, unsupported ones near them and a
# backslash before any character, closed or cut off by a newline, by a
# backslash or by what follows them (the end of the text when they come last).
STRING_PIECES = st.one_of(
    st.sampled_from(["\\n", "\\t", '\\"', "\\\\", "\\r", "\\N", "\\0", "\\'", "\\ ", "\\é"]),
    st.characters().map(lambda ch: "\\" + ch),
    st.text(max_size=3),
)
STRINGS = st.builds(
    lambda body, stop: '"' + body + stop,
    st.lists(STRING_PIECES, max_size=5).map("".join),
    st.sampled_from(['"', "\n", "\\", ""]),
)
SOUP = st.lists(st.one_of(st.sampled_from(LEX_FRAGMENTS), STRINGS), max_size=30).map("".join)
LEX_SOURCES = st.one_of(
    SOUP,
    SOUP.map(lambda source: source + "// end"),
    st.text(alphabet=st.sampled_from("ab_19 \n\t\r\f\v\"\\/=>.{}é²"), max_size=40),
    st.text(max_size=30),
)


def lex_outcome(lex, source):
    """The tokens as tuples, or the error's code, span and message."""
    try:
        return [tuple(token) for token in lex(source)]
    except LexError as err:
        return (err.code, err.span.start, err.span.end, err.message)


@settings(max_examples=700, derandomize=True, deadline=None)
@given(source=LEX_SOURCES)
def test_tokenize_matches_the_reference_lexer(source):
    assert lex_outcome(tokenize, source) == lex_outcome(reference_tokenize, source)
