"""Recursive-descent parser for ml1 compilation units.

Statements inside braces are separated by newlines or `;`. A call's `(`
must sit on the same line as its callee; the intrinsic block forms
(`__frame {`, `thunk {`) likewise require the `{` on the same line, which
keeps statement boundaries unambiguous without semicolon inference.
"""

from __future__ import annotations

import sys

from ml1 import ast
from ml1.tokens import END, IDENT, KEYWORD, LITERAL, PUNCT, Span, Token, string_value

# Annotated imports are only legal as template statements.
E_ANNOTATION_AT_TOP_LEVEL = "E_ANNOTATION_AT_TOP_LEVEL"
E_NESTING_TOO_DEEP = "E_NESTING_TOO_DEEP"
E_INTEGER_TOO_LONG = "E_INTEGER_TOO_LONG"

# Blocks and argument lists nest at most this deep. Every later phase
# recurses over the tree, so the limit sits well below Python's recursion
# limit. A `defer { ... }` counts as two levels, the depth of the
# `__defer(thunk { ... })` that `go.defer` lowers it to, so a rewritten
# unit parses again.
MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, span: Span, expected: str, found: str, code: str | None = None):
        super().__init__(f"{span.start}-{span.end}: expected {expected}, found {found}")
        self.span = span
        self.code = code


def parse_unit(tokens: list[Token], source_name: str = "<unit>") -> ast.CompilationUnit:
    return _Parser(tokens, source_name).unit()


_new = tuple.__new__  # `_new(Span, (start, end))` builds a Span without `Span.__new__`'s Python frame
_NAME_KINDS = (IDENT, KEYWORD)  # what may follow a dot in a path


class _Parser:
    """Reads the tokens as parallel columns, one tuple per `Token` field,
    indexed by `pos`. The productions most tokens pass through (`expr`,
    `ref_or_call`, `qual_id`, `comma_list`, `statements`, `def_decl`,
    `block`) index the columns themselves; the rest use the helpers."""

    def __init__(self, tokens: list[Token], source_name: str):
        # One END token follows the real ones. It has the last token's span,
        # so an error at the end of input points there. The parser only
        # looks one token past a real one, so it never reads past END.
        end = tokens[-1]._replace(kind=END, text="end of input") if tokens else Token(END, "end of input", 0, 0, 1)
        self.kinds, self.texts, self.starts, self.ends, self.lines = zip(*tokens, end)
        self.pos = 0
        self.source_name = source_name
        self.nesting = 0

    # Token access helpers.

    def at(self, text: str, offset: int = 0) -> bool:
        return self.texts[self.pos + offset] == text

    def take(self) -> str:
        """The current token's text, moving past it."""
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, text: str) -> int:
        """Move past the current token, which must be `text`; its start."""
        pos = self.pos
        if self.texts[pos] != text:
            raise self.error(repr(text), self.texts[pos])
        self.pos = pos + 1
        return self.starts[pos]

    def expect_ident(self, what: str = "an identifier") -> str:
        pos = self.pos
        if self.kinds[pos] != IDENT:
            raise self.error(what, self.texts[pos])
        self.pos = pos + 1
        return self.texts[pos]

    def error(self, expected: str, found: str, code: str | None = None) -> ParseError:
        return ParseError(Span(self.starts[self.pos], self.ends[self.pos]), expected, found, code)

    def nest(self) -> None:
        """Enter a block, an argument list or a defer's extra level, opening
        at the current token."""
        if self.nesting == MAX_NESTING:
            raise self.error(
                f"at most {MAX_NESTING} nested blocks and argument lists (a defer counts two)",
                f"{MAX_NESTING + 1} levels",
                code=E_NESTING_TOO_DEEP,
            )
        self.nesting += 1

    def span_from(self, start: int) -> Span:
        return Span(start, self.ends[self.pos - 1] if self.pos > 0 else 0)

    # Grammar productions.

    def unit(self) -> ast.CompilationUnit:
        package: ast.QualName = ()
        if self.at("package") and not self.at("object", 1):
            self.take()
            package = self.qual_id()
        stats: list[ast.TopStat] = []
        while self.kinds[self.pos] != END:
            if stats or package:
                self.statement_boundary()
            if self.kinds[self.pos] == END:
                break
            stats.append(self.top_stat())
        return ast.CompilationUnit(package, tuple(stats), self.source_name)

    def top_stat(self) -> ast.TopStat:
        if self.at("@"):
            raise self.error(
                "a top-level statement",
                "an annotated import (only allowed inside templates)",
                code=E_ANNOTATION_AT_TOP_LEVEL,
            )
        if self.at("import"):
            return self.import_clause(())
        if self.at("implicit") or self.at("object") or self.at("trait") or self.at("package"):
            return self.template_def()
        raise self.error("'import' or a template definition", self.texts[self.pos])

    def template_def(self) -> ast.TemplateDef:
        start = self.starts[self.pos]
        is_implicit = False
        if self.at("implicit"):
            self.take()
            is_implicit = True
        if self.at("package"):
            self.take()
            self.expect("object")
            kind = ast.PACKAGE_OBJECT
        elif self.at("trait"):
            self.take()
            kind = ast.TRAIT
        else:
            self.expect("object")
            kind = ast.OBJECT
        if is_implicit and kind != ast.OBJECT:
            found = "trait" if kind == ast.TRAIT else "package object"
            raise ParseError(self.span_from(start), "'object' after 'implicit'", found)
        name = self.expect_ident("a template name")
        parents: list[ast.QualName] = []
        if self.at("extends"):
            self.take()
            parents.append(self.qual_id())
            while self.at("with"):
                self.take()
                parents.append(self.qual_id())
        self.expect("{")
        stats = self.statements(self.template_stat)
        return ast.TemplateDef(kind, name, tuple(parents), stats, is_implicit, self.span_from(start))

    def template_stat(self) -> ast.TemplateStat:
        if self.at("@"):
            annotations = self.annotations()
            if not self.at("import"):
                raise self.error("'import' after annotations", self.texts[self.pos])
            return self.import_clause(annotations)
        if self.at("import"):
            return self.import_clause(())
        return self.block_stat()

    def block_stat(self) -> ast.Stat:
        text = self.texts[self.pos]
        return self.def_decl() if text == "def" or text == "val" else self.expr()

    def annotations(self) -> tuple[str, ...]:
        names: list[str] = []
        while self.at("@"):
            self.take()
            names.append(self.expect_ident("an annotation name"))
        return tuple(names)

    def import_clause(self, annotations: tuple[str, ...]) -> ast.ImportClause:
        start = self.expect("import")
        parts = [self.expect_ident("an import path")]
        self.expect(".")
        # Keywords are allowed as path segments after the first dot.
        while self.kinds[self.pos] in _NAME_KINDS and self.at(".", 1):
            parts.append(self.take())
            self.take()
        kind, text = self.kinds[self.pos], self.texts[self.pos]
        if kind == END:
            raise self.error("an import selector", text)
        if text == "_" and kind == PUNCT:
            self.take()
            selectors = ast.WILDCARD
        elif text == "{":
            selectors = self.selector_list()
        elif kind in _NAME_KINDS:
            name = self.take()
            selectors = ast.ImportSelectors(wildcard=False, names=(ast.Selector(name, name),))
        else:
            raise self.error("an identifier, '_' or '{'", text)
        return ast.ImportClause(annotations, tuple(parts), selectors, self.span_from(start))

    def selector_list(self) -> ast.ImportSelectors:
        self.expect("{")
        names: list[ast.Selector] = []
        wildcard = False
        while True:
            kind, text = self.kinds[self.pos], self.texts[self.pos]
            if kind == END:
                raise self.error("an import selector", text)
            if text == "_" and kind == PUNCT:
                self.take()
                wildcard = True
                break
            source = self.expect_ident("a selector name")
            target: str | None = source
            if self.at("=>"):
                self.take()
                if self.at("_"):
                    self.take()
                    target = ast.HIDDEN
                else:
                    target = self.expect_ident("a rename target or '_'")
            names.append(ast.Selector(source, target))
            if not self.at(","):
                break
            self.take()
        self.expect("}")
        targets = [s.target for s in names if s.target is not None]
        if len(set(targets)) != len(targets):
            raise self.error("distinct selector targets", "a duplicate rename target")
        return ast.ImportSelectors(wildcard=wildcard, names=tuple(names))

    def def_decl(self) -> ast.DefDecl:
        pos = self.pos
        start = self.starts[pos]
        if self.texts[pos] == "val":
            self.pos = pos + 1
            name = self.expect_ident("a val name")
            self.expect("=")
            body = self.expr()
            return ast.DefDecl(name, (), body, True, _new(Span, (start, self.ends[self.pos - 1])))
        self.expect("def")
        name = self.expect_ident("a def name")
        self.expect("(")
        params = self.comma_list(self.param)
        self.expect("=")
        if self.texts[self.pos] == "{":
            body: ast.Expr = self.block()
        else:
            body = self.expr()
            if not isinstance(body, ast.FrameExpr):
                raise ParseError(body.span, "a block body", "an expression")
        return ast.DefDecl(name, tuple(params), body, False, _new(Span, (start, self.ends[self.pos - 1])))

    def param(self) -> str:
        return self.expect_ident("a parameter name")

    def block(self) -> ast.Block:
        self.nest()
        start = self.expect("{")
        stats = self.statements(self.block_stat)
        self.nesting -= 1
        return ast.Block(stats, _new(Span, (start, self.ends[self.pos - 1])))

    def statements(self, statement) -> tuple:
        """`statement`s separated by boundaries, up to and including `}`."""
        texts = self.texts
        stats: list = []
        while texts[self.pos] != "}":
            if stats:
                self.statement_boundary()
                if texts[self.pos] == "}":
                    break
            stats.append(statement())
        self.pos += 1
        return tuple(stats)

    def statement_boundary(self) -> None:
        """Require `;`, a line break, or a closing brace between statements."""
        pos = self.pos
        text = self.texts[pos]
        if text == ";":
            self.pos = pos + 1
        elif self.lines[pos] <= self.lines[pos - 1] and text != "}" and self.kinds[pos] != END:
            raise self.error("a newline or ';' between statements", text)

    def expr(self) -> ast.Expr:
        pos = self.pos
        kind = self.kinds[pos]
        text = self.texts[pos]
        if kind == LITERAL:
            self.pos = pos + 1
            span = _new(Span, (self.starts[pos], self.ends[pos]))
            if text[0] == '"':
                return ast.StrLit(string_value(text), span)
            try:
                return ast.IntLit(int(text), span)
            except ValueError:  # more digits than `int` converts from text
                expected = f"an integer literal of at most {sys.get_int_max_str_digits()} digits"
                raise ParseError(span, expected, f"{len(text)} digits", E_INTEGER_TOO_LONG) from None
        if text == "{":
            return self.block()
        if text == "defer":
            self.pos = pos + 1
            self.nest()
            body = self.block()
            self.nesting -= 1
            return ast.DeferCandidate(body, _new(Span, (self.starts[pos], body.span.end)))
        if kind == IDENT:
            if (
                (text == "__frame" or text == "thunk")
                and self.texts[pos + 1] == "{"
                and self.lines[pos + 1] == self.lines[pos]
            ):
                self.pos = pos + 1
                body = self.block()
                node = ast.FrameExpr if text == "__frame" else ast.ThunkExpr
                return node(body, _new(Span, (self.starts[pos], body.span.end)))
            return self.ref_or_call()
        raise self.error("an expression", text)

    def ref_or_call(self) -> ast.Expr:
        start = self.starts[self.pos]
        parts = self.qual_id("a reference")
        pos = self.pos
        ref = ast.Ref(parts, _new(Span, (start, self.ends[pos - 1])))
        if self.texts[pos] != "(" or self.lines[pos] != self.lines[pos - 1]:
            return ref
        self.nest()
        self.pos = pos + 1
        args = self.comma_list(self.expr)
        self.nesting -= 1
        span = _new(Span, (start, self.ends[self.pos - 1]))
        if parts == ("__defer",):
            if len(args) != 1 or not isinstance(args[0], ast.ThunkExpr):
                raise ParseError(span, "__defer(thunk { ... })", "other arguments")
            return ast.DeferRegister(args[0], span)
        return ast.Call(ref, tuple(args), span)

    def comma_list(self, item) -> list:
        """`item`s separated by commas, up to and including `)`."""
        texts = self.texts
        items = []
        if texts[self.pos] != ")":
            items.append(item())
            while texts[self.pos] == ",":
                self.pos += 1
                items.append(item())
        if texts[self.pos] != ")":
            raise self.error("')'", texts[self.pos])
        self.pos += 1
        return items

    def qual_id(self, what: str = "a qualified name") -> ast.QualName:
        kinds, texts, pos = self.kinds, self.texts, self.pos
        if kinds[pos] != IDENT:
            raise self.error(what, texts[pos])
        parts = [texts[pos]]
        pos += 1
        while texts[pos] == "." and kinds[pos + 1] in _NAME_KINDS:
            parts.append(texts[pos + 1])
            pos += 2
        self.pos = pos
        return tuple(parts)
