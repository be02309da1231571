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


class _Parser:
    def __init__(self, tokens: list[Token], source_name: str):
        # One END token follows the real ones. It has the last token's span,
        # so an error at the end of input points there. The parser only
        # looks one token past a real one, so it never reads past END.
        end = tokens[-1]._replace(kind=END, text="end of input") if tokens else Token(END, "end of input", 0, 0, 1)
        self.tokens = [*tokens, end]
        self.pos = 0
        self.source_name = source_name
        self.nesting = 0

    # Token access helpers.

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def at(self, text: str, offset: int = 0) -> bool:
        return self.tokens[self.pos + offset].text == text

    def take(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(repr(text), tok.text)
        return self.take()

    def expect_ident(self, what: str = "an identifier") -> Token:
        tok = self.peek()
        if tok.kind != IDENT:
            raise self.error(what, tok.text)
        return self.take()

    def error(self, expected: str, found: str, code: str | None = None) -> ParseError:
        return ParseError(self.peek().span, expected, found, code)

    def prev_line(self) -> int:
        return self.tokens[self.pos - 1].line if self.pos > 0 else 0

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
        end = self.tokens[self.pos - 1].end if self.pos > 0 else 0
        return Span(start, end)

    # Grammar productions.

    def unit(self) -> ast.CompilationUnit:
        package: ast.QualName = ()
        if self.at("package") and not self.at("object", 1):
            self.take()
            package = self.qual_id()
        stats: list[ast.TopStat] = []
        while self.peek().kind != END:
            if stats or package:
                self.statement_boundary()
            if self.peek().kind == END:
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
        raise self.error("'import' or a template definition", self.peek().text)

    def template_def(self) -> ast.TemplateDef:
        start = self.peek().start
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
        name = self.expect_ident("a template name").text
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
                raise self.error("'import' after annotations", self.peek().text)
            return self.import_clause(annotations)
        if self.at("import"):
            return self.import_clause(())
        if self.at("def") or self.at("val"):
            return self.def_decl()
        return self.expr()

    def annotations(self) -> tuple[str, ...]:
        names: list[str] = []
        while self.at("@"):
            self.take()
            names.append(self.expect_ident("an annotation name").text)
        return tuple(names)

    def import_clause(self, annotations: tuple[str, ...]) -> ast.ImportClause:
        start = self.expect("import").start
        parts = [self.expect_ident("an import path").text]
        self.expect(".")
        # Keywords are allowed as path segments after the first dot.
        while self.peek().kind in (IDENT, KEYWORD) and self.at(".", 1):
            parts.append(self.take().text)
            self.take()
        tok = self.peek()
        if tok.kind == END:
            raise self.error("an import selector", tok.text)
        if tok.text == "_" and tok.kind == PUNCT:
            self.take()
            selectors = ast.WILDCARD
        elif tok.text == "{":
            selectors = self.selector_list()
        elif tok.kind in (IDENT, KEYWORD):
            name = self.take().text
            selectors = ast.ImportSelectors(wildcard=False, names=(ast.Selector(name, name),))
        else:
            raise self.error("an identifier, '_' or '{'", tok.text)
        return ast.ImportClause(annotations, tuple(parts), selectors, self.span_from(start))

    def selector_list(self) -> ast.ImportSelectors:
        self.expect("{")
        names: list[ast.Selector] = []
        wildcard = False
        while True:
            tok = self.peek()
            if tok.kind == END:
                raise self.error("an import selector", tok.text)
            if tok.text == "_" and tok.kind == PUNCT:
                self.take()
                wildcard = True
                break
            source = self.expect_ident("a selector name").text
            target: str | None = source
            if self.at("=>"):
                self.take()
                if self.at("_"):
                    self.take()
                    target = ast.HIDDEN
                else:
                    target = self.expect_ident("a rename target or '_'").text
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
        start = self.peek().start
        if self.at("val"):
            self.take()
            name = self.expect_ident("a val name").text
            self.expect("=")
            body = self.expr()
            return ast.DefDecl(name, (), body, True, self.span_from(start))
        self.expect("def")
        name = self.expect_ident("a def name").text
        self.expect("(")
        params = self.comma_list(lambda: self.expect_ident("a parameter name").text)
        self.expect("=")
        if self.at("{"):
            body: ast.Expr = self.block()
        else:
            body = self.expr()
            if not isinstance(body, ast.FrameExpr):
                raise ParseError(body.span, "a block body", "an expression")
        return ast.DefDecl(name, tuple(params), body, False, self.span_from(start))

    def block(self) -> ast.Block:
        self.nest()
        start = self.expect("{").start
        stats = self.statements(lambda: self.def_decl() if self.at("def") or self.at("val") else self.expr())
        self.nesting -= 1
        return ast.Block(stats, self.span_from(start))

    def statements(self, statement) -> tuple:
        """`statement`s separated by boundaries, up to and including `}`."""
        stats: list = []
        while not self.at("}"):
            if stats:
                self.statement_boundary()
            if self.at("}"):
                break
            stats.append(statement())
        self.expect("}")
        return tuple(stats)

    def statement_boundary(self) -> None:
        """Require `;`, a line break, or a closing brace between statements."""
        tok = self.peek()
        if tok.kind == END or tok.text == "}":
            return
        if tok.text == ";":
            self.take()
            return
        if tok.line > self.prev_line():
            return
        raise self.error("a newline or ';' between statements", tok.text)

    def expr(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == LITERAL:
            self.take()
            if tok.text.startswith('"'):
                return ast.StrLit(string_value(tok.text), tok.span)
            try:
                return ast.IntLit(int(tok.text), tok.span)
            except ValueError:  # more digits than `int` converts from text
                expected = f"an integer literal of at most {sys.get_int_max_str_digits()} digits"
                raise ParseError(tok.span, expected, f"{len(tok.text)} digits", E_INTEGER_TOO_LONG) from None
        if tok.text == "{":
            return self.block()
        if tok.text == "defer":
            self.take()
            self.nest()
            body = self.block()
            self.nesting -= 1
            return ast.DeferCandidate(body, Span(tok.start, body.span.end))
        if tok.kind == IDENT:
            if tok.text == "__frame" and self.at("{", 1) and self.peek(1).line == tok.line:
                self.take()
                body = self.block()
                return ast.FrameExpr(body, Span(tok.start, body.span.end))
            if tok.text == "thunk" and self.at("{", 1) and self.peek(1).line == tok.line:
                self.take()
                body = self.block()
                return ast.ThunkExpr(body, Span(tok.start, body.span.end))
            return self.ref_or_call()
        raise self.error("an expression", tok.text)

    def ref_or_call(self) -> ast.Expr:
        start = self.peek().start
        parts = self.qual_id("a reference")
        ref = ast.Ref(parts, self.span_from(start))
        if not (self.at("(") and self.peek().line == self.prev_line()):
            return ref
        self.nest()
        self.take()
        args = self.comma_list(self.expr)
        self.nesting -= 1
        span = self.span_from(start)
        if parts == ("__defer",):
            if len(args) != 1 or not isinstance(args[0], ast.ThunkExpr):
                raise ParseError(span, "__defer(thunk { ... })", "other arguments")
            return ast.DeferRegister(args[0], span)
        return ast.Call(ref, tuple(args), span)

    def comma_list(self, item) -> list:
        """`item`s separated by commas, up to and including `)`."""
        items = []
        if not self.at(")"):
            items.append(item())
            while self.at(","):
                self.take()
                items.append(item())
        self.expect(")")
        return items

    def qual_id(self, what: str = "a qualified name") -> ast.QualName:
        parts = [self.expect_ident(what).text]
        while self.at(".") and self.peek(1).kind in (IDENT, KEYWORD):
            self.take()
            parts.append(self.take().text)
        return tuple(parts)
