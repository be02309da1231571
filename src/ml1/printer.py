"""Canonical source rendering for ml1 trees.

Parsing the printed form of any well-formed unit yields a structurally
equal tree. One statement per line, two-space indentation, single plain
selectors printed in dotted form.
"""

from __future__ import annotations

from ml1 import ast

_INDENT = "  "

_STR_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t"}


def _quote(value: str) -> str:
    return '"' + "".join(_STR_ESCAPES.get(ch, ch) for ch in value) + '"'


def _selectors(sel: ast.ImportSelectors) -> str:
    if sel.wildcard and not sel.names:
        return "_"
    if not sel.wildcard and len(sel.names) == 1:
        only = sel.names[0]
        if only.target == only.source:
            return only.source
    parts = []
    for s in sel.names:
        if s.target == s.source:
            parts.append(s.source)
        elif s.target is ast.HIDDEN:
            parts.append(f"{s.source} => _")
        else:
            parts.append(f"{s.source} => {s.target}")
    if sel.wildcard:
        parts.append("_")
    return "{" + ", ".join(parts) + "}"


def _import_line(clause: ast.ImportClause) -> str:
    anns = "".join(f"@{a} " for a in clause.annotations)
    return f"{anns}import {ast.dotted(clause.path)}.{_selectors(clause.selectors)}"


def _expr_lines(expr: ast.Expr) -> list[str]:
    """Render an expression as lines; callers glue prefixes onto the first
    line and suffixes onto the last."""
    if isinstance(expr, ast.IntLit):
        return [str(expr.value)]
    if isinstance(expr, ast.StrLit):
        return [_quote(expr.value)]
    if isinstance(expr, ast.Ref):
        return [ast.dotted(expr.parts)]
    if isinstance(expr, ast.Call):
        return _call_lines(ast.dotted(expr.callee.parts), expr.args)
    if isinstance(expr, ast.Block):
        return _block_lines(expr)
    if isinstance(expr, ast.DeferCandidate):
        return _prefixed_block("defer ", expr.body)
    if isinstance(expr, ast.FrameExpr):
        return _prefixed_block("__frame ", expr.body)
    if isinstance(expr, ast.ThunkExpr):
        return _prefixed_block("thunk ", expr.body)
    if isinstance(expr, ast.DeferRegister):
        return _call_lines("__defer", (expr.thunk,))
    raise TypeError(f"not an expression node: {expr!r}")


def _call_lines(callee: str, args: tuple[ast.Expr, ...]) -> list[str]:
    lines = [callee + "("]
    for i, arg in enumerate(_expr_lines(a) for a in args):
        lines[-1] += (", " if i else "") + arg[0]
        lines.extend(arg[1:])
    lines[-1] += ")"
    return lines


def _prefixed_block(prefix: str, body: ast.Block) -> list[str]:
    lines = _block_lines(body)
    return [prefix + lines[0]] + lines[1:]


def _block_lines(block: ast.Block) -> list[str]:
    lines = ["{"]
    for stat in block.stats:
        lines.extend(_INDENT + line for line in _stat_lines(stat))
    lines.append("}")
    return lines


def _stat_lines(stat: ast.Stat) -> list[str]:
    if isinstance(stat, ast.DefDecl):
        return _def_lines(stat)
    return _expr_lines(stat)


def _def_lines(decl: ast.DefDecl) -> list[str]:
    head = f"val {decl.name} = " if decl.is_val else f"def {decl.name}({', '.join(decl.params)}) = "
    lines = _expr_lines(decl.body)
    return [head + lines[0]] + lines[1:]


def _template_lines(tpl: ast.TemplateDef) -> list[str]:
    kind = {
        ast.OBJECT: "object",
        ast.TRAIT: "trait",
        ast.PACKAGE_OBJECT: "package object",
    }[tpl.kind]
    head = "implicit " if tpl.is_implicit else ""
    head += f"{kind} {tpl.name}"
    if tpl.parents:
        head += " extends " + " with ".join(ast.dotted(p) for p in tpl.parents)
    lines = [head + " {"]
    for stat in tpl.stats:
        if isinstance(stat, ast.ImportClause):
            lines.append(_INDENT + _import_line(stat))
        else:
            lines.extend(_INDENT + line for line in _stat_lines(stat))
    lines.append("}")
    return lines


def pretty_print(unit: ast.CompilationUnit) -> str:
    lines: list[str] = []
    if unit.package_path:
        lines.append(f"package {ast.dotted(unit.package_path)}")
    for stat in unit.top_stats:
        if isinstance(stat, ast.TemplateDef):
            if lines:
                lines.append("")
            lines.extend(_template_lines(stat))
        else:
            if lines and lines[-1].startswith("package "):
                lines.append("")
            lines.append(_import_line(stat))
    if not lines:
        return "\n"
    return "\n".join(lines) + "\n"
