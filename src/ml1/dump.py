"""The `resolve --dump` document, written as JSON.

`write_resolution` gives the bytes `json.dumps(document, indent=2)` gives
for the document, but writes it from the resolution and the closures as it
goes, one unit or template at a time, escaping every string with the same
C encoder. `indent=2` makes `json.dumps` use its pure-Python encoder, which
would cost most of the command's time on large closures. Only `ml1 resolve
--dump` in JSON form imports this module.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as enc
from typing import TYPE_CHECKING, Iterable, TextIO

from ml1 import ast
from ml1.scopes import TEMPLATE, export_closure

if TYPE_CHECKING:
    from ml1.resolve import RefRecord, Resolution
    from ml1.scopes import ClosureEntry, ScopeGraph
    from ml1.tokens import Span


def _array(items: list[str], level: int) -> str:
    """A JSON array of encoded items whose opening line is indented `level`
    steps, laid out as `json.dumps(indent=2)` lays it out."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _object_format(keys: tuple[str, ...], level: int) -> str:
    """A `str.format` template of a JSON object with these keys, one `{}`
    per encoded value, in `_array`'s layout. The keys are plain ASCII names,
    which need no escaping."""
    pad = "\n" + "  " * (level + 1)
    return "{{" + ",".join(f'{pad}"{key}": {{}}' for key in keys) + "\n" + "  " * level + "}}"


def _write_array(out: TextIO, items: Iterable[str], level: int) -> None:
    """`_array`, written one item at a time."""
    pad = "\n" + "  " * (level + 1)
    sep = "[" + pad
    for item in items:
        out.write(sep + item)
        sep = "," + pad
    out.write("[]" if sep[0] == "[" else "\n" + "  " * level + "]")


def write_resolution(out: TextIO, graph: ScopeGraph, resolution: Resolution) -> None:
    """Write the `resolve --dump` document of `resolution` over `graph`."""
    # Each edge's label, encoded once: witness paths repeat edges many times.
    labels = {id(edge): enc(edge.label()) for edges in graph.exports.values() for edge in edges}

    ref_object = _object_format(("span", "name", "symbol"), 4).format
    unit_object = _object_format(("unit", "refs"), 2).format
    entry_object = _object_format(("name", "symbol", "path"), 4).format
    closure_object = _object_format(("template", "entries"), 2).format
    erased_object = _object_format(("unit", "path", "span"), 2).format

    def ref(record: RefRecord) -> str:
        span = _array([str(record.span.start), str(record.span.end)], 5)
        return ref_object(span, enc(record.name), "null" if record.symbol is None else enc(record.symbol.fqn))

    def unit(name: str, records: list[RefRecord]) -> str:
        return unit_object(enc(name), _array(list(map(ref, records)), 3))

    def entry(e: ClosureEntry) -> str:
        return entry_object(enc(e.visible_name), enc(e.symbol.fqn), _array([labels[id(edge)] for edge in e.path], 5))

    def closure(fqn: str) -> str:
        return closure_object(enc(fqn), _array(list(map(entry, export_closure(graph, fqn).entries)), 3))

    def erased(unit_name: str, path: ast.QualName, span: Span) -> str:
        return erased_object(enc(unit_name), enc(ast.dotted(path)), _array([str(span.start), str(span.end)], 3))

    templates = sorted(fqn for fqn, sym in graph.symbols.items() if sym.kind == TEMPLATE)
    diagnostics = sorted(d.render() for d in graph.diagnostics + resolution.diagnostics)
    out.write('{\n  "units": ')
    _write_array(out, (unit(*group) for group in resolution.records_by_unit()), 1)
    out.write(',\n  "closures": ')
    _write_array(out, map(closure, templates), 1)
    out.write(',\n  "erasedImports": ')
    _write_array(out, (erased(*imp) for imp in resolution.erased_imports), 1)
    out.write(',\n  "diagnostics": ')
    _write_array(out, map(enc, diagnostics), 1)
    out.write("\n}\n")
