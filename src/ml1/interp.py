"""Closure-compiled evaluator with deferred-thunk frames.

Each expression node is compiled once, the first time it is needed, into a
Python closure from an environment to a value (Feeley and Lapalme, "Using
closures for code generation", 1987): a def's body at its first call, a
thunk's body with the expression around it, a template val's body at its
first read, cached per interpreter by node identity. Each reference is
classified once by its resolved symbol, constants are built once, and a
block becomes its steps run in order; a block of one step that declares
nothing is that step. `_compile_callee` turns a callee's value into call
code, when the call is compiled for a callee known by its symbol, and for
a local or `val` callee when it runs, once per def or symbol met. Each
argument is classified once as a literal, a frame slot or other code, and
the call reads a literal or a slot itself (superinstructions, Ertl and
Gregg, 2003). Errors are raised when a closure runs, never when it is
compiled, so ill-formed code that never runs does no harm.

A value is what the resolver bound where it can be: an integer or a
string is a Python `int` or `str`, unit is the empty tuple `UNIT`, and an
object, package or builtin is the resolver's `SymbolId`, printed as its
FQN or, for a builtin, as `<builtin NAME>`. A thunk is its `ThunkExpr`
node, printed `<thunk>`; nothing calls a thunk value, since `__defer`
compiles the thunk's block itself. Only a def has a class of its own,
`DefV`, because a local def closes over its defining frame.

An environment is a frame: its parent frame, then one slot per local. A
def call's frame holds its arguments; a declaring block's frame holds its
declarations, and its local defs are bound on entry. A local reference
reads the slot at the address `resolve` gave it. A template `val` is
evaluated at its first read in a run; a read while its body runs is the
coded error E_CYCLIC_VAL.

`__frame { ... }` pushes a frame while its body runs (a body block that
declares nothing, step by step); thunks registered via
`__defer(thunk { ... })` run when the frame is left, in reverse
registration order, on normal and failing exits alike. The frame stays
active while it unwinds, so a thunk's own defers run right after that
thunk (Go order for nested defers). The frame's result (or its original
error) is fixed before any thunk runs; errors raised by thunks are kept on
the suppressed list of the primary error, and on a normal exit the first
thunk error becomes the primary one. When Python's stack runs out (deep
expressions inside deep calls), the innermost frame or call turns the
RecursionError into the error "evaluation nested too deeply", so every
frame entered still runs its thunks.
"""

from __future__ import annotations

import sys
from typing import Callable

from ml1 import ast
from ml1.diagnostics import E_CYCLIC_VAL, E_NO_ENTRY, E_NO_FRAME
from ml1.record import Record, field
from ml1.resolve import Resolution
from ml1.scopes import BUILTIN, DEF, VAL, ScopeGraph, SymbolId
from ml1.tokens import Span

_MAX_CALL_DEPTH = 200
# Python frames one call may take, with room for nested arguments and
# blocks. A template def call takes one, its call closure, plus one per
# frame, block or argument list on the way to the next call. A block that
# declares nothing takes none if it has one step or is a `__frame`'s body,
# so a `go.defer` chain takes two: the call and its `__frame`. `run` raises
# Python's recursion limit to at least the default of 1000 plus this much
# per allowed call, so the interpreter's own depth limit is reached first.
_FRAMES_PER_CALL = 20
_RECURSION_LIMIT = 1000 + _MAX_CALL_DEPTH * _FRAMES_PER_CALL

UNIT = ()  # the unit value; `print` shows it as `()`
_INITIALISING = object()  # a template val's entry in `Interpreter.vals` while its body runs


class DefV:
    """A callable def; local defs close over their defining environment."""

    def __init__(self, env: "Frame | None", decl: ast.DefDecl):
        self.env = env
        self.decl = decl


Value = int | str | tuple | SymbolId | DefV | ast.ThunkExpr


class EvalError(Exception):
    def __init__(self, message: str, span: Span | None = None, code: str = "E_RUNTIME"):
        super().__init__(message)
        self.message = message
        self.span = span
        self.code = code
        self.suppressed: list[EvalError] = []


class Trace(Record):
    events: list[str] = field(default_factory=list)
    value: Value | None = None
    error: EvalError | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


Frame = list  # [parent frame or None, slot 0, slot 1, ...]
Code = Callable[[Frame | None], Value]
Operands = tuple[tuple[bool | None, object], ...]  # a call's arguments, by `Interpreter.operand`


def _constant(value: Value) -> Code:
    return lambda env: value


def _fail(span: Span | None, message: str) -> Value:
    raise EvalError(message, span)


def _failure(message: str, span: Span | None) -> Code:
    return lambda env: _fail(span, message)


def _raise(message: str) -> Callable[..., Value]:
    return lambda span, *values: _fail(span, message)


def _arity_error(name: str, arity: int, count: int) -> Callable[..., Value]:
    return _raise(f"{name} expects {arity} arguments, got {count}")


def _local(depth: int, slot: int) -> Code:
    """Read slot `slot` of the frame `depth` levels out."""
    index = slot + 1
    if depth == 0:
        return lambda env: env[index]

    def read(env: Frame) -> Value:
        for _ in range(depth):
            env = env[0]
        return env[index]

    return read


def _eval_error(err: EvalError | RecursionError, span: Span | None) -> EvalError:
    """`err` as an evaluation error. A RecursionError means Python's stack
    ran out below the call-depth limit: deeply nested expressions inside
    deep calls."""
    if isinstance(err, EvalError):
        return err
    return EvalError("evaluation nested too deeply", span)


def render(value: Value, span: Span | None) -> str:
    """`value` as `print` shows it. An integer with more digits than `str`
    converts is an evaluation error at `span`."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        try:
            return str(value)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise EvalError(f"integer too long to render (more than {limit} digits)", span) from None
    if value is UNIT:
        return "()"
    if isinstance(value, SymbolId):
        return f"<builtin {value.short_name()}>" if value.kind == BUILTIN else value.fqn
    if isinstance(value, DefV):
        return f"<def {value.decl.name}>"
    return "<thunk>"  # a ThunkExpr


def _compile_apply(fn: Callable[..., Value], args: Operands, span: Span) -> Code:
    """Evaluate the arguments in order, then return `fn(span, *values)`."""

    def apply(env: Frame | None, parent: Frame | None = None) -> Value:  # a def's entry takes `parent`
        values = []
        for slot, a in args:  # on CPython 3.11 a comprehension would add a frame per call
            values.append(env[a] if slot else a(env) if slot is None else a)
        return fn(span, *values)

    return apply


# Builtins: each is compiled by a function of the interpreter, the call's
# operands and span, listed in `_BUILTINS` with its arity (None: any).
# `print` and `concat` take a string as it is, without a call of `render`.


def _compile_print(interp: Interpreter, args: Operands, span: Span) -> Code:
    ((slot, a),) = args

    def print_(env: Frame | None) -> Value:
        value = env[a] if slot else a(env) if slot is None else a
        interp.events.append(value if isinstance(value, str) else render(value, span))
        return UNIT

    return print_


def _compile_concat(interp: Interpreter, args: Operands, span: Span) -> Code:
    (slot_a, a), (slot_b, b) = args

    def concat(env: Frame | None) -> Value:
        x = env[a] if slot_a else a(env) if slot_a is None else a
        y = env[b] if slot_b else b(env) if slot_b is None else b
        return (x if isinstance(x, str) else render(x, span)) + (y if isinstance(y, str) else render(y, span))

    return concat


def _applying(fn: Callable[..., Value]) -> Callable[[Interpreter, Operands, Span], Code]:
    return lambda interp, args, span: _compile_apply(fn, args, span)


def _integer(span: Span, name: str, value: Value) -> int:
    if isinstance(value, int):
        return value
    raise EvalError(f"{name} needs integer arguments", span)


_BUILTINS: dict[str, tuple[int | None, Callable[[Interpreter, Operands, Span], Code]]] = {
    "print": (1, _compile_print),
    "error": (1, _applying(lambda span, value: _fail(span, render(value, span)))),
    "concat": (2, _compile_concat),
    "add": (2, _applying(lambda span, a, b: _integer(span, "add", a) + _integer(span, "add", b))),
    "sub": (2, _applying(lambda span, a, b: _integer(span, "sub", a) - _integer(span, "sub", b))),
    "compose": (None, _applying(_raise("compose is interpreted at rewrite time, not at runtime"))),
}


class Interpreter:
    def __init__(self, graph: ScopeGraph, resolution: Resolution):
        self.graph = graph
        self.resolution = resolution
        # Per active `__frame`, its thunks: (compiled block, environment, span).
        self.frames: list[list[tuple[Code, Frame | None, Span]]] = []
        self.events: list[str] = []
        self.depth = 0
        # Compiled closures, keyed by node identity: structurally equal
        # nodes may be bound to different symbols.
        self.code: dict[int, Code] = {}
        # Template vals read in this run, by FQN; `_INITIALISING` while the
        # val's body runs.
        self.vals: dict[str, object] = {}

    # Entry ------------------------------------------------------------------

    def run(self, entry_fqn: str) -> Trace:
        self.events = []
        self.vals.clear()
        trace = Trace(events=self.events)
        sym, decl = self.graph.symbols.get(entry_fqn), self.graph.decls.get(entry_fqn)
        if sym is None or sym.kind != DEF or decl.params:
            trace.error = EvalError(f"{entry_fqn} is not a zero-argument def", code=E_NO_ENTRY)
            return trace
        # The recursion limit is process-wide, so `run` is not thread-safe.
        # It only ever raises the limit to one fixed value, so a run started
        # while another is active leaves the limit alone.
        limit = sys.getrecursionlimit()
        if limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            trace.value = self._compile_def_call(decl, (), decl.span)(None)
        except EvalError as err:
            trace.error = err
        finally:
            if limit < _RECURSION_LIMIT:
                sys.setrecursionlimit(limit)
        return trace

    # Compilation ------------------------------------------------------------

    def compile(self, node: ast.Expr) -> Code:
        """The closure that evaluates `node`, compiled on first use.
        Compiling never fails; an ill-formed node compiles to a closure that
        raises its error when evaluated."""
        code = self.code.get(id(node))
        if code is None:
            code = self.code[id(node)] = self._compile(node)
        return code

    def _compile(self, node: ast.Expr) -> Code:
        if isinstance(node, (ast.IntLit, ast.StrLit)):
            return _constant(node.value)
        if isinstance(node, ast.Ref):
            return self.compile_ref(node)
        if isinstance(node, ast.Call):
            return self._compile_call(node)
        if isinstance(node, ast.Block):
            return self._compile_block(node)
        if isinstance(node, ast.FrameExpr):
            return self._compile_frame(node)
        if isinstance(node, ast.ThunkExpr):
            return _constant(node)
        if isinstance(node, ast.DeferRegister):
            return self._compile_defer(node)
        if isinstance(node, ast.DeferCandidate):
            return _failure("defer has no meaning here; the unit was not rewritten", node.span)
        return _failure(f"cannot evaluate {type(node).__name__}", getattr(node, "span", None))

    def compile_ref(self, ref: ast.Ref) -> Code:
        """Classify a reference once: a local, unresolved, a template `val`,
        or a constant (a template def's `DefV`, or the symbol itself)."""
        address = self.resolution.addresses.get(id(ref))
        if address is not None:
            return _local(*address)
        symbol = self.resolution.symbol_for(ref)
        if symbol is None:
            return _failure(f"{ast.dotted(ref.parts)} was not resolved", ref.span)
        if symbol.kind == VAL:
            fqn, compile, vals, span = symbol.fqn, self.compile, self.vals, ref.span
            body = self.graph.decls[fqn].body

            def read_val(env: Frame | None) -> Value:
                value = vals.get(fqn)
                if value is None:
                    vals[fqn] = _INITIALISING
                    try:
                        value = vals[fqn] = compile(body)(None)
                    except BaseException:
                        del vals[fqn]
                        raise
                elif value is _INITIALISING:
                    raise EvalError(f"val {fqn} is read during its own initialisation", span, E_CYCLIC_VAL)
                return value

            return read_val
        return _constant(self.symbol_value(symbol))

    def symbol_value(self, symbol: SymbolId) -> Value:
        """The value of a symbol that is neither a local nor a template `val`."""
        return DefV(None, self.graph.decls[symbol.fqn]) if symbol.kind == DEF else symbol

    def operand(self, node: ast.Expr) -> tuple[bool | None, object]:
        """Classify a call's argument once: (True, index) for a slot of the
        current frame, (False, value) for a literal, (None, closure) for
        other code. A read tests for a slot first, by truth: the cheapest."""
        if isinstance(node, (ast.IntLit, ast.StrLit)):
            return False, node.value
        address = self.resolution.addresses.get(id(node))
        if address is not None and address[0] == 0:
            return True, address[1] + 1
        return None, self.compile(node)

    def _compile_call(self, node: ast.Call) -> Code:
        """Classify the call once, by its callee's symbol, and its arguments."""
        ref, span, args = node.callee, node.span, tuple(map(self.operand, node.args))
        symbol = None if id(ref) in self.resolution.addresses else self.resolution.symbol_for(ref)
        if symbol and symbol.kind != VAL:
            return self._compile_callee(self.symbol_value(symbol), args, span)
        # A local or val callee: compiled per def declaration or symbol met.
        callee, compile_callee, codes = self.compile_ref(ref), self._compile_callee, {}

        def call(env: Frame | None) -> Value:
            fn = callee(env)
            if isinstance(fn, DefV):
                entry = codes.get(id(fn.decl)) or codes.setdefault(id(fn.decl), compile_callee(fn, args, span))
                return entry(env, fn.env)
            if isinstance(fn, SymbolId):
                code = codes.get(fn) or codes.setdefault(fn, compile_callee(fn, args, span))
                return code(env)
            return compile_callee(fn, args, span)(env)

        return call

    def _compile_callee(self, fn: Value, args: Operands, span: Span) -> Code:
        """The code of a call of `fn`: a def's entry, a builtin's code, or code that
        evaluates the arguments, then fails with `_arity_error` or as not callable."""
        if isinstance(fn, DefV):
            name, arity = fn.decl.name, len(fn.decl.params)
            if arity == len(args):
                return self._compile_def_call(fn.decl, args, span)
        elif isinstance(fn, SymbolId) and fn.kind == BUILTIN:
            arity, compile = _BUILTINS[name := fn.short_name()]
            if arity in (None, len(args)):
                return compile(self, args, span)
        else:
            return _compile_apply(lambda span, *values: _fail(span, f"{render(fn, span)} is not callable"), args, span)
        return _compile_apply(_arity_error(name, arity, len(args)), args, span)

    def _compile_def_call(self, decl: ast.DefDecl, args: Operands, span: Span) -> Code:
        """The entry of `decl`: given the frame it closes over, if any, it
        checks the depth, then runs the body, compiled at the first call."""
        interp, compile = self, self.compile
        body: Code | None = None

        def call_def(env: Frame | None, parent: Frame | None = None) -> Value:
            nonlocal body
            frame = [parent]
            for slot, a in args:  # as in `_compile_apply`
                frame.append(env[a] if slot else a(env) if slot is None else a)
            if interp.depth >= _MAX_CALL_DEPTH:
                raise EvalError("call depth exceeded", span)
            if body is None:
                body = compile(decl.body)
            interp.depth += 1
            try:
                return body(frame)
            except RecursionError as err:
                raise _eval_error(err, span) from None
            finally:
                interp.depth -= 1

        return call_def

    def _compile_block(self, block: ast.Block) -> Code:
        decls: list[ast.DefDecl] = []
        steps: list[Code] = []
        for stat in block.stats:
            if isinstance(stat, ast.DefDecl):
                decls.append(stat)
                steps.append(self._compile_decl(stat, len(decls)))
            else:
                steps.append(self.compile(stat))

        def run_steps(env: Frame | None) -> Value:
            result: Value = UNIT
            for step in steps:
                result = step(env)
            return result

        # A block that declares nothing needs no frame of its own, and one
        # with a single step is that step.
        if not decls:
            return steps[0] if len(steps) == 1 else run_steps
        blank = (None,) * len(decls)
        defs = tuple((index, decl) for index, decl in enumerate(decls, 1) if not decl.is_val)

        def run_block(env: Frame | None) -> Value:
            frame = [env, *blank]
            for index, decl in defs:
                frame[index] = DefV(frame, decl)
            return run_steps(frame)

        return run_block

    def _compile_decl(self, stat: ast.DefDecl, index: int) -> Code:
        """A declaration's step: a `val` fills frame index `index`; a def was bound on entry."""
        if not stat.is_val:
            return _constant(UNIT)
        body = self.compile(stat.body)

        def bind_val(env: Frame) -> Value:
            env[index] = body(env)
            return UNIT

        return bind_val

    # Deferred frames ----------------------------------------------------------

    def _compile_frame(self, node: ast.FrameExpr) -> Code:
        body, frames, span = node.body, self.frames, node.span
        plain = isinstance(body, ast.Block) and not any(isinstance(stat, ast.DefDecl) for stat in body.stats)
        steps = tuple(map(self.compile, body.stats)) if plain else (self.compile(body),)

        def run_frame(env: Frame | None) -> Value:
            frame: list[tuple[Code, Frame | None, Span]] = []
            frames.append(frame)
            primary: EvalError | None = None
            value: Value = UNIT
            try:
                try:
                    for step in steps:
                        value = step(env)
                except (EvalError, RecursionError) as err:
                    primary = _eval_error(err, span)
                # The frame stays active while it unwinds: a thunk's own
                # defers land on it and run right after that thunk.
                while frame:
                    thunk, thunk_env, thunk_span = frame.pop()
                    try:
                        thunk(thunk_env)
                    except (EvalError, RecursionError) as err:
                        error = _eval_error(err, thunk_span)
                        if primary is None:
                            primary = error
                        else:
                            primary.suppressed.append(error)
            finally:
                frames.pop()
            if primary is not None:
                raise primary
            return value

        return run_frame

    def _compile_defer(self, node: ast.DeferRegister) -> Code:
        """`__defer(thunk { ... })`: push the thunk's block onto the innermost frame."""
        frames, span, block_span = self.frames, node.span, node.thunk.body.span
        code = self.compile(node.thunk.body)

        def register(env: Frame | None) -> Value:
            if not frames:
                message = "no deferred-thunk frame is active; this indicates a rewriter bug"
                raise EvalError(message, span, E_NO_FRAME)
            frames[-1].append((code, env, block_span))
            return UNIT

        return register


def run(graph: ScopeGraph, resolution: Resolution, entry_fqn: str) -> Trace:
    """Evaluate the zero-argument def `entry_fqn` and collect its trace."""
    return Interpreter(graph, resolution).run(entry_fqn)
