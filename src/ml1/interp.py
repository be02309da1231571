"""Closure-compiled evaluator with deferred-thunk frames.

Each expression node is compiled once, the first time it is needed, into a
Python closure from an environment to a value (Feeley and Lapalme, "Using
closures for code generation", 1987): a def's body when the def is first
called, a thunk's body when it first runs, a template val's body when it
is first read. The closures are cached per interpreter by node identity.
Each reference is classified once by its resolved symbol, constant
results are built once, and a block becomes a list of steps. Errors are
raised when a closure runs, never when it is compiled, so an ill-formed
node in code that never runs does no harm.

Values are plain where they can be: an integer or a string is a Python
`int` or `str`, unit is the empty tuple `UNIT`, and an object or package
is the resolver's `SymbolId`, printed as its FQN. Only defs, thunks and
builtins have classes of their own (`DefV`, `ThunkV`, `BuiltinV`).

An environment is a frame: its parent frame, then one slot per local. A
def call's frame holds its arguments; a declaring block's frame holds its
declarations, and its local defs are bound on entry. A local reference
reads the slot at the address `resolve` gave it. A template `val` is
evaluated at its first read in a run; a read while its body runs is the
coded error E_CYCLIC_VAL.

`__frame { ... }` pushes a frame for the duration of the body; thunks
registered via `__defer(thunk { ... })` run when the frame is left, in
reverse registration order, on normal and failing exits alike. The frame
stays active while it unwinds, so a thunk's own defers run right after
that thunk (Go order for nested defers). The frame's result (or its
original error) is fixed before any thunk runs; errors raised by thunks
are kept on the suppressed list of the primary error, and on a normal
exit the first thunk error becomes the primary one. When
Python's stack runs out (deep expressions inside deep calls), the
innermost frame or call turns the RecursionError into the error
"evaluation nested too deeply", so every frame entered still runs its
thunks.
"""

from __future__ import annotations

import sys
from dataclasses import field
from typing import Callable

from ml1 import ast
from ml1.diagnostics import E_CYCLIC_VAL, E_NO_ENTRY, E_NO_FRAME
from ml1.record import Record
from ml1.resolve import Resolution
from ml1.scopes import BUILTIN, DEF, PACKAGE, TEMPLATE, VAL, ScopeGraph, SymbolId
from ml1.tokens import Span

_MAX_CALL_DEPTH = 200
# Python frames one call may take, with room for nested arguments and
# blocks. `run` raises Python's recursion limit to at least the default of
# 1000 plus this much per allowed call, so the interpreter's own depth
# limit is reached first.
_FRAMES_PER_CALL = 20
_RECURSION_LIMIT = 1000 + _MAX_CALL_DEPTH * _FRAMES_PER_CALL
_ARITY = {"print": 1, "error": 1, "concat": 2, "add": 2, "sub": 2}

UNIT = ()  # the unit value; `print` shows it as `()`
_INITIALISING = object()  # a template val's entry in `Interpreter.vals` while its body runs


class ThunkV:
    """A delayed block closing over the environment it was created in.
    Runs at most once, when its frame unwinds."""

    def __init__(self, env: "Frame | None", body: ast.Block):
        self.env = env
        self.body = body


class DefV:
    """A callable def; local defs close over their defining environment."""

    def __init__(self, env: "Frame | None", decl: ast.DefDecl):
        self.env = env
        self.decl = decl


class BuiltinV:
    def __init__(self, name: str):
        self.name = name


Value = int | str | tuple | SymbolId | ThunkV | DefV | BuiltinV


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


def _constant(value: Value) -> Code:
    return lambda env: value


def _failure(message: str, span: Span | None) -> Code:
    def fail(env: Frame | None) -> Value:
        raise EvalError(message, span)

    return fail


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
        return value.fqn
    if isinstance(value, ThunkV):
        return "<thunk>"
    if isinstance(value, DefV):
        return f"<def {value.decl.name}>"
    return f"<builtin {value.name}>"


class Interpreter:
    def __init__(self, graph: ScopeGraph, resolution: Resolution):
        self.graph = graph
        self.resolution = resolution
        self.frames: list[list[ThunkV]] = []
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
        sym = self.graph.symbols.get(entry_fqn)
        decl = self.graph.decls.get(entry_fqn)
        if sym is None or sym.kind != DEF or not isinstance(decl, ast.DefDecl) or decl.params:
            trace.error = EvalError(
                f"{entry_fqn} is not a zero-argument def", code=E_NO_ENTRY
            )
            return trace
        # The recursion limit is process-wide, so `run` is not thread-safe.
        # It only ever raises the limit to one fixed value, so a run started
        # while another is active leaves the limit alone.
        limit = sys.getrecursionlimit()
        if limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            trace.value = self.call_def(DefV(None, decl), [], decl.span)
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
            block = node.body
            return lambda env: ThunkV(env, block)
        if isinstance(node, ast.DeferRegister):
            thunk, register, span = node.thunk, self.defer_register, node.span
            return lambda env: register(ThunkV(env, thunk.body), span)
        if isinstance(node, ast.DeferCandidate):
            return _failure("defer has no meaning here; the unit was not rewritten", node.span)
        return _failure(f"cannot evaluate {type(node).__name__}", getattr(node, "span", None))

    def compile_ref(self, ref: ast.Ref) -> Code:
        """Classify a reference once, by its address or resolved symbol."""
        address = self.resolution.addresses.get(id(ref))
        if address is not None:
            return _local(*address)
        symbol = self.resolution.symbol_for(ref)
        if symbol is None:
            return _failure(f"{ast.dotted(ref.parts)} was not resolved", ref.span)
        if symbol.kind == BUILTIN:
            return _constant(BuiltinV(symbol.short_name()))
        decl = self.graph.decls.get(symbol.fqn)
        if symbol.kind == VAL and isinstance(decl, ast.DefDecl):
            fqn, body, compile, vals, span = symbol.fqn, decl.body, self.compile, self.vals, ref.span

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
        if symbol.kind == DEF and isinstance(decl, ast.DefDecl):
            return _constant(DefV(None, decl))
        if symbol.kind in (TEMPLATE, PACKAGE):
            return _constant(symbol)
        return _failure(f"{symbol.fqn} has no runtime value", ref.span)

    def _compile_call(self, node: ast.Call) -> Code:
        callee = self.compile_ref(node.callee)
        args = tuple(self.compile(arg) for arg in node.args)
        call_def, call_builtin, span = self.call_def, self.call_builtin, node.span

        def call(env: Frame | None) -> Value:
            fn = callee(env)
            # A loop, not a comprehension: on CPython 3.11 a comprehension
            # adds a function object and a frame per call. On `defer_tree`
            # it was slower at 28 of 36 stack offsets, by a quarter in the mean.
            values = []
            for arg in args:
                values.append(arg(env))
            if isinstance(fn, DefV):
                return call_def(fn, values, span)
            if isinstance(fn, BuiltinV):
                return call_builtin(fn.name, values, span)
            raise EvalError(f"{render(fn, span)} is not callable", span)

        return call

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

        # A block that declares nothing needs no frame of its own.
        if not decls:
            return run_steps
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

    # Evaluation -------------------------------------------------------------

    def call_def(self, fn: DefV, args: list[Value], span: Span) -> Value:
        decl = fn.decl
        if len(args) != len(decl.params):
            raise EvalError(
                f"{decl.name} expects {len(decl.params)} arguments, got {len(args)}", span
            )
        if self.depth >= _MAX_CALL_DEPTH:
            raise EvalError("call depth exceeded", span)
        body = self.compile(decl.body)
        self.depth += 1
        try:
            return body([fn.env, *args])
        except RecursionError as err:
            raise _eval_error(err, span) from None
        finally:
            self.depth -= 1

    # Deferred frames ----------------------------------------------------------

    def _compile_frame(self, node: ast.FrameExpr) -> Code:
        body, frames, compile = self.compile(node.body), self.frames, self.compile
        span = node.span

        def run_frame(env: Frame | None) -> Value:
            frame: list[ThunkV] = []
            frames.append(frame)
            primary: EvalError | None = None
            value: Value = UNIT
            try:
                try:
                    value = body(env)
                except (EvalError, RecursionError) as err:
                    primary = _eval_error(err, span)
                # The frame stays active while it unwinds: a thunk's own
                # defers land on it and run right after that thunk.
                while frame:
                    thunk = frame.pop()
                    try:
                        compile(thunk.body)(thunk.env)
                    except (EvalError, RecursionError) as err:
                        error = _eval_error(err, thunk.body.span)
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

    def defer_register(self, thunk: ThunkV, span: Span) -> Value:
        if not self.frames:
            raise EvalError(
                "no deferred-thunk frame is active; this indicates a rewriter bug",
                span,
                code=E_NO_FRAME,
            )
        self.frames[-1].append(thunk)
        return UNIT

    # Builtins -----------------------------------------------------------------

    def call_builtin(self, name: str, args: list[Value], span: Span) -> Value:
        arity = _ARITY.get(name)
        if arity is not None and len(args) != arity:
            raise EvalError(f"{name} expects {arity} arguments, got {len(args)}", span)
        if name == "print":
            self.events.append(render(args[0], span))
            return UNIT
        if name == "error":
            raise EvalError(render(args[0], span), span)
        if name == "concat":
            return render(args[0], span) + render(args[1], span)
        if name in ("add", "sub"):
            a, b = args
            if not isinstance(a, int) or not isinstance(b, int):
                raise EvalError(f"{name} needs integer arguments", span)
            return a + b if name == "add" else a - b
        # Every builtin but `compose` is handled above.
        raise EvalError("compose is interpreted at rewrite time, not at runtime", span)


def run(graph: ScopeGraph, resolution: Resolution, entry_fqn: str) -> Trace:
    """Evaluate the zero-argument def `entry_fqn` and collect its trace."""
    return Interpreter(graph, resolution).run(entry_fqn)
