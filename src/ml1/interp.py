"""Closure-compiled evaluator with deferred-thunk frames.

Each expression node is compiled once, the first time it is needed, into a
Python closure from an environment to a value (Feeley and Lapalme, "Using
closures for code generation", 1987): a def's body when the def is first
called, a thunk's body when it first runs, a template val's body when it
is first read. The closures are cached per interpreter by node identity.
Each reference is classified once by its resolved symbol, constant
results are built once, and a block becomes a list of steps; block locals
are still read by name from the run-time environment. Errors are raised
when a closure runs, never when it is compiled, so an ill-formed node in
code that never runs does no harm.

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
from dataclasses import dataclass, field
from typing import Callable

from ml1 import ast
from ml1.diagnostics import E_NO_ENTRY, E_NO_FRAME
from ml1.resolve import Resolution
from ml1.scopes import DEF, PACKAGE, TEMPLATE, VAL, ScopeGraph
from ml1.tokens import Span

_MAX_CALL_DEPTH = 200
# Python frames one call may take, with room for nested arguments and
# blocks. `run` raises Python's recursion limit to at least the default of
# 1000 plus this much per allowed call, so the interpreter's own depth
# limit is reached first.
_FRAMES_PER_CALL = 20
_RECURSION_LIMIT = 1000 + _MAX_CALL_DEPTH * _FRAMES_PER_CALL


@dataclass(frozen=True)
class IntV:
    value: int


@dataclass(frozen=True)
class StrV:
    value: str


@dataclass(frozen=True)
class UnitV:
    pass


UNIT = UnitV()


@dataclass(frozen=True)
class ObjRef:
    fqn: str


class ThunkV:
    """A delayed block closing over the environment it was created in.
    Runs at most once, when its frame unwinds."""

    def __init__(self, env: "Env | None", body: ast.Block):
        self.env = env
        self.body = body


class DefV:
    """A callable def; local defs close over their defining environment."""

    def __init__(self, env: "Env | None", decl: ast.DefDecl):
        self.env = env
        self.decl = decl


class BuiltinV:
    def __init__(self, name: str):
        self.name = name


Value = IntV | StrV | UnitV | ObjRef | ThunkV | DefV | BuiltinV


class EvalError(Exception):
    def __init__(self, message: str, span: Span | None = None, code: str = "E_RUNTIME"):
        super().__init__(message)
        self.message = message
        self.span = span
        self.code = code
        self.suppressed: list[EvalError] = []


@dataclass
class Trace:
    events: list[str] = field(default_factory=list)
    value: Value | None = None
    error: EvalError | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class Env:
    __slots__ = ("parent", "bindings")

    def __init__(self, parent: "Env | None" = None):
        self.parent = parent
        self.bindings: dict[str, Value] = {}

    def lookup(self, name: str) -> Value:
        env: Env | None = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise EvalError(f"{name} is not bound at runtime")


Code = Callable[[Env], Value]


def _constant(value: Value) -> Code:
    return lambda env: value


def _failure(message: str, span: Span | None) -> Code:
    def fail(env: Env) -> Value:
        raise EvalError(message, span)

    return fail


def _eval_error(err: EvalError | RecursionError, span: Span | None) -> EvalError:
    """`err` as an evaluation error. A RecursionError means Python's stack
    ran out below the call-depth limit: deeply nested expressions inside
    deep calls."""
    if isinstance(err, EvalError):
        return err
    return EvalError("evaluation nested too deeply", span)


def render(value: Value) -> str:
    if isinstance(value, IntV):
        return str(value.value)
    if isinstance(value, StrV):
        return value.value
    if isinstance(value, UnitV):
        return "()"
    if isinstance(value, ObjRef):
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

    # Entry ------------------------------------------------------------------

    def run(self, entry_fqn: str) -> Trace:
        self.events = []
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
        if isinstance(node, ast.IntLit):
            return _constant(IntV(node.value))
        if isinstance(node, ast.StrLit):
            return _constant(StrV(node.value))
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
            make_thunk = self.compile(node.thunk)
            register, span = self.defer_register, node.span

            def defer(env: Env) -> Value:
                thunk = make_thunk(env)
                assert isinstance(thunk, ThunkV)
                return register(thunk, span)

            return defer
        if isinstance(node, ast.DeferCandidate):
            return _failure("defer has no meaning here; the unit was not rewritten", node.span)
        return _failure(f"cannot evaluate {type(node).__name__}", getattr(node, "span", None))

    def compile_ref(self, ref: ast.Ref) -> Code:
        """Classify a reference once, by its resolved symbol."""
        symbol = self.resolution.symbol_for(ref)
        if symbol is None:

            def unresolved(env: Env) -> Value:
                raise EvalError(f"{ast.dotted(ref.parts)} was not resolved", ref.span)

            return unresolved
        if symbol.fqn.startswith("<builtin>."):
            return _constant(BuiltinV(symbol.short_name()))
        decl = self.graph.decls.get(symbol.fqn)
        if decl is None:
            # A block-local binding: the innermost run-time binding wins.
            name = ref.parts[-1]
            return lambda env: env.lookup(name)
        if symbol.kind == VAL and isinstance(decl, ast.DefDecl):
            # A template val is evaluated afresh on every read.
            body, compile = decl.body, self.compile
            return lambda env: compile(body)(Env())
        if symbol.kind == DEF and isinstance(decl, ast.DefDecl):
            return _constant(DefV(None, decl))
        if symbol.kind in (TEMPLATE, PACKAGE):
            return _constant(ObjRef(symbol.fqn))
        return _failure(f"{symbol.fqn} has no runtime value", ref.span)

    def _compile_call(self, node: ast.Call) -> Code:
        callee = self.compile_ref(node.callee)
        args = tuple(self.compile(arg) for arg in node.args)
        call_def, call_builtin, span = self.call_def, self.call_builtin, node.span

        def call(env: Env) -> Value:
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
            raise EvalError(f"{render(fn)} is not callable", span)

        return call

    def _compile_block(self, block: ast.Block) -> Code:
        steps = tuple(self._compile_stat(stat) for stat in block.stats)
        # A block that declares nothing needs no environment of its own.
        scoped = any(isinstance(stat, ast.DefDecl) for stat in block.stats)

        def run_block(env: Env) -> Value:
            if scoped:
                env = Env(env)
            result: Value = UNIT
            for step in steps:
                result = step(env)
            return result

        return run_block

    def _compile_stat(self, stat: ast.Stat) -> Code:
        """One block step; it runs in the block's own environment."""
        if not isinstance(stat, ast.DefDecl):
            return self.compile(stat)
        name = stat.name
        if stat.is_val:
            body = self.compile(stat.body)

            def bind_val(env: Env) -> Value:
                env.bindings[name] = body(env)
                return UNIT

            return bind_val

        def bind_def(env: Env) -> Value:
            env.bindings[name] = DefV(env, stat)
            return UNIT

        return bind_def

    # Evaluation -------------------------------------------------------------

    def call_def(self, fn: DefV, args: list[Value], span: Span) -> Value:
        decl = fn.decl
        if len(args) != len(decl.params):
            raise EvalError(
                f"{decl.name} expects {len(decl.params)} arguments, got {len(args)}", span
            )
        if self.depth >= _MAX_CALL_DEPTH:
            raise EvalError("call depth exceeded", span)
        env = Env(fn.env)
        env.bindings.update(zip(decl.params, args))
        body = self.compile(decl.body)
        self.depth += 1
        try:
            return body(env)
        except RecursionError as err:
            raise _eval_error(err, span) from None
        finally:
            self.depth -= 1

    # Deferred frames ----------------------------------------------------------

    def _compile_frame(self, node: ast.FrameExpr) -> Code:
        body, frames, compile = self.compile(node.body), self.frames, self.compile
        span = node.span

        def run_frame(env: Env) -> Value:
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
        if name == "print":
            self._arity(name, args, 1, span)
            self.events.append(render(args[0]))
            return UNIT
        if name == "error":
            self._arity(name, args, 1, span)
            raise EvalError(render(args[0]), span)
        if name == "concat":
            self._arity(name, args, 2, span)
            return StrV(render(args[0]) + render(args[1]))
        if name in ("add", "sub"):
            self._arity(name, args, 2, span)
            a, b = args
            if not isinstance(a, IntV) or not isinstance(b, IntV):
                raise EvalError(f"{name} needs integer arguments", span)
            return IntV(a.value + b.value if name == "add" else a.value - b.value)
        if name == "compose":
            raise EvalError("compose is interpreted at rewrite time, not at runtime", span)
        raise EvalError(f"unknown builtin {name}", span)

    @staticmethod
    def _arity(name: str, args: list[Value], n: int, span: Span) -> None:
        if len(args) != n:
            raise EvalError(f"{name} expects {n} arguments, got {len(args)}", span)


def run(graph: ScopeGraph, resolution: Resolution, entry_fqn: str) -> Trace:
    """Evaluate the zero-argument def `entry_fqn` and collect its trace."""
    return Interpreter(graph, resolution).run(entry_fqn)
