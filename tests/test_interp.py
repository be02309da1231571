import random
import sys

import pytest

from ml1 import ast
from ml1.diagnostics import E_CYCLIC_VAL, E_FORWARD_REFERENCE, E_NO_ENTRY, E_NO_FRAME
from ml1.interp import _BUILTINS, UNIT, EvalError, Interpreter, run
from ml1.record import replace
from ml1.resolve import resolve_units
from ml1.rewrite import apply_rewriter, builtin_registry
from ml1.scopes import BUILTIN_NAMES, build_scope_graph
from ml1.tokens import Span

from conftest import build_project, parse_fixture, parse_source
import gen
from gen import program_unit, random_program, simulate


def run_program(*units, entry):
    """Rewrite with the defer intrinsic where imported, then evaluate."""
    graph = build_project(*units)
    registry = builtin_registry()
    rewritten = []
    for unit in units:
        if any(clause.path == ("go", "defer") for clause in unit.top_imports()):
            new_unit, _ = apply_rewriter(("go.defer.rewriter",), unit, registry)
        else:
            new_unit = unit
        rewritten.append(new_unit)
    final = build_scope_graph(rewritten)
    resolution = resolve_units(final, rewritten)
    assert not final.diagnostics and not resolution.diagnostics, (
        [d.render() for d in final.diagnostics + resolution.diagnostics]
    )
    return run(final, resolution, entry)


GO_DEFER = parse_fixture("lib", "go_defer.ml1")


def test_hello_world_trace():
    unit = parse_source('object Main {\n  def main() = {\n    print("hi")\n  }\n}', "m.ml1")
    trace = run_program(unit, entry="Main.main")
    assert trace.events == ["hi"]
    assert not trace.failed
    assert trace.value is UNIT


def test_copy_program_unwinds_lifo():
    unit = parse_fixture("defer", "copy.ml1")
    trace = run_program(GO_DEFER, unit, entry="copyfile.Main.main")
    assert trace.events == ["open-in", "open-out", "transfer", "close-out", "close-in"]
    assert not trace.failed


def test_copy_program_runs_defers_on_error():
    unit = parse_fixture("defer", "copy_boom.ml1")
    trace = run_program(GO_DEFER, unit, entry="copyfile.Main.main")
    assert trace.events == ["open-in", "open-out", "transfer", "close-out", "close-in"]
    assert trace.failed
    assert trace.error.message == "boom"
    assert trace.error.suppressed == []


def test_repeated_dynamic_registration_unwinds_in_reverse():
    unit = parse_fixture("defer", "loop.ml1")
    trace = run_program(GO_DEFER, unit, entry="loopdemo.Main.main")
    assert trace.events == ["work", "3", "2", "1", "outer"]


def test_literals_and_blocks():
    unit = parse_source(
        "object Main {\n  def main() = {\n    val x = 1\n    print(x)\n    print({ val y = 2; y })\n  }\n}",
        "m.ml1",
    )
    trace = run_program(unit, entry="Main.main")
    assert trace.events == ["1", "2"]


def test_empty_block_value_is_unit():
    unit = parse_source("object Main {\n  def main() = {\n    print({})\n  }\n}", "m.ml1")
    trace = run_program(unit, entry="Main.main")
    assert trace.events == ["()"]


def test_member_val_and_qualified_access():
    units = [
        parse_source("object Config {\n  val limit = 42\n}", "config.ml1"),
        parse_source(
            "object Main {\n  def main() = {\n    print(Config.limit)\n  }\n}", "m.ml1"
        ),
    ]
    trace = run_program(*units, entry="Main.main")
    assert trace.events == ["42"]


def test_builtin_arithmetic_and_concat():
    unit = parse_source(
        'object Main {\n  def main() = {\n    print(add(2, sub(5, 1)))\n    print(concat("n=", 3))\n  }\n}',
        "m.ml1",
    )
    trace = run_program(unit, entry="Main.main")
    assert trace.events == ["6", "n=3"]


def test_the_resolver_and_the_interpreter_name_the_same_builtins():
    # A name only the resolver knew would reach `_BUILTINS[name]` at run
    # time and end in an internal error.
    assert sorted(BUILTIN_NAMES) == sorted(_BUILTINS)


def test_missing_entry_is_reported():
    unit = parse_source("object Main {\n}", "m.ml1")
    trace = run_program(unit, entry="Main.main")
    assert trace.failed
    assert trace.error.code == E_NO_ENTRY


def test_entry_must_be_zero_arg():
    unit = parse_source("object Main {\n  def main(x) = {\n    x\n  }\n}", "m.ml1")
    trace = run_program(unit, entry="Main.main")
    assert trace.failed
    assert trace.error.code == E_NO_ENTRY


def test_arity_mismatch_fails():
    unit = parse_source(
        "object Main {\n  def f(a, b) = {\n    a\n  }\n  def main() = {\n    f(1)\n  }\n}",
        "m.ml1",
    )
    trace = run_program(unit, entry="Main.main")
    assert trace.failed
    assert "expects 2 arguments" in trace.error.message


def test_calling_a_value_fails():
    unit = parse_source(
        "object Main {\n  val v = 1\n  def main() = {\n    v()\n  }\n}", "m.ml1"
    )
    trace = run_program(unit, entry="Main.main")
    assert trace.failed
    assert "not callable" in trace.error.message


def test_unrewritten_defer_has_no_semantics():
    unit = parse_source(
        "object Main {\n  def main() = {\n    defer {\n      print(1)\n    }\n  }\n}",
        "m.ml1",
    )
    trace = run_program(unit, entry="Main.main")
    assert trace.failed
    assert "not rewritten" in trace.error.message


def test_register_without_frame_is_an_invariant_violation():
    unit = parse_source(
        "object Main {\n  def main() = {\n    __defer(thunk {\n      print(1)\n    })\n  }\n}",
        "m.ml1",
    )
    trace = run_program(unit, entry="Main.main")
    assert trace.failed
    assert trace.error.code == E_NO_FRAME


def test_zero_defers_behaves_like_a_plain_body():
    unit = parse_source(
        "object Main {\n  def main() = __frame {\n    print(1)\n    2\n  }\n}", "m.ml1"
    )
    trace = run_program(unit, entry="Main.main")
    assert trace.events == ["1"]
    assert trace.value == 2


def test_return_value_is_fixed_before_thunks_run():
    unit = parse_source(
        "import go.defer._\n\nobject Main {\n"
        "  def f() = {\n    defer {\n      print(\"late\")\n    }\n    \"early\"\n  }\n"
        "  def main() = {\n    val r = f()\n    print(r)\n  }\n}",
        "m.ml1",
    )
    trace = run_program(GO_DEFER, unit, entry="Main.main")
    assert trace.events == ["late", "early"]


def test_thunk_error_on_normal_exit_becomes_primary():
    unit = parse_source(
        "import go.defer._\n\nobject Main {\n  def main() = {\n"
        "    defer {\n      print(\"t1\")\n    }\n"
        "    defer {\n      error(\"t2-fail\")\n    }\n"
        "    defer {\n      error(\"t3-fail\")\n    }\n"
        "    print(\"body\")\n  }\n}",
        "m.ml1",
    )
    trace = run_program(GO_DEFER, unit, entry="Main.main")
    # LIFO: t3 fails first and becomes primary; t2's failure is suppressed;
    # t1 still runs.
    assert trace.events == ["body", "t1"]
    assert trace.failed
    assert trace.error.message == "t3-fail"
    assert [s.message for s in trace.error.suppressed] == ["t2-fail"]


def test_body_error_wins_over_thunk_errors():
    unit = parse_source(
        "import go.defer._\n\nobject Main {\n  def main() = {\n"
        "    defer {\n      error(\"cleanup-fail\")\n    }\n"
        "    error(\"body-fail\")\n  }\n}",
        "m.ml1",
    )
    trace = run_program(GO_DEFER, unit, entry="Main.main")
    assert trace.failed
    assert trace.error.message == "body-fail"
    assert [s.message for s in trace.error.suppressed] == ["cleanup-fail"]


def test_nested_defers_run_in_go_order():
    # A thunk's own defers run right after that thunk, on the same frame.
    unit = parse_source(
        "import go.defer._\n\nobject Main {\n  def main() = {\n"
        "    defer {\n      print(\"a\")\n      defer {\n        print(\"b\")\n      }\n"
        "      print(\"c\")\n    }\n"
        "    defer {\n      print(\"d\")\n    }\n"
        "    print(\"body\")\n  }\n}",
        "m.ml1",
    )
    trace = run_program(GO_DEFER, unit, entry="Main.main")
    assert trace.events == ["body", "d", "a", "c", "b"]
    assert not trace.failed


def test_inner_thunk_errors_are_primary_or_suppressed():
    def nested(body_stat):
        return parse_source(
            "import go.defer._\n\nobject Main {\n  def main() = {\n"
            "    defer {\n      error(\"outer\")\n    }\n"
            "    defer {\n      defer {\n        error(\"inner\")\n      }\n"
            "      print(\"t1\")\n    }\n"
            f"    {body_stat}\n  }}\n}}",
            "m.ml1",
        )

    # Normal exit: the inner thunk fails first and becomes primary.
    trace = run_program(GO_DEFER, nested('print("body")'), entry="Main.main")
    assert trace.events == ["body", "t1"]
    assert trace.error.message == "inner"
    assert [s.message for s in trace.error.suppressed] == ["outer"]
    # Failing body: the body's error stays primary.
    trace = run_program(GO_DEFER, nested('error("boom")'), entry="Main.main")
    assert trace.events == ["t1"]
    assert trace.error.message == "boom"
    assert [s.message for s in trace.error.suppressed] == ["inner", "outer"]


def test_frame_stack_is_balanced_after_runs():
    unit = parse_fixture("defer", "copy.ml1")
    graph = build_project(GO_DEFER, unit)
    registry = builtin_registry()
    lowered, _ = apply_rewriter(("go.defer.rewriter",), unit, registry)
    final = build_scope_graph([GO_DEFER, lowered])
    resolution = resolve_units(final, [GO_DEFER, lowered])
    machine = Interpreter(final, resolution)
    machine.run("copyfile.Main.main")
    assert machine.frames == []


def test_defer_in_untaken_path_never_runs():
    # The registering helper is simply not called, so nothing unwinds.
    unit = parse_source(
        "import go.defer._\n\nobject Main {\n"
        "  def skipped() = {\n    defer {\n      print(\"never\")\n    }\n  }\n"
        "  def main() = {\n    defer {\n      print(\"only\")\n    }\n    print(\"body\")\n  }\n}",
        "m.ml1",
    )
    trace = run_program(GO_DEFER, unit, entry="Main.main")
    assert trace.events == ["body", "only"]


def test_generated_programs_match_the_simulator():
    rng = random.Random(101)
    registry = builtin_registry()
    for index in range(120):
        program = random_program(rng)
        events, primary, suppressed = simulate(program)
        unit = program_unit(program)
        lowered, _ = apply_rewriter(("go.defer.rewriter",), unit, registry)
        graph = build_scope_graph([GO_DEFER, lowered])
        resolution = resolve_units(graph, [GO_DEFER, lowered])
        assert not resolution.diagnostics
        trace = run(graph, resolution, "Main.main")
        assert trace.events == events, f"program #{index} diverged"
        if primary is None:
            assert not trace.failed
        else:
            assert trace.failed and trace.error.message == primary
            assert [s.message for s in trace.error.suppressed] == suppressed


def resolved(*units):
    graph = build_scope_graph(list(units))
    resolution = resolve_units(graph, list(units))
    assert not graph.diagnostics and not resolution.diagnostics
    return graph, resolution


def with_body(unit, tname, dname, body):
    """Copy of `unit` with def `tname.dname` given another body."""
    templates = []
    for stat in unit.top_stats:
        if isinstance(stat, ast.TemplateDef) and stat.name == tname:
            stats = tuple(
                replace(s, body=body) if isinstance(s, ast.DefDecl) and s.name == dname else s
                for s in stat.stats
            )
            stat = replace(stat, stats=stats)
        templates.append(stat)
    return replace(unit, top_stats=tuple(templates))


ILL_FORMED = ast.Block(
    (ast.Call(ast.Ref(("print",)), (ast.StrLit("before"),)), ast.ImportClause((), ("p",), ast.WILDCARD))
)


def test_ill_formed_node_in_a_def_never_called_is_harmless():
    unit = parse_source(
        "object Main {\n  def unused() = {\n    1\n  }\n"
        "  def main() = {\n    print(\"ran\")\n  }\n}",
        "m.ml1",
    )
    graph, resolution = resolved(with_body(unit, "Main", "unused", ILL_FORMED))
    trace = run(graph, resolution, "Main.main")
    assert trace.events == ["ran"]
    assert not trace.failed


def test_ill_formed_node_fails_when_it_is_evaluated():
    unit = parse_source(
        "object Main {\n  def bad() = {\n    1\n  }\n"
        "  def main() = {\n    print(\"first\")\n    bad()\n  }\n}",
        "m.ml1",
    )
    graph, resolution = resolved(with_body(unit, "Main", "bad", ILL_FORMED))
    trace = run(graph, resolution, "Main.main")
    # The statements before the bad node still ran.
    assert trace.events == ["first", "before"]
    assert trace.error.message == "cannot evaluate ImportClause"


def test_reached_defer_candidate_keeps_its_message_and_span():
    source = (
        "object Main {\n  def main() = {\n    print(\"before\")\n"
        "    defer {\n      print(1)\n    }\n    print(\"after\")\n  }\n}"
    )
    trace = run_program(parse_source(source, "m.ml1"), entry="Main.main")
    assert trace.events == ["before"]
    assert trace.error.message == "defer has no meaning here; the unit was not rewritten"
    span = trace.error.span
    assert source[span.start : span.end] == "defer {\n      print(1)\n    }"


def test_equal_references_evaluate_their_own_bindings():
    unit = parse_source(
        "object A {\n  val v = \"a\"\n  def f() = {\n    v\n  }\n}\n"
        "object B {\n  val v = \"b\"\n  def f() = {\n    v\n  }\n}\n"
        "object Main {\n  def main() = {\n    print(A.f())\n    print(B.f())\n  }\n}",
        "m.ml1",
    )
    graph, resolution = resolved(unit)
    ref_a = graph.decls["A.f"].body.stats[0]
    ref_b = graph.decls["B.f"].body.stats[0]
    assert ref_a == ref_b and ref_a is not ref_b
    assert resolution.symbol_for(ref_a).fqn == "A.v"
    assert resolution.symbol_for(ref_b).fqn == "B.v"
    assert run(graph, resolution, "Main.main").events == ["a", "b"]


def test_repeated_runs_on_one_graph_give_identical_traces():
    lowered, _ = apply_rewriter(
        ("go.defer.rewriter",), parse_fixture("defer", "copy_boom.ml1"), builtin_registry()
    )
    graph, resolution = resolved(GO_DEFER, lowered)
    traces = []
    machine = Interpreter(graph, resolution)
    for _ in range(2):
        fresh = run(graph, resolution, "copyfile.Main.main")
        traces.append((fresh.events, fresh.error.message, fresh.error.suppressed))
        again = machine.run("copyfile.Main.main")  # reuses the compiled closures
        assert machine.frames == []
        assert machine.depth == 0
        traces.append((again.events, again.error.message, again.error.suppressed))
    assert all(trace == traces[0] for trace in traces)
    assert traces[0][0] == ["open-in", "open-out", "transfer", "close-out", "close-in"]


def test_block_locals_and_template_vals_follow_the_binding_model():
    # A block local's scope is the whole block, so the first `x` in `f`
    # means the block's `x` and crosses its `val`: a forward reference. A
    # template `val` is evaluated once, at its first read.
    source = (
        "object M {\n  val x = {\n    print(\"eval-x\")\n    1\n  }\n"
        "  def f(x) = {\n    print(x)\n    val x = \"inner\"\n    x\n  }\n"
        "  def main() = {\n    print(f(\"param\"))\n    print(add(x, x))\n  }\n}"
    )
    graph = build_scope_graph([parse_source(source, "m.ml1")])
    resolution = resolve_units(graph, graph.units)
    [diag] = resolution.diagnostics
    assert diag.code == E_FORWARD_REFERENCE
    assert source[diag.span.start : diag.span.end] == "x"
    assert diag.span.start == source.index("print(x)") + len("print(")
    unit = parse_source(source.replace("    print(x)\n", ""), "m.ml1")
    graph, resolution = resolved(unit)
    trace = run(graph, resolution, "M.main")
    assert trace.events == ["inner", "eval-x", "2"]


def test_a_local_def_may_call_one_declared_later_in_its_block():
    unit = parse_source(
        "object M {\n  def g() = {\n    def h() = {\n      k()\n    }\n"
        "    print(h())\n    def k() = {\n      \"k\"\n    }\n  }\n}",
        "m.ml1",
    )
    graph, resolution = resolved(unit)
    trace = run(graph, resolution, "M.g")
    assert trace.events == ["k"] and not trace.failed


def test_sibling_blocks_keep_their_own_locals():
    unit = parse_source(
        "import go.defer._\n\nobject M {\n  def main() = {\n"
        "    {\n      val y = \"1\"\n      defer {\n        print(y)\n      }\n    }\n"
        "    {\n      val y = \"2\"\n      defer {\n        print(y)\n      }\n    }\n"
        "    print(\"body\")\n  }\n}",
        "m.ml1",
    )
    trace = run_program(GO_DEFER, unit, entry="M.main")
    assert trace.events == ["body", "2", "1"]


def test_template_val_is_evaluated_once_per_run():
    unit = parse_source(
        "object M {\n  val v = {\n    print(\"eval-v\")\n    \"1\"\n  }\n"
        "  def main() = {\n    print(v)\n    print(concat(v, M.v))\n  }\n}",
        "m.ml1",
    )
    graph, resolution = resolved(unit)
    machine = Interpreter(graph, resolution)
    for _ in range(2):
        trace = machine.run("M.main")
        assert trace.events == ["eval-v", "1", "11"]


def test_cyclic_template_vals_end_in_a_coded_error():
    source = (
        "object M {\n  val a = {\n    b\n  }\n  val b = {\n    a\n  }\n"
        "  def main() = {\n    print(\"start\")\n    print(a)\n  }\n}"
    )
    graph, resolution = resolved(parse_source(source, "m.ml1"))
    trace = run(graph, resolution, "M.main")
    assert trace.events == ["start"]
    assert isinstance(trace.error, EvalError)
    assert trace.error.code == E_CYCLIC_VAL
    assert trace.error.message == "val M.a is read during its own initialisation"
    start = source.index("    a\n") + 4  # the read of `a` inside `b`
    assert trace.error.span == Span(start, start + 1)


def test_a_val_whose_initialisation_failed_is_evaluated_again():
    unit = parse_source(
        "import go.defer._\n\nobject M {\n  val v = {\n    print(\"eval-v\")\n    error(\"boom\")\n  }\n"
        "  def main() = {\n    defer {\n      print(v)\n    }\n    print(v)\n  }\n}",
        "m.ml1",
    )
    trace = run_program(GO_DEFER, unit, entry="M.main")
    assert trace.events == ["eval-v", "eval-v"]
    assert trace.error.message == "boom"
    assert [err.message for err in trace.error.suppressed] == ["boom"]


def printed_reads(unit):
    """Each `print(concat("<id>|", read))` of a generated binding program:
    id -> the Ref that `read` names."""
    reads = {}
    for node in ast.walk(unit):
        if isinstance(node, ast.Call) and node.callee.parts == ("print",):
            [arg] = node.args
            label, read = arg.args
            reads[label.value[:-1]] = read.callee if isinstance(read, ast.Call) else read
    return reads


def test_every_read_sees_the_binder_the_resolver_chose():
    """Differential: params, nested blocks, shadowing, local defs called
    forward and backward, a template val with locals, and defers. Each
    printed read yields the tag of the symbol `resolve` bound it to, and
    that symbol is the binder Scala's block rules pick."""
    rng = random.Random(2718)
    registry = builtin_registry()
    events = forward_calls = 0
    for index in range(220):
        program = gen.BindingProgram(rng)
        lowered, _ = apply_rewriter(("go.defer.rewriter",), program.unit, registry)
        graph, resolution = resolved(GO_DEFER, lowered)
        reads = printed_reads(lowered)
        assert set(reads) == set(program.expected)
        for ident, ref in reads.items():
            assert resolution.symbol_for(ref).fqn == program.expected[ident], f"program #{index}, {ident}"
        trace = run(graph, resolution, "Main.main")
        assert not trace.failed, f"program #{index}: {trace.error.message}"
        for event in trace.events:
            ident, value = event.split("|")
            assert value == resolution.symbol_for(reads[ident]).fqn, f"program #{index}, {ident}"
        events += len(trace.events)
        forward_calls += program.forward_reads
    assert events > 1000 and forward_calls > 50


@pytest.mark.parametrize("call", ["print(big)", "error(big)", 'concat("", big)'])
def test_rendering_an_over_long_integer_fails_at_the_builtin_call(call):
    limit = sys.get_int_max_str_digits()
    call = call.replace("big", f"add({'9' * limit}, {'9' * limit})")
    source = f"object Main {{\n  def main() = {{\n    {call}\n  }}\n}}"
    trace = run_program(parse_source(source, "m.ml1"), entry="Main.main")
    assert trace.failed and trace.events == []
    assert trace.error.message == f"integer too long to render (more than {limit} digits)"
    assert source[trace.error.span.start : trace.error.span.end] == call


def test_concat_evaluates_both_arguments_before_rendering_either():
    limit = sys.get_int_max_str_digits()
    call = f"concat(add({'9' * limit}, {'9' * limit}), print(\"second\"))"
    source = f"object Main {{\n  def main() = {{\n    {call}\n  }}\n}}"
    trace = run_program(parse_source(source, "m.ml1"), entry="Main.main")
    assert trace.events == ["second"]
    assert trace.error.message == f"integer too long to render (more than {limit} digits)"
    assert source[trace.error.span.start : trace.error.span.end] == call
