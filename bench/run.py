"""Benchmark for the ml1 command-line tool.

    python3 bench/run.py --workload project --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The script generates the workload's units
from the seed, computes the expected output of every command with its own
oracles, and then, for `--seconds` seconds, runs one `python -m ml1`
subprocess at a time (a closed loop with one client), cycling through
`parse`, `resolve --dump`, `rewrite`, `run` and `lint`. Every invocation's
exit code, stdout and stderr are checked against the oracles.

With `--trace 0` it reports the median time of each command, the peak
RSS of any one invocation and the set-up time: the median of five set-ups,
each generating the inputs and oracles afresh and making a first, untimed
`ml1 resolve` on them.

Times are corrected for the host's speed. On a shared host the same Python
code runs up to 1.8 times slower from one second to the next and drifts by
a third over minutes, for all processes at once. So `bench/reference.py`, a
fixed pure-Python program that uses nothing from ml1, runs before the first
timed invocation and after each one, and every wall time is multiplied by
`REFERENCE_S` over the mean time of the two reference runs around it. A
time metric is thus the wall time on a host where the reference takes
`REFERENCE_S` seconds. No change to ml1 moves the reference, so the factor
only removes the host's drift. The raw wall times and the reference times
are printed too, on the environment line.

With `--trace 1` it instead
calls `ml1.cli.main` in-process, alternating traced and untraced passes over
the same five commands, and reports per-layer times and counts from spans
around each layer's public functions, plus the tracing overhead. Spans of the
last traced pass go to `.bench_out/`, and so does each result with its
environment. End-to-end numbers never come from a traced run.

What each layer metric should move, and where:

- `scopes.export_closure.s` dominates `resolve_s` and `lint_s` on
  `reexport_web` and is near zero on `defer_tree`. `scope_lookup` and
  `implicit_candidates` recompute a closure on every lookup miss, so a
  closure cache or exact pruning also lowers `resolve.*.s`, and on
  `project` it lowers every command but `parse`.
- `tokens.*` and `parser.*` move `parse_s` and every other command, most on
  `project`; on `defer_tree` the front-end commands cost about the process
  start-up.
- `rewrite.*` and `printer.*` move `rewrite_s` and `run_s` on `project`;
  `reexport_web` has no rewriter, so there they only copy.
- `interp.run.s` moves `run_s` on `defer_tree` and almost nothing elsewhere.
  Shrinking the tree in a rewrite leaves less for the interpreter; defer
  lowering grows it. On `project` and `reexport_web`, `run_s` is mostly
  compile work: `ml1 run` rewrites, builds the scope graph twice and
  resolves everything.
- `cli.self.*` (CLI time outside every layer span) moves `resolve_s` and
  `peak_rss_mib` on `reexport_web`, where `resolve --dump` writes about
  10 MB of JSON.

The first line of stdout records the environment (Python version, CPU
count, commit, seed, input size and every invocation's wall time), then one
line per metric follows, and the last line is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. `failed` counts invocations
whose exit code, stdout or stderr differ from the oracles.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from checks import COMMANDS, Command, Prepared, prepare  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import GENERATORS, generate  # noqa: E402

SETUP_REPEATS = 5
MIN_SAMPLES = 3  # per command, even past the deadline
REFERENCE_S = 0.075  # about the reference's median wall time on a shared 2-vCPU x86-64 host
REFERENCE_OUTPUT = b"36445\n"

END_TO_END = {
    "parse_s": "s",
    "resolve_s": "s",
    "rewrite_s": "s",
    "run_s": "s",
    "lint_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}

_LAYER_TIMES = [
    "tokens.tokenize",
    "parser.parse_unit",
    "scopes.build_scope_graph",
    "scopes.export_closure",
    "resolve.resolve_units",
    "resolve.implicit_candidates",
    "resolve.check_context_consistency",
    "rewrite.bind_rewriter",
    "rewrite.apply_rewriter",
    "printer.pretty_print",
    "interp.run",
    "cli.main",
]
PER_LAYER = {
    **{f"{name}.s": "s" for name in _LAYER_TIMES},
    **{
        f"{name}.self_s": "s"
        for name in (
            "resolve.resolve_units",
            "resolve.implicit_candidates",
            "resolve.check_context_consistency",
            "rewrite.bind_rewriter",
        )
    },
    "cli.self.s": "s",
    **{f"cli.main.{cmd}.s": "s" for cmd in COMMANDS},
    **{f"cli.self.{cmd}.s": "s" for cmd in COMMANDS},
    "cli.main.untraced.s": "s",
    "trace.overhead_s": "s",
    **{f"{name}.calls": "count" for name in _LAYER_TIMES},
    "tokens.count": "count",
    "parser.nodes": "count",
    "scopes.symbols": "count",
    "scopes.export_edges": "count",
    "scopes.closure_entries": "count",
    "scopes.closure_pairs": "count",
    "scopes.closure_pairs_per_entry": "ratio",
    "resolve.refs": "count",
    "resolve.unresolved": "count",
    "resolve.implicit_candidates.found": "count",
    "resolve.divergences": "count",
    "rewrite.templates_touched": "count",
    "rewrite.nodes_replaced": "count",
    "printer.bytes": "bytes",
    "interp.events": "count",
}

_TOKEN = re.compile(r'[A-Za-z_][A-Za-z0-9_]*|\d+|"(?:[^"\\\n]|\\.)*"|=>|[.,{}()@;=]')


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, command: Command, status: int, out: bytes, err: bytes) -> None:
        self.attempted += 1
        problem = command.verify(status, out, err)
        if problem is not None:
            self.failures.append(problem)
            print(f"bench: {problem}", file=sys.stderr)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def invoke(argv: list[str], cwd: Path) -> tuple[float, int, bytes, bytes, object]:
    """Run `python -m ml1 ARGV` in `cwd`: wall seconds, exit code, stdout,
    stderr and the child's resource usage."""
    with open(cwd / ".stdout", "w+b") as out, open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ml1", *argv], cwd=cwd, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return seconds, proc.returncode, out.read(), err.read(), usage


def reference() -> float:
    """Run `bench/reference.py` once; its wall seconds."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, str(BENCH / "reference.py")], stdout=subprocess.PIPE, check=True)
    seconds = time.perf_counter() - start
    if done.stdout != REFERENCE_OUTPUT:
        raise RuntimeError(f"bench/reference.py printed {done.stdout!r}, expected {REFERENCE_OUTPUT!r}")
    return seconds


def host_scale(before: float, after: float) -> float:
    """The factor that turns a wall time measured between two reference runs
    into the time on a host where the reference takes REFERENCE_S."""
    return REFERENCE_S / ((before + after) / 2)


def set_up(workload: str, seed: int, scratch: Path, tally: Tally) -> tuple[list[float], list[float], Prepared, Path]:
    """Generate the inputs and oracles and make the first, untimed
    invocation, SETUP_REPEATS times from scratch. Returns the scaled and the
    raw set-up times, the last preparation and the directory holding its
    inputs."""
    scaled, raw = [], []
    before = reference()
    for attempt in range(SETUP_REPEATS):
        inputs = scratch / f"inputs{attempt}"
        start = time.perf_counter()
        prepared = prepare(generate(workload, seed))
        inputs.mkdir()
        for name, text in prepared.sources.items():
            (inputs / name).write_text(text, encoding="utf-8")
        _, status, out, err, _ = invoke(prepared.cold.argv, inputs)
        raw.append(time.perf_counter() - start)
        after = reference()
        scaled.append(raw[-1] * host_scale(before, after))
        before = after
        tally.record(prepared.cold, status, out, err)
        if attempt + 1 < SETUP_REPEATS:
            shutil.rmtree(inputs)
    return scaled, raw, prepared, inputs


def timed(prepared: Prepared, inputs: Path, seconds: float, tally: Tally) -> dict:
    """Closed loop, one invocation at a time, cycling through the commands,
    with a reference run before the first invocation and after each."""
    walls: dict[str, list[float]] = {c.name: [] for c in prepared.commands}
    scaled: dict[str, list[float]] = {c.name: [] for c in prepared.commands}
    references = [reference()]
    peak_kib = 0
    deadline = time.perf_counter() + seconds
    turn = 0
    while time.perf_counter() < deadline or min(map(len, walls.values())) < MIN_SAMPLES:
        command = prepared.commands[turn % len(prepared.commands)]
        turn += 1
        wall, status, out, err, usage = invoke(command.argv, inputs)
        references.append(reference())
        tally.record(command, status, out, err)
        walls[command.name].append(wall)
        scaled[command.name].append(wall * host_scale(references[-2], references[-1]))
        peak_kib = max(peak_kib, usage.ru_maxrss)
    metrics = {f"{name}_s": statistics.median(times) for name, times in scaled.items()}
    metrics["peak_rss_mib"] = peak_kib / 1024
    metrics["wall_s"] = walls
    metrics["reference_s"] = references
    return metrics


def traced(workload: str, seed: int, prepared: Prepared, inputs: Path, seconds: float, tally: Tally) -> dict:
    """Alternate traced and untraced in-process passes over the commands;
    report per-layer medians over the traced passes."""
    sys.path.insert(0, str(SRC))
    from ml1 import cli

    tracer = Tracer()
    passes: list[dict[str, float]] = []
    untraced: list[float] = []
    previous = os.getcwd()
    os.chdir(inputs)
    try:
        for command in prepared.commands:  # warm-up: first-call imports and caches
            _in_process(cli, command, tally)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(passes) < 2:
            # Alternate which kind of pass goes first, so neither gets the
            # other's garbage to collect.
            for traced_pass in (True, False) if len(passes) % 2 else (False, True):
                gc.collect()
                if not traced_pass:
                    untraced.append(sum(_in_process(cli, command, tally) for command in prepared.commands))
                    continue
                tracer.reset()
                tracer.install()
                try:
                    for command in prepared.commands:
                        tracer.command = command.name
                        _in_process(cli, command, tally)
                finally:
                    tracer.uninstall()
                passes.append(tracer.metrics())
    finally:
        os.chdir(previous)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-{seed}.json"
    spans.write_text(json.dumps(tracer.span_records(workload)), encoding="utf-8")
    print(f"bench: {len(tracer.spans)} spans of the last traced pass in {spans.relative_to(ROOT)}", file=sys.stderr)
    metrics = {key: statistics.median(p.get(key, 0.0) for p in passes) for key in passes[-1]}
    metrics["cli.main.untraced.s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["cli.main.s"] - metrics["cli.main.untraced.s"]
    return metrics


def _in_process(cli, command: Command, tally: Tally) -> float:
    """Call `ml1.cli.main` with output captured; returns its wall time."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        status = cli.main(list(command.argv))
        seconds = time.perf_counter() - start
    tally.record(command, status, out.getvalue().encode(), err.getvalue().encode())
    return seconds


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(workload: str, seed: int, prepared: Prepared) -> dict:
    texts = prepared.sources.values()
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "workload": workload,
        "seed": seed,
        "input_files": len(prepared.sources),
        "input_bytes": sum(len(t.encode()) for t in texts),
        "input_tokens": sum(len(_TOKEN.findall(t)) for t in texts),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ml1" / "__main__.py").is_file():
        print(f"bench: no ml1 sources in {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    tally = Tally()
    try:
        setup_times, setup_walls, prepared, inputs = set_up(args.workload, args.seed, scratch, tally)
        if args.trace:
            found = traced(args.workload, args.seed, prepared, inputs, args.seconds, tally)
            wanted = PER_LAYER
        else:
            found = timed(prepared, inputs, args.seconds, tally)
            found["setup_s"] = statistics.median(setup_times)
            wanted = END_TO_END
        env = environment(args.workload, args.seed, prepared)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it

    failed = len(tally.failures)
    env["failed_frac"] = failed / tally.attempted
    if not args.trace:
        env["wall_s"] = found["wall_s"]
        env["reference_s"] = found["reference_s"]
        env["setup_runs_s"] = setup_walls
        env["setup_runs_scaled_s"] = setup_times
    print(json.dumps({"environment": env}))
    for name, unit in wanted.items():
        print(f"{name:40} {found[name]:14.6f} {unit}")
    if not args.trace:
        for name, walls in found["wall_s"].items():
            print(f"{name + '_s unscaled':40} {statistics.median(walls):14.6f} s")
        print(f"{'setup_s unscaled':40} {statistics.median(setup_walls):14.6f} s")
        print(f"{'reference_s':40} {statistics.median(found['reference_s']):14.6f} s")
    print(f"{'failed_frac':40} {env['failed_frac']:14.6f} ratio ({failed} of {tally.attempted} invocations)")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": found[name], "unit": unit} for name, unit in wanted.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, **result}, indent=2), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
