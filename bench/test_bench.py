"""Tests of the benchmark itself: determinism, oracles against ml1, and the
output contract of `run.py`.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checks import prepare  # noqa: E402
from workloads import GENERATORS, generate  # noqa: E402

from ml1 import cli  # noqa: E402
from ml1.parser import parse_unit  # noqa: E402
from ml1.scopes import build_scope_graph, export_closure  # noqa: E402
from ml1.tokens import tokenize  # noqa: E402

SMALL = {
    "project": {"clients": 6, "providers": 3, "defs": 4},
    "reexport_web": {"dense": 4, "chain": 8, "wide": 2, "wide_defs": 5},
    "defer_tree": {"depth": 4, "chain": 10, "failing": 3},
}

# Never used while the benchmark was written, so the oracles were not tuned to it.
FRESH_SEED = 40417


def in_process(prepared, directory: Path, monkeypatch) -> list[str]:
    """Run every command of `prepared` through `ml1.cli.main`; return the
    oracle's complaints."""
    for name, text in prepared.sources.items():
        (directory / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(directory)
    problems = []
    for command in [prepared.cold, *prepared.commands]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(command.argv))
        problem = command.verify(status, out.getvalue().encode(), err.getvalue().encode())
        if problem is not None:
            problems.append(problem)
    return problems


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    first = prepare(generate(workload, 7)).sources
    assert first == prepare(generate(workload, 7)).sources
    assert first != prepare(generate(workload, 8)).sources


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_oracles_agree_with_ml1_on_small_sizes(workload, seed, tmp_path, monkeypatch):
    prepared = prepare(generate(workload, seed, **SMALL[workload]))
    assert in_process(prepared, tmp_path, monkeypatch) == []


@pytest.mark.parametrize("seed", [1, 2])
def test_closure_oracle_matches_export_closure(seed):
    """Pairs from the model's path enumeration equal ml1's closure pairs for
    every template, including the dense family's renames and hides."""
    from oracles import ScopeModel

    workload = generate("reexport_web", seed, **SMALL["reexport_web"])
    sources = prepare(workload).sources
    graph = build_scope_graph([parse_unit(tokenize(text), name) for name, text in sources.items()])
    scopes = ScopeModel(workload.units)
    for template in scopes.templates():
        assert scopes.closure_pairs(template) == export_closure(graph, template).pairs(), template


@pytest.mark.parametrize("workload", sorted(GENERATORS))
def test_fresh_seed_full_size_has_no_failures(workload, tmp_path, monkeypatch):
    prepared = prepare(generate(workload, FRESH_SEED))
    assert in_process(prepared, tmp_path, monkeypatch) == []


def test_generated_projects_have_no_diagnostics():
    for workload in GENERATORS:
        sources = prepare(generate(workload, 1)).sources
        graph = build_scope_graph([parse_unit(tokenize(text), name) for name, text in sources.items()])
        assert graph.diagnostics == [], workload


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(GENERATORS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_reference_prints_its_checksum():
    assert run.reference() > 0


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,metrics", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_run_prints_the_result_line(trace, metrics):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "defer_tree", "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = _result(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == metrics


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "project", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
        env=env,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
