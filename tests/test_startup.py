"""What each ml1 command loads at start-up: the modules a command imports
beyond those a bare interpreter already holds. Comparing with a bare
`python -c` on the same interpreter cancels out whatever `site` and its
hooks import."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ml1

from conftest import SALAT_AFTER, fixture_paths

SRC = str(Path(ml1.__file__).resolve().parent.parent)

# Runs `cli.main` on the command line given after `-c`, with the command's
# own output sent to the null device, then prints every loaded module.
CHILD = (
    "import os, sys\n"
    "from ml1.cli import main\n"
    "sys.stdout = open(os.devnull, 'w')\n"
    "status = main(sys.argv[1:])\n"
    "print(status, *sorted(sys.modules), sep='\\n', file=sys.__stdout__)\n"
)

DEFER = fixture_paths("lib/go_defer.ml1", "defer/copy.ml1")
SALAT = fixture_paths(*SALAT_AFTER)

# The ml1 modules every command loads: `parse` loads only these.
FRONT_END = {"ml1", "ml1.cli", "ml1.ast", "ml1.parser", "ml1.tokens", "ml1.record"}
RESOLVE = FRONT_END | {"ml1.scopes", "ml1.resolve", "ml1.diagnostics"}
REWRITE = RESOLVE | {"ml1.rewrite", "ml1.printer"}

# (command line, exit status, whether it loads `json`, the ml1 modules it loads)
COMMANDS = [
    (["parse", *DEFER], 0, False, FRONT_END),
    (["parse", "--dump-ast", *DEFER], 0, True, FRONT_END),
    (["parse", "--dump-ast", "--format", "pretty", *DEFER], 0, False, FRONT_END | {"ml1.printer"}),
    (["resolve", *DEFER], 0, False, RESOLVE),
    (["resolve", "--dump", *DEFER], 0, True, RESOLVE | {"ml1.dump"}),
    (["resolve", "--dump", "--format", "pretty", *DEFER], 0, False, RESOLVE),
    (["rewrite", *DEFER], 0, False, REWRITE),
    (["rewrite", "--dump", *DEFER], 0, True, REWRITE),
    (["run", "--entry", "copyfile.Main.main", *DEFER], 0, False, REWRITE - {"ml1.printer"} | {"ml1.interp"}),
    (["lint", "--marker", "Context", *SALAT], 0, False, RESOLVE),
]
IDS = [" ".join(word for word in command if not word.endswith(".ml1")) for command, *_ in COMMANDS]


def _modules(*argv: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.fixture(scope="module")
def bare() -> set[str]:
    return set(_modules("-c", "import sys; print(*sys.modules, sep='\\n')"))


@pytest.fixture(scope="module")
def start_up(bare):
    """A command line's exit status and the modules it loads beyond a bare
    interpreter's, each command line run once."""
    runs: dict[tuple[str, ...], tuple[int, set[str]]] = {}

    def run(command: list[str]) -> tuple[int, set[str]]:
        if tuple(command) not in runs:
            status, *loaded = _modules("-c", CHILD, *command)
            runs[tuple(command)] = int(status), set(loaded) - bare
        return runs[tuple(command)]

    return run


@pytest.mark.parametrize("command, status, loads_json, modules", COMMANDS, ids=IDS)
def test_start_up_loads_no_dataclasses_and_json_only_to_dump(start_up, command, status, loads_json, modules):
    got_status, new = start_up(command)
    assert got_status == status
    assert not {"dataclasses", "inspect"} & new
    assert ("json" in new) == loads_json


@pytest.mark.parametrize("command, status, loads_json, modules", COMMANDS, ids=IDS)
def test_start_up_loads_no_argument_parser_library(start_up, command, status, loads_json, modules):
    """`cli.parse_args` reads the command line itself: `argparse` and the
    `gettext` and `locale` it loads for its messages stay out."""
    _, new = start_up(command)
    assert not {"argparse", "gettext", "locale"} & new


@pytest.mark.parametrize("command, status, loads_json, modules", COMMANDS, ids=IDS)
def test_each_command_loads_exactly_its_ml1_modules(start_up, command, status, loads_json, modules):
    _, new = start_up(command)
    assert {name for name in new if name.split(".")[0] == "ml1"} == modules


def test_importing_the_package_loads_only_the_package(bare):
    loaded = _modules("-c", "import sys, ml1; print(*sys.modules, sep='\\n')")
    assert set(loaded) - bare == {"ml1"}
