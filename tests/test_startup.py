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

# (command line, exit status, whether it loads `json`)
COMMANDS = [
    (["parse", *DEFER], 0, False),
    (["parse", "--dump-ast", *DEFER], 0, True),
    (["parse", "--dump-ast", "--format", "pretty", *DEFER], 0, False),
    (["resolve", *DEFER], 0, False),
    (["resolve", "--dump", *DEFER], 0, True),
    (["rewrite", *DEFER], 0, False),
    (["rewrite", "--dump", *DEFER], 0, True),
    (["run", "--entry", "copyfile.Main.main", *DEFER], 0, False),
    (["lint", "--marker", "Context", *SALAT], 0, False),
]


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


@pytest.mark.parametrize(
    "command, status, loads_json",
    COMMANDS,
    ids=[" ".join(word for word in command if not word.endswith(".ml1")) for command, _, _ in COMMANDS],
)
def test_start_up_loads_no_dataclasses_and_json_only_to_dump(bare, command, status, loads_json):
    got_status, *loaded = _modules("-c", CHILD, *command)
    assert int(got_status) == status
    new = set(loaded) - bare
    assert not {"dataclasses", "inspect"} & new
    assert ("json" in new) == loads_json
