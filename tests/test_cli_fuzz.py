"""The 0/1/2 exit contract under generated text: raw strings, token soup
near the grammar, and fixture files with a slice cut out or replaced go
through `cli.main` for all five subcommands. Whatever the input, the exit
code is 0, 1 or 2 and stderr never reports an internal error.

Hypothesis runs derandomized, so the suite sees the same inputs on every
run."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ml1.cli import main

from conftest import FIXTURES

COMMANDS = [
    ["parse", "--dump-ast"],
    ["resolve", "--dump"],
    ["rewrite", "--dump"],
    ["run", "--entry", "Main.main"],
    ["run", "--entry", "copyfile.Main.main"],  # the entry of the defer fixtures
    ["run", "--entry", "loopdemo.Main.main"],
    ["lint", "--marker", "DefaultRewriter"],
]

FRAGMENTS = [
    "package", "import", "object", "trait", "implicit", "extends", "with", "def", "val",
    "defer", "@exported", "@other", "{", "}", "(", ")", "=", "=>", ".", ",", "_", ";",
    "\n", " ", "Main", "main", "go", "defer", "demo.upper", "DefaultRewriter", "x", "y",
    "print", "concat", "error", "compose", "1", "42", '"s"', '"', "\\", "//", "/*", "*/",
    "import go.defer._\n", "object Main {\n", "def main() = {\n", "}\n", "print(x)\n",
]

FIXTURE_TEXTS = sorted(path.read_text(encoding="utf-8") for path in FIXTURES.rglob("*.ml1"))
LIBRARY = str(FIXTURES / "lib" / "go_defer.ml1")


@st.composite
def mutated_fixture(draw) -> str:
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    start = draw(st.integers(0, len(text)))
    end = draw(st.integers(start, min(len(text), start + 40)))
    return text[:start] + draw(st.text(max_size=8)) + text[end:]


@st.composite
def fixture_with_lines_dropped(draw) -> str:
    lines = draw(st.sampled_from(FIXTURE_TEXTS)).splitlines()
    dropped = draw(st.sets(st.integers(0, len(lines) - 1), max_size=3))
    return "\n".join(line for index, line in enumerate(lines) if index not in dropped)


SOURCES = st.one_of(
    st.text(max_size=120),
    st.lists(st.sampled_from(FRAGMENTS), max_size=60).map(" ".join),
    mutated_fixture(),
    fixture_with_lines_dropped(),
)


@pytest.fixture(scope="module")
def unit_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "unit.ml1"


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=SOURCES)
def test_generated_text_keeps_the_exit_contract(unit_path, source):
    unit_path.write_text(source, encoding="utf-8")
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*command, LIBRARY, str(unit_path)])
        assert status in (0, 1, 2), (command, source)
        assert "internal error" not in err.getvalue(), (command, source, err.getvalue())
