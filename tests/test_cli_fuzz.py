"""The 0/1/2 exit contract under generated text: raw strings, token soup
near the grammar, fixture files with a slice cut out or replaced, and raw
bytes that need not be UTF-8 go through `cli.main` for all five
subcommands. Whatever the input, the exit code is 0, 1 or 2 and stderr
never reports an internal error.

Hypothesis runs derandomized, so one tree's inputs repeat from run to run.
They depend on the `src` under test, though: a change to `ml1` can change
which inputs Hypothesis draws. A byte-identity check between two trees must
therefore replay the union of both trees' inputs on each tree."""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ml1.cli import main

from conftest import FIXTURES, FRAGMENTS

COMMANDS = [
    ["parse", "--dump-ast"],
    ["resolve", "--dump"],
    ["rewrite", "--dump"],
    ["run", "--entry", "Main.main"],
    ["run", "--entry", "copyfile.Main.main"],  # the entry of the defer fixtures
    ["run", "--entry", "loopdemo.Main.main"],
    ["lint", "--marker", "DefaultRewriter"],
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


def _check_exit_contract(unit_path, source):
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*command, LIBRARY, str(unit_path)])
        assert status in (0, 1, 2), (command, source)
        assert "internal error" not in err.getvalue(), (command, source, err.getvalue())


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(source=SOURCES)
def test_generated_text_keeps_the_exit_contract(unit_path, source):
    unit_path.write_text(source, encoding="utf-8")
    _check_exit_contract(unit_path, source)


@st.composite
def fixture_with_bytes_replaced(draw) -> bytes:
    data = draw(st.sampled_from(FIXTURE_TEXTS)).encode("utf-8")
    start = draw(st.integers(0, len(data)))
    end = draw(st.integers(start, min(len(data), start + 8)))
    return data[:start] + draw(st.binary(min_size=1, max_size=4)) + data[end:]


# Raw bytes, much of them not UTF-8: the bytes 0xff and 0xc0 never occur in
# UTF-8, and a lone 0xe9 starts a sequence that it does not finish.
BYTE_FRAGMENTS = [fragment.encode("utf-8") for fragment in FRAGMENTS] + [b"\xff", b"\xc0\xaf", b"\xe9"]
BYTES = st.one_of(
    st.binary(max_size=80),
    fixture_with_bytes_replaced(),
    st.lists(st.sampled_from(BYTE_FRAGMENTS), max_size=40).map(b"".join),
)


@settings(
    max_examples=60,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=BYTES)
def test_generated_bytes_keep_the_exit_contract(unit_path, data):
    unit_path.write_bytes(data)
    _check_exit_contract(unit_path, data)
