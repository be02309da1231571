"""`cli.parse_args` against argparse, which read ml1's command line before.

The reference is the old parser definition, one standalone parser per
command (prog `ml1 run`, and so on), read with
`parse_known_intermixed_args`: it differs from the old parser only in that
FILE words may stand on both sides of an option. Two words need a reference
rule of their own:

- `--`. `parse_intermixed_args` still reads options after it on some Python
  versions, so the reference takes it out. It reads the words before it,
  with one placeholder FILE in front when words follow it, and then
  appends those words to the files.
- Unrecognized words. When an unknown option splits the FILE words, the
  files after it are left over as well. The old `main` then named only the
  leftover words that argparse takes for options, and so does the
  reference.

On every command line of a bounded space, a line the reference accepts must
give the same attributes, and `-h` must exit 0 on both sides. A line it
rejects must exit 2, with a `usage: ml1 ` first line on stderr and an
`error:` last line. When the reference rejects the line for unrecognized
words only, that last line must match it byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import re

from ml1 import cli

PLACEHOLDER = "placeholder.ml1"


def reference_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"ml1 {command}")
    parser.add_argument("files", nargs="+", metavar="FILE")
    if command in ("parse", "resolve", "rewrite"):
        parser.add_argument("--format", choices=("json", "pretty"), default="json")
    if command == "parse":
        parser.add_argument("--dump-ast", action="store_true", dest="dump_ast")
    if command in ("resolve", "rewrite"):
        parser.add_argument("--dump", action="store_true")
    if command == "run":
        parser.add_argument("--entry", required=True, metavar="FQN")
    if command == "lint":
        parser.add_argument("--marker", action="append", required=True, metavar="FQN")
    return parser


def top_level_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ml1")
    parser.add_argument("command", choices=tuple(cli.COMMANDS))
    return parser


REFERENCE = {command: reference_parser(command) for command in cli.COMMANDS}
TOP_LEVEL = top_level_parser()


def _looks_like_an_option(word: str) -> bool:
    """What argparse takes for an option word in these parsers: it starts
    with `-`, and it is not `-` alone, a negative number or a word with a
    space."""
    return word.startswith("-") and word != "-" and " " not in word and not re.match(r"^-\d+$|^-\d*\.\d+$", word)


def reference(argv: list[str]) -> tuple:
    """("ok", attributes), ("help",), or ("error", the last stderr line or
    None when any error line will do)."""
    quiet = contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO())
    try:
        with quiet[0], quiet[1]:
            TOP_LEVEL.parse_known_args(argv[:1])
            command, *words = argv
            before, after = words, []
            if "--" in words:
                cut = words.index("--")
                before, after = words[:cut], words[cut + 1 :]
            namespace, extras = REFERENCE[command].parse_known_intermixed_args(
                [PLACEHOLDER, *before] if after else before
            )
    except SystemExit as stop:
        return ("help",) if stop.code == 0 else ("error", None)
    if extras:
        named = [word for word in extras if _looks_like_an_option(word)] or extras
        return "error", f"ml1: error: unrecognized arguments: {' '.join(named)}"
    attributes = vars(namespace)
    attributes["files"] = attributes["files"][1:] + after if after else attributes["files"]
    return "ok", attributes


def parsed(argv: list[str]) -> tuple:
    """`cli.parse_args` on `argv`, in the form `reference` gives."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = cli.parse_args(argv)
    except SystemExit as stop:
        if stop.code == 0:
            assert out.getvalue().startswith("usage: ml1 ") and not err.getvalue(), argv
            return ("help",)
        lines = err.getvalue().splitlines()
        assert stop.code == 2 and not out.getvalue(), argv
        assert lines[0].startswith("usage: ml1 ") and "error:" in lines[-1], (argv, lines)
        return "error", lines[-1]
    attributes = vars(args)
    assert attributes.pop("fn") is cli.COMMANDS[argv[0]][0]
    return "ok", attributes


# Option words, alone or with their value: each format, both flags, each
# value option, abbreviations and `=` forms, `--`, `-h`, an unknown option,
# values that start with `-`, and options left without their value.
CHUNKS = [
    ["--format", "json"], ["--format", "pretty"], ["--format", "bad"], ["--fo=pretty"], ["--f", "json"],
    ["--dump"], ["--dump-ast"], ["--dump-a"], ["--du"], ["--dump=x"],
    ["--entry", "X"], ["--ent=Y"], ["--marker", "X"], ["--mark=Y"], ["--mark", "Y"],
    ["--"], ["-h"], ["--he"], ["--help=x"], ["--bogus"], ["--bogus=x"],
    ["--entry", "-x"], ["--entry=-x"], ["--marker", "-1"], ["--format"], ["--ent"],
]


def command_lines():
    """Each command followed by up to two chunks, with zero to two FILE
    words: none, one at each chunk boundary, and two at each pair of
    boundaries, or for two chunks at the first and the last. The second
    FILE word is `-1`, which argparse takes for a FILE, as it looks like a
    negative number. Then an unknown command and the top-level forms."""
    for command in cli.COMMANDS:
        for count in range(3):
            for chunks in itertools.product(CHUNKS, repeat=count):
                words = [word for chunk in chunks for word in chunk]
                bounds = [0, *itertools.accumulate(len(chunk) for chunk in chunks)]
                yield [command, *words]
                for i in bounds:
                    yield [command, *words[:i], "a.ml1", *words[i:]]
                pairs = itertools.combinations_with_replacement(bounds, 2) if count < 2 else [(0, bounds[-1])]
                for i, j in pairs:
                    yield [command, *words[:i], "a.ml1", *words[i:j], "-1", *words[j:]]
    for chunk in CHUNKS:
        yield ["bogus", *chunk, "a.ml1"]
    for first in ("-h", "--help", "--he", "--help=x", "--bogus", "--format", "-1", "", "parse=x"):
        yield [first]
        yield [first, "parse", "a.ml1"]
    yield []


def test_the_command_line_reads_as_argparse_read_it():
    checked = 0
    seen = set()
    for argv in command_lines():
        expected, got = reference(argv), parsed(argv)
        if expected[0] == "error" and expected[1] is None:
            assert got[0] == "error", (argv, got)
        else:
            assert got == expected, argv
        checked += 1
        seen.add(expected[0] if expected[0] != "error" else ("error", expected[1] is None))
    # Every kind of outcome occurs: accepted, help, unrecognized words and
    # the other argument errors.
    assert seen == {"ok", "help", ("error", False), ("error", True)}
    assert checked == 17_740
