"""The command line: help, usage errors, and the parser held to argparse.

`padfd.cli` reads argv through its own table of commands. The argparse
parser it replaced is `references.reference_parser`; the property below
draws command lines from its grammar, and from the usual mistakes, and
requires both parsers to set the same attributes or both to exit 2.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import padfd
from padfd.cli import _parse

from references import reference_parser

PACKAGE_ROOT = Path(padfd.__file__).resolve().parent.parent
REFERENCE = reference_parser()
# The reference's subcommand parsers, by name, and each one's options.
SUBPARSERS = REFERENCE._subparsers._group_actions[0].choices
OPTIONS = {
    name: [action for action in parser._actions if action.option_strings and action.dest != "help"]
    for name, parser in SUBPARSERS.items()
}
POSITIONAL = {
    name: next(action.dest for action in parser._actions if not action.option_strings)
    for name, parser in SUBPARSERS.items()
}


def padfd_process(*argv: str, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "padfd.cli", *argv], capture_output=True, text=True, cwd=cwd, env=env
    )


# --- help ----------------------------------------------------------------------------


@pytest.mark.parametrize("spelling", ["--help", "-h", "--he"])
def test_help_names_every_command(tmp_path, spelling):
    proc = padfd_process(spelling, cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: padfd ")
    for command in SUBPARSERS:
        assert f"\n  {command} " in proc.stdout


@pytest.mark.parametrize("command", list(SUBPARSERS))
def test_command_help_names_every_option(tmp_path, command):
    proc = padfd_process(command, "--help", cwd=tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith(f"usage: padfd {command} ")
    assert f"\n  {POSITIONAL[command]} " in proc.stdout
    for action in OPTIONS[command]:
        for spelling in action.option_strings:
            assert spelling in proc.stdout
        for choice in action.choices or ():
            assert choice in proc.stdout


def test_help_comes_before_missing_arguments(tmp_path):
    proc = padfd_process("simulate", "-h", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


# --- usage errors ----------------------------------------------------------------------


SIMULATE = ["simulate", "m.json", "--static", "s.csv", "--dynamic", "d.csv"]

USAGE_ERRORS = {
    "unknown-option": (["check", "in.json", "--bogus"], "check", "unrecognized arguments: --bogus"),
    "missing-value": (
        ["transform", "in.json", "-o"], "transform", "argument -o/--output: expected one argument"
    ),
    "bad-choice": (
        ["export", "in.json", "-o", "out", "--out-format", "svg"],
        "export",
        "argument --out-format: invalid choice: 'svg' (choose from 'drawio', 'json', 'dot')",
    ),
    "missing-static": (
        ["simulate", "m.json", "--dynamic", "d.csv", "--clock", "2020-06-01"],
        "simulate",
        "the following arguments are required: --static",
    ),
    "extra-positional": (["check", "a.json", "b.json"], "check", "unrecognized arguments: b.json"),
    # A diagram's content names its format; no option does.
    "format": (
        ["check", "in.json", "--format", "json"], "check", "unrecognized arguments: --format json"
    ),
    "in-format": (
        ["export", "in", "-o", "out", "--in-format", "drawio"],
        "export",
        "unrecognized arguments: --in-format drawio",
    ),
    "bad-clock": (
        [*SIMULATE, "--clock", "soon"],
        "simulate",
        "argument --clock: expected an ISO date (YYYY-MM-DD), got 'soon'",
    ),
    # Forms that date.fromisoformat reads on Python 3.11 and later only.
    "compact-clock": (
        [*SIMULATE, "--clock", "20200601"],
        "simulate",
        "argument --clock: expected an ISO date (YYYY-MM-DD), got '20200601'",
    ),
    "week-clock": (
        [*SIMULATE, "--clock", "2020-W23-1"],
        "simulate",
        "argument --clock: expected an ISO date (YYYY-MM-DD), got '2020-W23-1'",
    ),
    "ambiguous-prefix": (
        [*SIMULATE, "--s", "x"], "simulate", "ambiguous option: --s could match --static, --styles"
    ),
    "no-command": ([], None, "the following arguments are required: command"),
    "unknown-command": (["verify", "x"], None, "argument command: invalid choice: 'verify'"),
}


@pytest.mark.parametrize("case", list(USAGE_ERRORS))
def test_usage_errors_exit_2_with_usage_and_error_lines(tmp_path, case):
    argv, command, message = USAGE_ERRORS[case]
    proc = padfd_process(*argv, cwd=tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    usage, error = proc.stderr.splitlines()
    assert usage.startswith("usage: padfd " + (f"{command} " if command else ""))
    assert error.startswith("padfd: error: " + message)
    assert list(tmp_path.iterdir()) == []


# --- the parser against argparse ---------------------------------------------------------


def outcome(parse, argv: list[str]):
    """The attributes `parse` sets, or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(list(argv)))
        except SystemExit as exc:
            return exc.code


# Values as a user writes them; "--" is left out, since argparse versions
# differ on a value or positional that is itself "--".
WORDS = st.sampled_from(
    ["in.json", "out.drawio.xml", "a b", "-", "-5", "-.5", "x=y", "", "-x", "--z", "2020-06-01"]
)


def long_prefixes(command: str, spelling: str) -> list[str]:
    """The abbreviations of a long option that name it alone."""
    longs = [s for s in SUBPARSERS[command]._option_string_actions if s.startswith("--")]
    return [
        spelling[:n]
        for n in range(3, len(spelling) + 1)
        if [s for s in longs if s.startswith(spelling[:n])] == [spelling]
    ]


@st.composite
def option_words(draw, command: str, action) -> list[str]:
    """One option as written: a spelling, then its value if it takes one."""
    long = action.option_strings[-1]
    short = [s for s in action.option_strings if not s.startswith("--")]
    spelling = draw(st.sampled_from(short + long_prefixes(command, long)))
    if action.nargs == 0:
        return [spelling]
    if action.choices:
        value = draw(st.sampled_from(list(action.choices)))
    elif action.dest == "clock":
        value = draw(st.sampled_from(["2020-06-01", "2024-02-29"]))
    else:
        value = draw(WORDS)
    forms = [[spelling, value], [f"{spelling}={value}"]]
    if spelling in short:
        forms.append([spelling + value])
    return draw(st.sampled_from(forms))


# Per command, a prefix of two of its long options.
AMBIGUOUS = {"check": "--=x", "transform": "--o", "simulate": "--s", "export": "--o"}

MISTAKES = [
    "unknown option", "missing value", "bad choice", "missing required", "extra positional",
    "bad clock", "ambiguous prefix", "flag with value",
]


@st.composite
def command_lines(draw) -> list[str]:
    """A command line of the grammar, sometimes with one mistake in it."""
    command = draw(st.sampled_from(list(SUBPARSERS)))
    mistake = draw(st.sampled_from([None] * 4 + MISTAKES))
    actions = OPTIONS[command]
    chosen = [a for a in actions if a.required]
    if mistake == "missing required" and chosen:
        del chosen[draw(st.integers(0, len(chosen) - 1))]
    chosen += draw(st.lists(st.sampled_from([a for a in actions if not a.required]), max_size=4))
    chosen += draw(st.lists(st.sampled_from(actions), max_size=1))  # maybe a repeat
    words = [draw(option_words(command, action)) for action in draw(st.permutations(chosen))]
    positional = draw(st.sampled_from(["in.json", "-", "-5", "a b", "-x y"]))
    dashes = draw(st.booleans())
    if dashes:  # `-- POSITIONAL` after every option
        words.append(["--", draw(st.sampled_from([positional, "-x", "--in"]))])
    else:
        words.insert(draw(st.integers(0, len(words))), [positional])
    at = draw(st.integers(0, len(words) - dashes))  # anywhere before a `--`
    if mistake == "unknown option":
        unknown = ["--bogus", "-q", "--o=x" if command == "check" else "-x"]
        words.insert(at, [draw(st.sampled_from(unknown))])
    elif mistake == "missing value" and not dashes:
        valued = [a for a in actions if a.nargs is None]
        words.append([draw(st.sampled_from(valued)).option_strings[-1]])
    elif mistake == "bad choice":
        chooser = draw(st.sampled_from([a for a in actions if a.choices]))
        words.insert(at, [chooser.option_strings[-1], "bogus"])
    elif mistake == "extra positional":
        words.append(["extra.json"])
    elif mistake == "bad clock" and command == "simulate":
        bad = ["soon", "2020-13-01", "1 June", "20200601", "2020-W23-1"]
        words.insert(at, ["--clock", draw(st.sampled_from(bad))])
    elif mistake == "ambiguous prefix":
        words.insert(at, [AMBIGUOUS[command]])
    elif mistake == "flag with value":
        words.insert(at, ["--help=yes" if command != "transform" else "--shared-log-store=yes"])
    return [command] + [word for group in words for word in group]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
@example(["transform", "-oout.json", "in.json", "--out=json"])
@example(["simulate", "--sta=s", "m", "--dyn", "d", "--clock=2020-06-01", "--clock", "2020-06-02"])
@example(["export", "--sty", "s.json", "-o=out", "--out-f", "dot", "--", "-in.json"])
@example(["export", "--in", "json", "-o=out", "--", "-in.json"])
@example(["transform", "-ho", "out.json", "in.json"])
@example(["check", "x", "-hh"])
def test_command_lines_parse_as_argparse_parses_them(argv):
    expected = outcome(REFERENCE.parse_args, argv)
    assert outcome(_parse, argv) == expected
    assert expected in (0, 2) or isinstance(expected, dict)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["check", "in.json", "--"], "in.json"),
        (["check", "--", "-in.json"], "-in.json"),
        (["check", "--", "--"], "--"),
    ],
)
def test_a_double_dash_next_to_the_positional_is_dropped(argv, expected):
    assert _parse(argv).input == expected


def test_a_double_dash_written_into_an_option_is_its_value():
    # argparse stored an empty list here, which the command then failed on.
    assert _parse(["transform", "in.json", "-o=--"]).output == "--"
    assert _parse(["transform", "in.json", "--output=--"]).output == "--"


def run_cli(argv, cwd, unbuffered, **streams):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"  # each write reaches the stream at once
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "padfd.cli", *argv], cwd=cwd, env=env, timeout=60, **streams
    )


# Help goes to stdout; a usage error, an unreadable input and the findings
# on an ill-formed diagram print to stderr.
HELP_AND_ERRORS = [
    (["--help"], 0),
    (["transform", "-h"], 0),
    (["check"], 2),
    (["check", "absent.json"], 2),
    (["transform", "absent.json", "-o", "out.json"], 2),
    (["transform", "ill-formed.json", "-o", "out.json"], 1),
]


def write_ill_formed(directory: Path) -> None:
    """A raw diagram whose one flow joins two entities, which no flow kind
    reads."""
    ends = {"a": padfd.Node("a", padfd.NodeType.EXT), "b": padfd.Node("b", padfd.NodeType.EXT)}
    flows = {"ab": padfd.Flow("ab", "a", "b", padfd.FlowType.PF)}
    diagram = padfd.Diagram(padfd.Stage.RAW, ends, flows)
    (directory / "ill-formed.json").write_bytes(padfd.emit_json(diagram))


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, code", HELP_AND_ERRORS)
def test_help_and_usage_errors_keep_their_exit_code_when_the_reader_is_gone(
    tmp_path, argv, code, unbuffered
):
    """The stream the command writes to has lost its reader before the
    command starts; the other stream stays empty."""
    write_ill_formed(tmp_path)
    reader, writer = os.pipe()
    os.close(reader)
    other = "stderr" if code == 0 else "stdout"
    written = "stdout" if code == 0 else "stderr"
    try:
        proc = run_cli(argv, tmp_path, unbuffered, **{written: writer, other: subprocess.PIPE})
    finally:
        os.close(writer)
    assert (proc.returncode, getattr(proc, other)) == (code, b"")


@pytest.mark.parametrize("argv, code", HELP_AND_ERRORS)
def test_help_and_usage_errors_keep_their_exit_code_without_their_stream(tmp_path, argv, code):
    """The descriptor of the stream the command writes to is closed
    before Python starts; the other stream stays empty."""
    write_ill_formed(tmp_path)
    fd = 1 if code == 0 else 2
    proc = run_cli(
        argv, tmp_path, False, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        preexec_fn=lambda: os.close(fd),
    )
    assert (proc.returncode, proc.stderr if fd == 1 else proc.stdout) == (code, b"")
