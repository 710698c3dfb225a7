"""Command line interface.

    padfd check INPUT        validate a diagram, printing diagnostics
    padfd transform INPUT    rewrite a business diagram into a privacy-aware one
    padfd simulate MODEL     run policy/data tables against a model
    padfd export INPUT       convert between drawio / json / dot

Exit codes: 0 clean (and --help), 1 semantic problems (ill-formed
diagram, policy violation with --fail-on-violation, unknown flow ids),
2 unreadable input (XML/JSON syntax, unknown styles, missing files) or a
usage error. A command's output into a closed stdout exits 1 quietly; a
closed stream changes no other code. Output files are written atomically
(temp file, then rename) with the mode the umask gives, and a write error
names the output, not the temp file. The PADFD_STYLES environment
variable supplies a default --styles file.

`run` is the process entry (the ``padfd`` console script and
``python -m padfd.cli``); `main` is the same command line as a function
for callers inside a Python process.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from contextlib import suppress
from types import SimpleNamespace

from .errors import PadfdError, ParseError
from .model import Stage

# Each subcommand imports the layers it uses inside the functions below,
# so a process loads only what its command and input formats need. The
# names here serve annotations only (type checkers read any
# `TYPE_CHECKING` as true), so not even `typing` is imported for them.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Sequence
    from datetime import date

    from .graph import Diagram
    from .drawio import StyleMap
    from .validate import Violation


def _write(stream, text: str) -> None:
    """Write a message. A stream that is missing (None) or closed drops
    it, so no message changes the exit code."""
    with suppress(AttributeError, OSError):
        stream.write(text)


def _style_map(args) -> StyleMap | None:
    """The map named by --styles or PADFD_STYLES, read on every command so
    a bad one always fails alike; None stands for the draw.io default."""
    path = getattr(args, "styles", None) or os.environ.get("PADFD_STYLES")
    if not path:
        return None
    from .drawio import load_style_map

    return load_style_map(path)


# The format a file's suffix names, in any case; any other suffix is
# draw.io. It picks an output's format, and an input's where the content
# does not (`_read_diagram`).
_SUFFIX_FORMATS = {".json": "json", ".dot": "dot", ".gv": "dot"}


def _read_diagram(path_text: str, styles: StyleMap | None) -> Diagram:
    """The diagram in a file, whatever its name. Past every leading byte
    order mark and whitespace, `{` opens JSON, `<` draw.io, and a first
    word `strict`, `graph` or `digraph` Graphviz DOT, which is refused.
    Other content is read in the format its name picks, so that reader, or
    the DOT refusal, names the defect. A reader reads one leading mark as
    none, as in tables, and refuses a second; every ParseError it raises
    names the file."""
    with open(path_text, "rb") as handle:
        data = handle.read()
    # The match spans the lead alone, so the input is not copied.
    start = re.match(rb"(?:\xef\xbb\xbf|\s)*", data).end()
    first = data[start : start + 1]
    try:
        if first not in (b"{", b"<"):
            fmt = _SUFFIX_FORMATS.get(os.path.splitext(path_text)[1].lower())
            if fmt == "dot" or re.match(rb"(?i)(?:strict|graph|digraph)\b", data[start : start + 8]):
                raise ParseError("the input is Graphviz DOT, which padfd writes but does not read")
            first = b"{" if fmt == "json" else b"<"
        if first == b"{":
            from .canonical import parse_json

            return parse_json(data)
        from .drawio import parse_drawio

        return parse_drawio(data, styles)
    except ParseError as exc:
        raise type(exc)(f"{path_text}: {exc}") from None


def _write_atomic(path_text: str, data: bytes) -> None:
    head, name = os.path.split(path_text)
    temp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp, path_text)
        except BaseException:
            os.unlink(temp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path_text) from None


def _write_diagram(diagram: Diagram, args, styles: StyleMap | None) -> None:
    """Write `diagram` to the output in --out-format, else in the format
    the output's suffix names, else as draw.io. A writer refuses what the
    input holds, so its refusal names the input, as a reader's does."""
    fmt = args.out_format or _SUFFIX_FORMATS.get(os.path.splitext(args.output)[1].lower())
    try:
        if fmt == "json":
            from .canonical import emit_json

            data = emit_json(diagram)
        elif fmt == "dot":
            from .dot import emit_dot

            data = emit_dot(diagram)
        else:
            from .drawio import emit_drawio
            from .layout import layout_generated

            # draw.io files should open fully placed; fill in missing positions.
            data = emit_drawio(layout_generated(diagram), styles)
    except ParseError as exc:
        raise type(exc)(f"{args.input}: {exc}") from None
    _write_atomic(args.output, data)


def _gate(
    diagram: Diagram, allow_ill_formed: bool
) -> tuple[Sequence[Violation], Diagram | None]:
    """Check a diagram once: its findings, and the diagram ready for the
    rewrite or to run, or None. A raw diagram is typed on the way. With
    ``allow_ill_formed`` connectivity findings alone are waved through;
    typing problems never are. A privacy-aware diagram is ready as it is
    only without findings."""
    if diagram.stage is Stage.RAW:
        from .rewrite import typecheck

        wellformed, findings = typecheck(diagram, tolerate_connectivity=allow_ill_formed)
        return findings, wellformed
    from .validate import blocks_rewrite, validate_pa, validate_wellformed

    if diagram.stage is Stage.PA:
        findings = validate_pa(diagram).violations
        return findings, None if findings else diagram
    findings = validate_wellformed(diagram).violations
    return findings, None if blocks_rewrite(findings, allow_ill_formed) else diagram


def _privacy_aware(
    diagram: Diagram, allow_ill_formed: bool, shared_log_store: bool
) -> Diagram | None:
    """A diagram that passes `_gate` as a privacy-aware one: the rewrite of
    a business diagram, or a privacy-aware one as it is. None after
    printing the gate's findings to stderr."""
    findings, ready = _gate(diagram, allow_ill_formed)
    if ready is None:
        for finding in findings:
            _write(sys.stderr, finding.render() + "\n")
        return None
    if ready.stage is Stage.PA:
        return ready
    from .rewrite import transform

    return transform(ready, shared_log_store=shared_log_store, check=False)


def cmd_check(args) -> int:
    styles = _style_map(args)
    diagram = _read_diagram(args.input, styles)
    findings, _ = _gate(diagram, allow_ill_formed=False)
    if args.report == "json":
        # A raw diagram's findings say what kind of typing problem they are.
        kinds = {}
        if diagram.stage is Stage.RAW:
            from .rewrite import FLOW_CLAUSES
            from .validate import CONNECTIVITY_CLAUSES

            kinds = dict.fromkeys(FLOW_CLAUSES, "ill-formed-flow")
            kinds.update(dict.fromkeys(CONNECTIVITY_CLAUSES, "ill-formed-activator"))
        payload = {
            "stage": diagram.stage.value,
            "diagnostics": [
                {
                    "element": f.element,
                    "rule": f.clause,
                    "message": f.message,
                    "kind": kinds.get(f.clause, "stage-violation"),
                }
                for f in findings
            ],
        }
        import json

        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.render())
    return 1 if findings else 0


def cmd_transform(args) -> int:
    styles = _style_map(args)
    diagram = _read_diagram(args.input, styles)
    if diagram.stage is Stage.PA:
        _write(sys.stderr, "error: input is already privacy-aware\n")
        return 1
    result = _privacy_aware(diagram, args.allow_ill_formed, args.shared_log_store)
    if result is None:
        return 1
    _write_diagram(result, args, styles)
    return 0


def cmd_simulate(args) -> int:
    from .simulate import (
        compatibility_with_equivalences,
        load_data_records,
        load_equivalences,
        load_flow_metas,
        render_report,
        report_json,
        run_simulation,
    )

    styles = _style_map(args)
    diagram = _read_diagram(args.model, styles)
    diagram = _privacy_aware(diagram, allow_ill_formed=False, shared_log_store=False)
    if diagram is None:
        return 1
    metas = load_flow_metas(args.static)
    records = load_data_records(args.dynamic)
    compatible = None
    if args.compat:
        compatible = compatibility_with_equivalences(load_equivalences(args.compat))
    report = run_simulation(
        diagram,
        metas,
        records,
        args.clock,
        compatible=compatible,
        multi_hop=args.multi_hop,
    )
    if args.report == "json":
        print(report_json(report))
    else:
        print(render_report(report), end="")
    if args.fail_on_violation and report.violations:
        return 1
    return 0


def cmd_export(args) -> int:
    styles = _style_map(args)
    _write_diagram(_read_diagram(args.input, styles), args, styles)
    return 0


def _iso_date(text: str) -> date:
    from .simulate import _exact_iso_date

    try:
        return _exact_iso_date(text)
    except ValueError:
        raise ValueError(f"expected an ISO date (YYYY-MM-DD), got {text!r}") from None


# --- the command line ------------------------------------------------------------
#
# One table, COMMANDS, holds the four commands; it both reads argv and
# prints help and usage errors. A word of argv is an option when it
# starts with `-`, unless it is `-` alone, reads as a negative number or
# holds a space. A long option may be shortened to any unique prefix. A
# value follows as `--opt=value`, `--opt value`, `-o value`, `-ovalue` or
# `-o=value`, and `-h` takes more short options after it (`-ho OUT`). A
# repeated option keeps its last value; options go before, between or
# after the positional; `--` ends the options.


class _Option:
    """One option: its spellings, help line, the attribute it sets, and the
    values it takes. A flag (no metavar) sets True. `choices` lists the
    values accepted; `convert` reads a value, raising ValueError with the
    message to print."""

    __slots__ = ("names", "help", "dest", "metavar", "choices", "default", "required", "convert")

    def __init__(
        self, names, help, *, metavar=None, choices=None, default=None, required=False, convert=None
    ):
        self.names = names
        self.help = help
        self.dest = names[-1][2:].replace("-", "_")
        self.metavar = "{" + ",".join(choices) + "}" if choices else metavar
        self.choices = choices
        self.default = False if self.metavar is None else default
        self.required = required
        self.convert = convert

    def name(self) -> str:
        return "/".join(self.names)


_HELP = _Option(("-h", "--help"), "show this help message and exit")
_OUTPUT = _Option(("-o", "--output"), "file to write", metavar="OUTPUT", required=True)
_OUT_FORMAT = _Option(
    ("--out-format",), "output format (default: from the output name, else drawio)",
    choices=("drawio", "json", "dot"),
)
_REPORT = _Option(
    ("--report",), "print text lines or one JSON document (default: text)", choices=("text", "json"),
    default="text",
)
_STYLES = _Option(("--styles",), "style map JSON file (default: $PADFD_STYLES)", metavar="STYLES")

# name: (function, help line, (positional, its help), options)
COMMANDS = {
    "check": (
        cmd_check,
        "validate a diagram and print diagnostics",
        ("input", "diagram file: draw.io or canonical JSON"),
        (_STYLES, _REPORT),
    ),
    "transform": (
        cmd_transform,
        "rewrite a business diagram into a privacy-aware one",
        ("input", "business diagram file: draw.io or canonical JSON"),
        (
            _OUTPUT,
            _OUT_FORMAT,
            _Option(("--shared-log-store",), "merge the per-flow log stores into one"),
            _Option(("--allow-ill-formed",), "rewrite diagram excerpts despite connectivity findings"),
            _STYLES,
        ),
    ),
    "simulate": (
        cmd_simulate,
        "run policy/data tables against a model",
        ("model", "business or privacy-aware diagram; a business one is rewritten first"),
        (
            _Option(("--static",), "flow policy table (.csv/.json)", metavar="STATIC", required=True),
            _Option(("--dynamic",), "data record table (.csv/.json)", metavar="DYNAMIC", required=True),
            _Option(
                ("--clock",), "the simulation date, YYYY-MM-DD", metavar="CLOCK", required=True,
                convert=_iso_date,
            ),
            _REPORT,
            _Option(("--fail-on-violation",), "exit 1 when any log entry is a violation (v=true)"),
            _Option(("--multi-hop",), "forwarded records continue along the process's outgoing flows"),
            _Option(("--compat",), "JSON list of [consented, covered] purpose pairs", metavar="COMPAT"),
            _STYLES,
        ),
    ),
    "export": (
        cmd_export,
        "convert between diagram formats",
        ("input", "diagram file: draw.io or canonical JSON"),
        (_OUTPUT, _OUT_FORMAT, _STYLES),
    ),
}


def _exit(command: str | None, error: str | None = None):
    """Print the help of `command` (of padfd for None) and exit 0, or the
    command's usage line and `error` and exit 2. The text comes from
    `padfd.usage`, which a command line that parses never loads."""
    from .usage import message

    _write(sys.stdout if error is None else sys.stderr, message(COMMANDS, _HELP, command, error))
    raise SystemExit(0 if error is None else 2)


def _spelling(command: str | None, spellings: dict, arg: str):
    """What a word of argv is: None for a positional, else (option, the
    spelling matched, the value written inside the word or None). The
    option is None for an unknown option."""
    if not arg.startswith("-"):
        return None
    if arg in spellings:
        return spellings[arg], arg, None
    if len(arg) == 1:
        return None
    head, equals, inline = arg.partition("=")
    if equals and head in spellings:
        return spellings[head], head, inline
    if arg[1] == "-":
        hits = [(name, inline if equals else None) for name in spellings if name.startswith(head)]
    else:
        hits = [(arg[:2], arg[2:])] if arg[:2] in spellings else []
    if len(hits) > 1:
        matches = ", ".join(name for name, _ in hits)
        _exit(command, f"ambiguous option: {arg} could match {matches}")
    if hits:
        (name, inline), = hits
        return spellings[name], name, inline
    # A negative number is a positional; only a word that may be one is
    # matched, so few processes compile the pattern.
    if " " in arg or (arg[1] == "." or arg[1].isdecimal()) and re.match(r"^-\d+$|^-\d*\.\d+$", arg):
        return None
    return None, arg, None


def _take_option(
    command: str | None, spellings: dict, words: list, args: list[str], i: int, values: dict
) -> int:
    """Read the option at ``args[i]``, and the short options written after
    a `-h`, into `values`; return the index after what they took."""
    option, name, inline = words[i]
    taken = []
    while option.metavar is None and inline is not None:  # `-h` and what follows it
        if name[1] == "-" or not inline or "-" + inline[0] not in spellings:
            _exit(command, f"argument {option.name()}: ignored explicit argument {inline!r}")
        taken.append((option, True))
        name = "-" + inline[0]
        option, inline = spellings[name], inline[1:] or None
    if option.metavar is None:
        inline = True
    elif inline is None:
        if i + 1 == len(args) or words[i + 1] is not None or args[i + 1] == "--":
            _exit(command, f"argument {option.name()}: expected one argument")
        i += 1
        inline = args[i]
    taken.append((option, inline))
    for option, value in taken:
        if option is _HELP:
            _exit(command)
        if option.convert is not None:
            try:
                value = option.convert(value)
            except ValueError as exc:
                _exit(command, f"argument {option.name()}: {exc}")
        if option.choices and value not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            _exit(
                command, f"argument {option.name()}: invalid choice: {value!r} (choose from {choices})"
            )
        values[option.dest] = value
    return i + 1


def _read(
    command: str | None, options, args: list[str], values: dict, extra: list[str]
) -> list[str]:
    """Read `args` against `options` into `values`, and unknown options and
    surplus positionals into `extra`. Returns the positionals: at the top
    level (no command) the command and every word after it, else at most
    one."""
    spellings = {name: option for option in (_HELP, *options) for name in option.names}
    marker = args.index("--") if "--" in args else len(args)
    # Each word is spelled before any is acted on, so an ambiguous option
    # is reported even after a `-h`.
    words = [_spelling(command, spellings, arg) for arg in args[:marker]]
    words += [None] * (len(args) - marker)
    positionals: list[str] = []
    i = 0
    while i < len(args):
        word = words[i]
        if word is None:
            if command is None:
                return args[i:]
            # `--` is dropped right before or right after the positional.
            if not positionals and i == marker and i + 1 < len(args):
                i += 1
            if not positionals and i != marker:
                positionals.append(args[i])
                i += 2 if i + 1 == marker else 1
            else:
                extra.append(args[i])
                i += 1
        elif word[0] is None:
            extra.append(args[i])
            i += 1
        else:
            i = _take_option(command, spellings, words, args, i, values)
    return positionals


def _parse(argv: list[str]) -> SimpleNamespace:
    """The attributes a command line sets: ``command``, ``func``, and one
    per option and positional of the command. Help exits 0 and a usage
    error exits 2."""
    extra: list[str] = []
    rest = _read(None, (), argv, {}, extra)
    if not rest:
        _exit(None, "the following arguments are required: command")
    name = rest[0]
    if name not in COMMANDS:
        choices = ", ".join(map(repr, COMMANDS))
        _exit(None, f"argument command: invalid choice: {name!r} (choose from {choices})")
    func, _, (positional, _), options = COMMANDS[name]
    values = {option.dest: option.default for option in options}
    found = _read(name, options, rest[1:], values, extra)
    missing = [] if found else [positional]
    missing += [o.name() for o in options if o.required and values[o.dest] is None]
    if missing:
        _exit(name, "the following arguments are required: " + ", ".join(missing))
    if extra:
        _exit(name, "unrecognized arguments: " + " ".join(extra))
    values[positional] = found[0]
    return SimpleNamespace(command=name, func=func, **values)


def main(argv=None) -> int:
    """Run one command line and return its exit code. Help raises
    SystemExit(0), a usage error SystemExit(2), and a closed stdout
    BrokenPipeError. Stdout is flushed before the return, so a failed
    write is reported here. The caller's collector state is left as it
    was."""
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:  # a closed stdout, which `run` ends quietly
        raise
    except (ParseError, OSError) as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return 2
    except PadfdError as exc:
        _write(sys.stderr, f"error: {exc}\n")
        return 1


def run() -> int:
    """Entry of a ``padfd`` process: `main` on ``sys.argv`` without the
    cyclic garbage collector.

    A command builds no reference cycles that grow with its input, so in
    a short-lived process the collector would only rescan the live
    diagram, elements and decisions as they are built. The heap is frozen
    on the way out, which leaves the full collection CPython makes at
    shutdown, disabled collector or not, nothing to scan.

    As the Python documentation's SIGPIPE note advises, a stream that
    cannot be flushed is pointed at the null device, so the flush at
    shutdown cannot fail again and change the exit code."""
    gc.disable()
    try:
        return main()
    except BrokenPipeError:
        return 1
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                if stream is not None:  # None when the process started without it
                    stream.flush()
            except OSError:
                os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
