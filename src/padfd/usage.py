"""Help and usage errors of the command line.

`padfd.cli` reads argv through its table of commands, `COMMANDS`, and
imports this module only for the text of help or a usage error, so a
command line that parses loads none of it. The table comes in as an
argument: a process run as ``python -m padfd.cli`` holds it in
``__main__``.
"""

from __future__ import annotations

DESCRIPTION = "Validate, rewrite, and simulate privacy-aware data flow diagrams."


def _spelled(option) -> str:
    names = ", ".join(option.names)
    return names if option.metavar is None else f"{names} {option.metavar}"


def _in_usage(option) -> str:
    text = option.names[0] if option.metavar is None else f"{option.names[0]} {option.metavar}"
    return text if option.required else f"[{text}]"


def _usage(commands: dict, help_option, command: str | None) -> str:
    if command is None:
        return "usage: padfd [-h] {" + ",".join(commands) + "} ..."
    _, _, (positional, _), options = commands[command]
    words = [_in_usage(option) for option in (help_option, *options)]
    return f"usage: padfd {command} " + " ".join([*words, positional])


def _columns(rows) -> list[str]:
    """Names and help lines in two columns; a long name puts its help on
    the next line."""
    lines = []
    for name, text in rows:
        lines += [f"  {name:<22}{text}"] if len(name) <= 20 else ["  " + name, " " * 24 + text]
    return lines


def _help(commands: dict, help_option, command: str | None) -> str:
    if command is None:
        lines = [
            "", DESCRIPTION, "",
            "commands:", *_columns((name, entry[1]) for name, entry in commands.items()), "",
            "options:", *_columns([(_spelled(help_option), help_option.help)]), "",
            "Run `padfd COMMAND --help` for the options of a command.",
        ]
    else:
        _, text, positional, options = commands[command]
        lines = [
            "", text, "",
            "positional arguments:", *_columns([positional]), "",
            "options:", *_columns([(_spelled(o), o.help) for o in (help_option, *options)]),
        ]
    return "\n".join([_usage(commands, help_option, command), *lines]) + "\n"


def message(commands: dict, help_option, command: str | None, error: str | None) -> str:
    """The help of `command` (of padfd for None) or, given an `error`, the
    command's usage line and ``padfd: error: ...``."""
    if error is None:
        return _help(commands, help_option, command)
    return f"{_usage(commands, help_option, command)}\npadfd: error: {error}\n"
