"""Error taxonomy.

Everything raised on purpose by this package derives from PadfdError, so
callers can catch one class at the boundary. Parse-level problems carry the
offending element id where one exists. `read_utf8` is the one reader of
the text files padfd loads beside diagrams (tables, equivalences, style
maps), so undecodable bytes end as a SchemaError like any other bad input;
`decode_json` is the one JSON decoder of everything padfd reads, so bad
syntax, over-long integers and deep nesting end the same way.
"""

from __future__ import annotations


class PadfdError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(PadfdError):
    """Violation of a structural graph invariant."""


class DuplicateIdError(GraphError):
    pass


class UnknownEndpointError(GraphError):
    pass


class StageError(PadfdError):
    """Operation applied to a diagram at the wrong lifecycle stage."""


class WellFormednessError(PadfdError):
    """Precondition failure: the diagram fails its stage validator."""

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class TransformError(PadfdError):
    """Problem while rewriting a flow into its privacy gadget."""


class WrongFlowTypeError(TransformError):
    pass


class ParseError(PadfdError):
    """Input document cannot be read as a diagram."""


class XmlSyntaxError(ParseError):
    pass


class MultiPageError(ParseError):
    pass


class UnknownStyleError(ParseError):
    pass


class MissingEndpointError(ParseError):
    pass


class SchemaError(ParseError):
    pass


class SimulationError(PadfdError):
    """Invalid policy/data inputs or a model the simulator cannot bind to."""


def read_utf8(path, what: str) -> str:
    """The text of a UTF-8 file with universal newlines, as
    ``Path.read_text(encoding="utf-8")`` reads it; bytes that are not UTF-8
    raise SchemaError naming the file and the offset of the first one."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(
            f"{what} {path}: not valid UTF-8 at byte {exc.start} ({exc.reason})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def decode_json(text: str, what: str = "", parse_constant=None):
    """``json.loads(text)`` for text from outside the program. Bad syntax,
    an integer longer than the interpreter converts, and nesting deeper
    than the decoder's recursion limit all raise SchemaError, prefixed
    with `what` (the file the text came from) when one is given."""
    import json

    try:
        return json.loads(text, parse_constant=parse_constant)
    except (ValueError, RecursionError) as exc:
        where = f"{what}: " if what else ""
        raise SchemaError(f"{where}not valid JSON: {exc}") from None
