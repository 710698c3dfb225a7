"""Error taxonomy.

Everything raised on purpose by this package derives from PadfdError, so
callers can catch one class at the boundary. Each class names one kind of
refusal, whichever reader or builder meets the defect; the command line
exits 2 on a ParseError (a SchemaError is one) and 1 on any other.
Parse-level problems carry the offending element id where one exists.
`decode_utf8` is the one UTF-8 decoder of bytes padfd reads, so
undecodable bytes end as a SchemaError like any other bad input;
`read_utf8` is the one reader of the text files padfd loads beside
diagrams (tables, equivalences, style maps); `decode_json` is the one JSON
decoder of everything padfd reads, so bad syntax, over-long integers and
deep nesting end the same way.
"""

from __future__ import annotations


class PadfdError(Exception):
    """Base class for all errors raised by this package."""


class StageError(PadfdError):
    """Operation applied to a diagram at the wrong lifecycle stage."""


class WellFormednessError(PadfdError):
    """Precondition failure: the diagram fails its stage validator."""

    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = violations


class TransformError(PadfdError):
    """Problem while rewriting a flow into its privacy gadget."""


class ParseError(PadfdError):
    """Input document cannot be read as a diagram."""


class SchemaError(ParseError):
    """Input that reads but breaks the schema: an empty or duplicate id, a
    flow end naming no node, a table without a column it needs."""


class SimulationError(PadfdError):
    """Invalid policy/data inputs or a model the simulator cannot bind to."""


# A lone surrogate is not a Unicode character, so no writer can encode it.
SURROGATE = "[\ud800-\udfff]"


def decode_utf8(data: bytes, what: str = "") -> str:
    """``data.decode("utf-8")``, byte order mark and all; bytes that are not
    UTF-8 raise SchemaError naming the offset of the first one, prefixed
    with `what` (the file the bytes came from) when one is given."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        where = f"{what}: " if what else ""
        raise SchemaError(f"{where}not valid UTF-8 at byte {exc.start} ({exc.reason})") from None


def read_utf8(path, source: str) -> str:
    """The text of a UTF-8 file with universal newlines and without one
    leading byte order mark, which spreadsheets write to "CSV UTF-8" files,
    as ``Path.read_text(encoding="utf-8-sig")`` reads it; bytes that are not
    UTF-8 raise SchemaError prefixed with `source`, the file's name."""
    with open(path, "rb") as handle:
        text = decode_utf8(handle.read(), source)
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def decode_json(text: str, what: str = "", parse_constant=None):
    """``json.loads(text)`` for text from outside the program. Bad syntax,
    an integer longer than the interpreter converts, and nesting deeper
    than the decoder's recursion limit all raise SchemaError, prefixed
    with `what` (the file the text came from) when one is given."""
    import json

    try:
        if text.startswith("\ufeff"):  # json.loads would name a codec in its refusal
            raise json.JSONDecodeError("Unexpected UTF-8 BOM", text, 0)
        return json.loads(text, parse_constant=parse_constant)
    except (ValueError, RecursionError) as exc:
        where = f"{what}: " if what else ""
        # Python's advice on an over-long integer names a call no padfd user can make.
        reason = str(exc).partition("; use sys.set_int_max_str_digits()")[0]
        raise SchemaError(f"{where}not valid JSON: {reason}") from None
