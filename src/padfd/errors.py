"""Error taxonomy.

Everything raised on purpose by this package derives from PadfdError, so
callers can catch one class at the boundary. Parse-level problems carry the
offending element id where one exists.
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
