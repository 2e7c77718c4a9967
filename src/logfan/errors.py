"""Exception types shared across the toolkit.

Every failure mode a caller can trigger has its own class so batch runners
can report structured diagnostics instead of dying on a stray ValueError.
"""


class LogfanError(Exception):
    """Base class for all toolkit errors."""


class NotStronglyConvex(LogfanError):
    """The cone contains a line, so a sharp Hilbert basis does not exist."""


class NotSaturated(LogfanError):
    """A saturated monoid was required but the input is not saturated."""


class NotAFan(LogfanError):
    """Two input cones intersect in a set that is not a common face."""


class NotSimplicial(LogfanError):
    """The input is not the face data of a simplicial complex."""


class RayOutsideSupport(LogfanError):
    """The subdivision ray lies in no cone of the complex."""


class ScopeExceeded(LogfanError):
    """The request is outside the documented desk-scale bounds."""


class KindMismatch(LogfanError):
    """Finite and series graded entries were combined in an unsupported way."""


class NotComplete(LogfanError):
    """The fan was declared complete but its support is not the whole space."""


class NotFirm(LogfanError):
    """The group action moves the cone complex, so sector machinery is undefined."""


class SeriesNotSupported(LogfanError):
    """The operation is only defined for models with finite Hodge entries."""


class ParseError(LogfanError):
    """An input document is syntactically or structurally invalid."""


class UnknownOperation(LogfanError):
    """A task names an operation the runner does not provide."""


class UnresolvedReference(LogfanError):
    """A task argument names an object the document does not define."""


class FormatUnavailable(LogfanError):
    """The requested output format does not apply to this result."""


class InternalInvariant(LogfanError):
    """A result failed a consistency check that correct code always passes."""
