"""Exception types shared across the package."""


class SepdualError(Exception):
    """Base class for all errors raised by this package."""


class CoverViolation(SepdualError):
    """The two sides of a separation do not cover the ground set."""


class SideMismatch(SepdualError):
    """A separation or mask lives over the wrong ground set."""


class NotAPartition(SepdualError):
    """A partition was required but the sides overlap."""


class CapExceeded(SepdualError):
    """An enumeration would exceed its configured size cap."""


class LabelClash(SepdualError):
    """A vertex label appears on both sides of a bipartite graph."""


class ParseError(SepdualError):
    """Malformed external input.

    ``line`` is the 1-based line number of the offending row, when known.
    """

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InversePairPresent(SepdualError):
    """An indexed separation list contains two mutually inverse separations."""
