"""Exception types shared across the package.

Everything raised on purpose derives from OrdinalWalkError, so callers can
catch one base class at an API boundary. The CLI maps these onto exit codes.
"""


class OrdinalWalkError(Exception):
    """Base class for all errors raised by this package."""


class TieError(OrdinalWalkError):
    """A window contains duplicate values under the strict tie policy."""


class LengthError(OrdinalWalkError):
    """A series or window is too short for the requested operation."""


class RangeError(OrdinalWalkError):
    """A numeric argument is outside its admissible range."""


class OrderError(RangeError):
    """An unsupported pattern order; a RangeError, so the CLI exits 3 on it."""


class OrderMismatchError(OrdinalWalkError):
    """Two objects that must share a pattern order do not."""


class SupportError(OrdinalWalkError):
    """KL divergence is undefined: p puts mass where q has none."""


class SpecError(OrdinalWalkError):
    """A generator spec is invalid or produced an inadmissible orbit."""


class ParseError(OrdinalWalkError):
    """An input file failed to parse; the message names the offending line."""


class EmptyError(OrdinalWalkError):
    """An input file contained no data rows."""
