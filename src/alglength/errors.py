"""Exception hierarchy for the alglength package.

Everything raised on purpose derives from :class:`AlgLengthError`, so callers
(and the CLI) can catch one base class and still report a precise error name.
"""

from __future__ import annotations


class AlgLengthError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(AlgLengthError):
    """A scalar or vector does not belong to the expected field."""


class DivisionByZero(AlgLengthError, ZeroDivisionError):
    """Multiplicative inverse of zero was requested."""


class ShapeError(AlgLengthError):
    """A vector or table has the wrong dimensions."""


class PrimeFieldNotAllowed(AlgLengthError):
    """The locally-complex basis check only makes sense over the rationals."""


class PrimeFieldRequired(AlgLengthError):
    """Brute-force enumeration needs a finite (prime) coefficient field."""


class NotLocallyComplex(AlgLengthError):
    """The basis fails the locally-complex check, which ``lc_shortcut`` and an
    algebra file's ``lc true`` line both require."""


class EmptyGeneratingSet(AlgLengthError):
    """A generating set must contain at least one vector."""


class RangeError(AlgLengthError):
    """A numeric parameter is outside its documented range."""


class WellformednessError(AlgLengthError):
    """A characteristic sequence is malformed (must start at 0, be non-decreasing)."""


class KOutOfRange(AlgLengthError):
    """The generator-count parameter k of the Fibonacci bound is out of range."""


class BudgetExceeded(AlgLengthError):
    """An input would exceed a size limit or a combinatorial budget."""


class NotGenerating(AlgLengthError):
    """Raised by the CLI when --require-generating is set and S does not generate."""


class ChecksFailed(AlgLengthError):
    """Raised by the CLI, after its report, when ``verify`` finds a failing check."""


class OracleMismatch(AlgLengthError):
    """Raised by the CLI, after its report, when the engine and word oracle disagree."""


class ParseError(AlgLengthError):
    """Syntax or semantic error in an algebra file or generator spec.

    Attributes:
        line: 1-based line number when the error came from a file, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DuplicateProduct(ParseError):
    """The same basis product is defined twice."""


class UnknownBasisName(ParseError):
    """A product or generator refers to a basis name that was never declared."""


class BadScalar(ParseError):
    """A scalar literal is malformed or not in canonical lowest terms."""


def require_int(value, what: str, low: int, error: type[AlgLengthError] = RangeError) -> None:
    """Raise ``error`` unless ``value`` is an int, not a bool, that is at least ``low``."""
    if type(value) is not int or value < low:
        raise error(f"{what} must be an int >= {low}, got {value!r}")
