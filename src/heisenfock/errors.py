"""Exception types shared across the package.

``SchemaError`` marks malformed input data; ``PreconditionError`` and its
subclasses mark mathematically invalid requests (the operation is fine, the
arguments are not).  ``ReductionError`` signals that a certificate step
failed to lower the degree, which no input can cause: it indicates a bug,
not bad arguments.  An error message that quotes input quotes at most its
first ``_QUOTED_MAX`` characters.
"""

_QUOTED_MAX = 40


def _quoted(value) -> str:
    """``repr(value)``, cut to ``_QUOTED_MAX`` characters and ``...``."""
    try:
        text = repr(value)
    except ValueError:  # an integer past the int-to-text digit limit
        text = "<a number too long to write>"
    return text if len(text) <= _QUOTED_MAX else text[:_QUOTED_MAX] + "..."


class SchemaError(ValueError):
    """Input data does not match the expected JSON/text schema."""


class PreconditionError(ValueError):
    """A mathematical precondition of the requested operation is violated."""


class SectorMismatchError(PreconditionError):
    """Untwisted and twisted objects were mixed in one operation."""


class BosonIndexError(PreconditionError):
    """Boson index outside 1..rank."""


class ModeRangeError(PreconditionError):
    """Mode index outside the sector's index set (parity or sign)."""


class IsotropicTopError(PreconditionError):
    """Top entry of a lambda sequence is nonzero but pairs to zero with itself.

    The resulting candidate type would have a vanishing last eigenvalue,
    which the Whittaker-type definition forbids; callers must handle this
    case explicitly instead of silently accepting it.
    """


class HighestWeightError(PreconditionError):
    """Every positive-index entry of the lambda sequence vanishes.

    The module is then an ordinary highest-weight module and the quadratic
    reduction does not apply.
    """


class NonSquareError(PreconditionError):
    """An exact square root was required but does not exist in Q(i)."""


class ReductionError(RuntimeError):
    """A reduction step's element did not lower the degree; should not happen."""


class NumericFailure(RuntimeError):
    """A numeric solve or an exact cross-check missed its target."""
