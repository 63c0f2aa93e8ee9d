"""Exception hierarchy shared across the package."""


class EquihomError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(EquihomError, ValueError):
    """A caller-supplied parameter is outside its documented range."""


class CapacityExceededError(EquihomError):
    """A construction would exceed the configured cell or vertex budget."""


class UnsupportedInputError(EquihomError):
    """Input is structurally valid but outside the supported fragment."""


class NotEquivariantError(EquihomError):
    """A colouring or map fails to commute with the involutions.

    ``witness`` is a vertex on which equivariance fails.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AlternatingSimplexError(EquihomError):
    """A 2-colouring sends a 3-simplex to a tuple with three alternations.

    ``witness`` is the offending simplex.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantViolationError(EquihomError):
    """A property that should hold mathematically failed; indicates a bug."""


class NotFreeActionError(EquihomError):
    """The involution fixes a cell where a free action is required."""


class InvalidInputError(EquihomError):
    """Input data is internally inconsistent (e.g. matrix shapes that do not compose)."""


class InternalError(EquihomError):
    """A construction that is guaranteed to succeed failed; indicates a bug."""
