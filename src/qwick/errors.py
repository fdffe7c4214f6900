"""Exception types shared across the package."""


class QwickError(ValueError):
    """Base class for input and size violations raised by this package."""


class SizeLimitError(QwickError):
    """An enumeration, operator-form, vector-support or Gram cap was exceeded."""


class DomainError(QwickError):
    """Input outside the mathematical domain of an operation."""


class TruncationOverflowError(QwickError):
    """A creation operator would push past the configured tensor degree."""
