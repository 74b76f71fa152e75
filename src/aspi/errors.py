"""Exception types shared across the package, and the thread-count check.

All of them subclass ValueError so callers that do not care about the
distinction can catch a single builtin type.
"""


class AspiError(ValueError):
    """Base class for errors raised by this package."""


class DegenerateInputError(AspiError):
    """An input carries no usable signal (constant frame, zero-displacement anchor pair)."""


class EmptyMaskError(AspiError):
    """A mask with no positive energy where slits are required."""


class CoverageError(AspiError):
    """A probe or region falls below the illumination-coverage floor."""


class FwhmRangeError(AspiError):
    """A half-maximum crossing lies outside the sampled curve."""


class StackFormatError(AspiError):
    """A stack file violates the binary format contract."""


def check_threads(threads: int) -> None:
    """A worker thread count below 1 is a ValueError."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
