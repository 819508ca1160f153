"""Exception types shared across the package."""

from __future__ import annotations


class ShiftSpaceError(ValueError):
    """Base class for errors raised by shiftflow operations."""


class InvalidInput(ShiftSpaceError):
    """Malformed data: bad JSON shape, unknown symbol, negative entry."""


class PreconditionError(ShiftSpaceError):
    """A documented requirement of the operation does not hold."""


class PartialBlockMapError(ShiftSpaceError):
    """A sliding block map was applied to a window outside its domain.

    The offending window is kept on the exception so callers can report
    which factor had no image.
    """

    def __init__(self, message: str, window: tuple[str, ...] | None = None):
        super().__init__(message)
        self.window = window


class NonConvergenceError(RuntimeError):
    """Iterative numeric routine stopped without an answer: its iteration
    budget ran out, or its floats underflowed.  `iterations` counts the
    iterations it completed."""

    def __init__(self, message: str, iterations: int):
        super().__init__(message)
        self.iterations = iterations
