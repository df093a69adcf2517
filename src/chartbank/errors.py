"""Exception types shared across the package."""

__all__ = ["CapacityError", "AlreadyStoppedError"]


class CapacityError(RuntimeError):
    """A requested computation exceeds a caller-set size cap."""


class AlreadyStoppedError(RuntimeError):
    """A detector was stepped after it had already raised an alarm."""
