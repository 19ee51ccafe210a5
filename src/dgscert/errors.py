"""Shared exception types."""


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed identity failed at runtime.

    Raised when a proven relationship between computed quantities does not
    hold (e.g. a divisibility chain breaks, or a linear system that must be
    consistent is not).  This always indicates an implementation bug or
    corrupted input data, never a property of the graph under study.
    The command line sets ``graph6`` to the graph being processed when it
    knows it.
    """

    graph6: str | None = None
