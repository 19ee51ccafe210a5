"""Shared exception types, and the block that names the graph a breach
happened on."""

import contextlib

from .graphcore import Graph, emit_graph6


class InvariantViolation(RuntimeError):
    """A mathematically guaranteed identity failed at runtime.

    Raised when a proven relationship between computed quantities does not
    hold (e.g. a divisibility chain breaks, or a linear system that must be
    consistent is not).  This always indicates an implementation bug or
    corrupted input data, never a property of the graph under study.
    ``graph6`` names the graph being processed when the raiser's caller
    knows it (see ``_on_graph``).
    """

    graph6: str | None = None


@contextlib.contextmanager
def _on_graph(g: Graph):
    """Tag an invariant violation raised inside the block with g's graph6."""
    try:
        yield
    except InvariantViolation as exc:
        if exc.graph6 is None:
            exc.graph6 = emit_graph6(g)
        raise
