"""Built-in reference graphs used by the test suite and the documentation.

Two fixtures are provided:

* ``dgs16``: a 16-vertex graph whose walk matrix has the invariant-factor
  chain [1 x8, 2 x6, 6, 2b] with b squarefree.  The half-determinant rule
  fails on it (3 divides the odd part twice) but the d_n rule certifies it,
  which makes it the canonical regression case for the certifier.

* ``mate9``: a 9-vertex graph that is NOT determined by its generalized
  spectrum.  A level-3 regular rational orthogonal matrix conjugating it to
  a non-isomorphic mate is included, so the recovery and audit code can be
  exercised against a known ground truth.
"""

from __future__ import annotations

from .cospec import RationalOrthogonal
from .graphcore import Graph

DGS16_ADJACENCY = (
    (0, 0, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 1, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1),
    (1, 0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 0, 1, 0, 1),
    (0, 1, 1, 0, 1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1),
    (1, 1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 1, 1),
    (0, 1, 1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1),
    (1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 1, 0, 0, 1),
    (1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1),
    (1, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0),
    (0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0),
    (0, 1, 1, 1, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1),
    (0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 1, 0, 1),
    (0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0),
)

MATE9_ADJACENCY = (
    (0, 1, 0, 1, 0, 0, 1, 1, 1),
    (1, 0, 1, 0, 1, 0, 0, 1, 1),
    (0, 1, 0, 1, 1, 1, 0, 1, 1),
    (1, 0, 1, 0, 1, 0, 0, 0, 0),
    (0, 1, 1, 1, 0, 1, 1, 1, 0),
    (0, 0, 1, 0, 1, 0, 1, 0, 0),
    (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (1, 1, 1, 0, 1, 0, 1, 0, 1),
    (1, 1, 1, 0, 0, 0, 1, 1, 0),
)

# Numerators of the level-3 conjugating matrix Q = MATE9_Q_NUMERATORS / 3.
MATE9_Q_LEVEL = 3
MATE9_Q_NUMERATORS = (
    (1, -1, 0, 2, 1, 0, -1, 1, 0),
    (-1, 1, 0, 1, 2, 0, 1, -1, 0),
    (1, -1, 0, -1, 1, 0, 2, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 3),
    (1, 2, 0, -1, 1, 0, -1, 1, 0),
    (-1, 1, 0, 1, -1, 0, 1, 2, 0),
    (0, 0, 3, 0, 0, 0, 0, 0, 0),
    (2, 1, 0, 1, -1, 0, 1, -1, 0),
    (0, 0, 0, 0, 0, 3, 0, 0, 0),
)


def dgs16_graph() -> Graph:
    return Graph.from_adjacency(DGS16_ADJACENCY)


def mate9_graph() -> Graph:
    return Graph.from_adjacency(MATE9_ADJACENCY)


def _mate9_q() -> RationalOrthogonal:
    return RationalOrthogonal(9, MATE9_Q_NUMERATORS, MATE9_Q_LEVEL)


def mate9_mate_graph() -> Graph:
    """The non-isomorphic generalized-cospectral mate: Q^T A Q rebuilt exactly.

    ``RationalOrthogonal.conjugate`` raises unless the conjugate is a graph's
    adjacency matrix, so an incoherent fixture cannot load.
    """
    return _mate9_q().conjugate(mate9_graph())
