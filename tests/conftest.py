import dataclasses

import pytest

from dgscert import specinv
from dgscert.cospec import enumerate_generalized_cospectral_classes
from dgscert.graphcore import Graph, derive_seed, random_graph

CORPUS_SEED = 0xD65C0DE


def seeded_corpus(count: int, n_lo: int, n_hi: int, seed: int = CORPUS_SEED) -> list[Graph]:
    """Deterministic mixed-order random graphs for property tests."""
    span = n_hi - n_lo + 1
    return [random_graph(n_lo + i % span, derive_seed(seed, n_lo + i % span, i)) for i in range(count)]


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    return seeded_corpus(30, 4, 12)


@pytest.fixture(scope="session")
def k1() -> Graph:
    return Graph(1, (0,))


@pytest.fixture(scope="session")
def k2() -> Graph:
    return Graph.from_edges(2, [(0, 1)])


@pytest.fixture(scope="session")
def p3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def c4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture(scope="session")
def mates_n7():
    """The exhaustive n = 7 enumeration, walked once per session."""
    return enumerate_generalized_cospectral_classes(7)


@pytest.fixture
def wrong_nullity(monkeypatch):
    """Make ``specinv.phi_report`` return a report whose nullity is one too
    high, so it disagrees with the invariant factors at every prime."""
    real = specinv.phi_report

    def off_by_one(g, p):
        rep = real(g, p)
        return dataclasses.replace(rep, nullity=rep.nullity + 1)

    monkeypatch.setattr(specinv, "phi_report", off_by_one)
