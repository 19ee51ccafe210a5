"""The committed fixture files must stay in sync with the in-code matrices."""

from pathlib import Path

from dgscert.cospec import RationalOrthogonal, emit_pair_fixture
from dgscert.fixtures import MATE9_Q_LEVEL, MATE9_Q_NUMERATORS, dgs16_graph, mate9_graph, mate9_mate_graph
from dgscert.graphcore import emit_adjacency, emit_graph6

REPO_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_files() -> dict[str, str]:
    """The CLI-ready input files the fixtures render to, by file name."""
    q = RationalOrthogonal(9, MATE9_Q_NUMERATORS, MATE9_Q_LEVEL)
    return {
        "dgs16.g6": emit_graph6(dgs16_graph()) + "\n",
        "mate9.g6": emit_graph6(mate9_graph()) + "\n",
        "mate9.adj": emit_adjacency(mate9_graph()),
        "mate9_pair.txt": emit_pair_fixture(mate9_graph(), mate9_mate_graph(), q),
    }


def test_committed_files_match_generated():
    for name, content in fixture_files().items():
        committed = REPO_FIXTURES / name
        assert committed.is_file(), f"missing committed fixture {name}"
        assert committed.read_text() == content, f"stale committed fixture {name}"
