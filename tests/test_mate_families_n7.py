"""Deep checks on the real generalized-cospectral families at n = 7.

The families found there are the smallest genuine mates and give the
invariance and level theorems something nontrivial to bite on.  The
enumeration comes from the session-scoped ``mates_n7`` fixture, which the
golden mate-enumeration test shares, so the suite walks n = 7 once.
"""

import pytest

from dgscert.certify import certify_dgs
from dgscert.cospec import spectrum_key
from dgscert.graphcore import parse_graph6
from dgscert.specinv import phi_report
from dgscert.zlinalg import determinant, walk_matrix


@pytest.fixture(scope="module")
def families(mates_n7):
    assert mates_n7.total_iso_classes == 1044
    assert len(mates_n7.mate_families) > 0
    return mates_n7.mate_families


def test_family_members_share_spectrum_key(families):
    for key, reps in families.items():
        graphs = [parse_graph6(r) for r in reps]
        assert all(spectrum_key(g) == key for g in graphs)


def test_phi_invariance_across_families(families):
    for reps in families.values():
        graphs = [parse_graph6(r) for r in reps]
        for p in (3, 5, 7):
            values = {phi_report(g, p).phi for g in graphs}
            assert len(values) == 1


def test_no_family_member_is_certified(families):
    for reps in families.values():
        for r in reps:
            assert not certify_dgs(parse_graph6(r)).certified


def test_all_family_members_are_non_controllable(families):
    # empirical structure of the smallest mates: every member of every
    # n = 7 family has a singular walk matrix, so conjugator recovery
    # (which needs a controllable first graph) does not apply here; the
    # 9-vertex fixture pair is the smallest controllable case we audit
    assert len(families) == 20
    for reps in families.values():
        for r in reps:
            assert determinant(walk_matrix(parse_graph6(r))) == 0
