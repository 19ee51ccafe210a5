import pytest

from dgscert.cospec import (
    RationalOrthogonal,
    emit_pair_fixture,
    enumerate_generalized_cospectral_classes,
    iter_isomorphism_classes,
    level_parity_audit,
    parse_pair_fixture,
    recover_q,
    spectrum_key,
    verify_regular_orthogonal,
)
from dgscert.errors import InvariantViolation
from dgscert.fixtures import MATE9_Q_LEVEL, MATE9_Q_NUMERATORS, mate9_graph, mate9_mate_graph
from dgscert.graphcore import Graph, derive_seed, random_graph
from conftest import permuted


@pytest.fixture(scope="module")
def fixture_q():
    return RationalOrthogonal(9, MATE9_Q_NUMERATORS, MATE9_Q_LEVEL)


class TestSpectrumKey:
    def test_k1(self, k1):
        key = spectrum_key(k1)
        assert key.charpoly == (0, 1) and key.charpoly_complement == (0, 1)

    def test_k2(self, k2):
        key = spectrum_key(k2)
        assert key.charpoly == (-1, 0, 1) and key.charpoly_complement == (0, 0, 1)

    def test_fixture_pair_shares_key(self):
        assert spectrum_key(mate9_graph()) == spectrum_key(mate9_mate_graph())

    def test_cospectral_but_not_generalized_cospectral(self):
        # the star K_{1,4} and C_4 plus an isolated vertex share the
        # adjacency spectrum but not the complement spectrum
        star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        c4_plus = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert spectrum_key(star).charpoly == spectrum_key(c4_plus).charpoly
        assert spectrum_key(star) != spectrum_key(c4_plus)


class TestRationalOrthogonal:
    def test_fixture_validates(self, fixture_q):
        assert fixture_q.level == 3

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            RationalOrthogonal(2, ((1, 1), (0, 1)), 1)

    def test_non_regular_rejected(self):
        # orthogonal but row sums differ from 1
        with pytest.raises(ValueError, match="regular"):
            RationalOrthogonal(2, ((1, 0), (0, -1)), 1)

    def test_non_minimal_level_rejected(self):
        with pytest.raises(ValueError, match="minimal"):
            RationalOrthogonal(2, ((2, 0), (0, 2)), 2)

    def test_identity(self):
        q = RationalOrthogonal(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)
        assert q.level == 1


class TestVerifyAndRecover:
    def test_identity_on_same_graph(self, c4):
        q = RationalOrthogonal(4, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)), 1)
        assert verify_regular_orthogonal(q, c4, c4)

    def test_fixture_q_conjugates_pair(self, fixture_q):
        assert verify_regular_orthogonal(fixture_q, mate9_graph(), mate9_mate_graph())

    def test_fixture_q_fails_on_wrong_target(self, fixture_q):
        assert not verify_regular_orthogonal(fixture_q, mate9_graph(), mate9_graph())

    def test_recover_self_is_identity(self):
        g = mate9_graph()
        q = recover_q(g, g)
        assert q.level == 1
        assert q.numerators == tuple(tuple(int(i == j) for j in range(9)) for i in range(9))

    def test_recover_reproduces_fixture(self, fixture_q):
        q = recover_q(mate9_graph(), mate9_mate_graph())
        assert q.numerators == MATE9_Q_NUMERATORS and q.level == 3

    def test_recover_permuted_copy_gives_permutation(self):
        g = mate9_graph()
        perm = [4, 0, 7, 2, 8, 1, 6, 3, 5]
        q = recover_q(g, permuted(g, perm))
        assert q.level == 1 and all(sorted(row) == [0] * 8 + [1] for row in q.numerators)

    def test_certified_graph_conjugators_have_level_one(self):
        # a certified graph has no non-isomorphic mate, so any conjugator
        # we can construct for it comes from a relabeling and must be a
        # permutation matrix
        from dgscert.certify import certify_dgs
        from dgscert.fixtures import dgs16_graph

        g = dgs16_graph()
        assert certify_dgs(g).certified
        for perm in ([15 - i for i in range(16)], [(i * 7) % 16 for i in range(16)]):
            q = recover_q(g, permuted(g, perm))
            assert q.level == 1

    def test_transpose_compatibility(self, fixture_q):
        forward = recover_q(mate9_graph(), mate9_mate_graph())
        backward = recover_q(mate9_mate_graph(), mate9_graph())
        assert backward.numerators == forward.transpose().numerators

    def test_conjugator_maps_walk_matrices(self, fixture_q):
        # Q^T W(G) = W(H) exactly
        from dgscert.zlinalg import walk_matrix

        wg = walk_matrix(mate9_graph())
        wh = walk_matrix(mate9_mate_graph())
        n, lvl = 9, fixture_q.level
        nm = fixture_q.numerators
        for i in range(n):
            for j in range(n):
                lhs = sum(nm[k][i] * wg[k][j] for k in range(n))
                assert lhs == lvl * wh[i][j]

    def test_rejects_non_cospectral(self, c4):
        other = Graph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError, match="cospectral"):
            recover_q(c4, other)

    def test_rejects_non_controllable_first(self, c4):
        with pytest.raises(ValueError, match="controllable"):
            recover_q(c4, c4)


class TestPairFixtureFormat:
    def test_roundtrip(self, fixture_q):
        text = emit_pair_fixture(mate9_graph(), mate9_mate_graph(), fixture_q)
        g, h, q = parse_pair_fixture(text)
        assert g == mate9_graph() and h == mate9_mate_graph()
        assert q.numerators == fixture_q.numerators and q.level == 3

    def test_bad_row_count(self, fixture_q):
        text = emit_pair_fixture(mate9_graph(), mate9_mate_graph(), fixture_q)
        lines = text.splitlines()
        with pytest.raises(ValueError, match="rows"):
            parse_pair_fixture("\n".join(lines[:-1]))


class TestEnumeration:
    def test_tiny_orders(self):
        res1 = enumerate_generalized_cospectral_classes(1)
        assert res1.total_graphs == 1 and res1.total_iso_classes == 1 and not res1.mate_families

        res2 = enumerate_generalized_cospectral_classes(2)
        assert res2.total_graphs == 2 and res2.total_iso_classes == 2 and not res2.mate_families

    @pytest.mark.parametrize("n,classes", [(3, 4), (4, 11), (5, 34)])
    def test_iso_class_counts(self, n, classes):
        res = enumerate_generalized_cospectral_classes(n)
        assert res.total_iso_classes == classes
        assert res.total_graphs == 1 << (n * (n - 1) // 2)

    def test_every_small_graph_is_dgs_ground_truth(self):
        res = enumerate_generalized_cospectral_classes(5)
        for i in range(12):
            g = random_graph(5, derive_seed(3, 5, i))
            assert res.is_dgs(g)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            enumerate_generalized_cospectral_classes(8)

    def test_iter_isomorphism_classes(self):
        assert len(iter_isomorphism_classes(4)) == 11
        assert len(iter_isomorphism_classes(5)) == 34


class TestLevelAudit:
    def test_fixture_pair(self):
        entry = level_parity_audit(mate9_graph(), mate9_mate_graph())
        d = entry.to_json_dict()
        assert entry.level == 3
        assert entry.dn == 30
        assert d["dn_mod_4"] == 2 and d["level_odd"]
        # the only odd prime in the level is exactly the one where the
        # degree condition fails
        assert d["prime_checks"] == [{"p": "3", "eq4_holds": False, "divides_level": True}]

    def test_identity_pairs(self):
        g = mate9_graph()
        assert level_parity_audit(g, g).level == 1
        assert level_parity_audit(g, permuted(g, [8, 7, 6, 5, 4, 3, 2, 1, 0])).level == 1

    def test_report_nullity_checked_against_invariant_factors(self, wrong_nullity):
        with pytest.raises(InvariantViolation, match="disagrees with the invariant factors at p=3"):
            level_parity_audit(mate9_graph(), mate9_mate_graph())

    def test_json_shape(self):
        entry = level_parity_audit(mate9_graph(), mate9_mate_graph())
        d = entry.to_json_dict()
        assert d["level"] == 3 and d["dn"] == "30"
        assert d["prime_checks"][0] == {"p": "3", "eq4_holds": False, "divides_level": True}
