import pytest

from dgscert import specinv
from dgscert.errors import InvariantViolation
from dgscert.fixtures import dgs16_graph, mate9_graph, mate9_mate_graph
from dgscert.fpalg import ModPoly, char_poly_mod_p, format_poly, poly_gcd
from dgscert.graphcore import Graph, derive_seed, random_graph
from dgscert.specinv import phi_report
from dgscert.zlinalg import determinant, walk_matrix
from conftest import (
    BIG_PRIME,
    BIG_PRIME_GRAPH,
    gauss_jordan_route,
    nullspace_basis_p,
    rank_p,
    reduced_walk_matrix,
    restricted_charpoly_oracle,
    seeded_corpus,
    strong_pseudoprime_base_2,
)

# inputs for the checks of phi and p_main against the routes they replaced
DIFF_GRAPHS = [Graph(1, (0,))] + [random_graph(n, derive_seed(0xD1FF, n)) for n in (*range(2, 31), 48)]
DIFF_PRIMES = (3, 5, 10**6 + 3, 2**61 - 1)

# inputs for the one Hessenberg pass per prime against the Gauss-Jordan
# elimination of the walk: (n, k, p) of certify_corpus pool graphs
# random_graph(n, derive_seed(20211018, n, k)) of nullity 3, 4 and 5 at p
POOL_HIGH_NULLITY = ((20, 23, 3), (20, 47, 5), (20, 65, 7), (20, 68, 5), (25, 1, 3))
ELIM_PRIMES = (3, 5, 7, 11, 13, 10**6 + 3, 2**61 - 1, 2**89 - 1)


def P(p, *ascending):
    return ModPoly.make(p, ascending)


class TestEliminateWalk:
    """The one Hessenberg pass per prime, ``specinv._hessenberg_at_e``,
    against the Gauss-Jordan elimination of the walk and ``char_poly_mod_p``."""

    def _check(self, g, p):
        adj = g.adjacency()
        rank, main, chi = specinv._hessenberg_at_e(adj, p)
        assert (rank, main) == gauss_jordan_route(g, p), (g.n, p)
        assert chi == char_poly_mod_p(adj, p), (g.n, p)
        # chi_A / p_main against the nullspace route it replaced
        assert phi_report(g, p).restricted_charpoly == restricted_charpoly_oracle(g, p), (g.n, p)
        return g.n - rank

    @pytest.mark.parametrize("p", ELIM_PRIMES)
    def test_matches_gauss_jordan_on_seeded_graphs(self, p):
        for n in range(6, 31):
            for k in range(3):
                self._check(random_graph(n, derive_seed(0xE11, n, k)), p)

    def test_matches_gauss_jordan_on_fixtures(self):
        assert self._check(mate9_graph(), 3) == 2
        assert self._check(dgs16_graph(), 3) == 2
        # the mate's walk matrix has a different Smith form
        assert self._check(mate9_mate_graph(), 3) == 1

    @pytest.mark.parametrize("n,k,p", POOL_HIGH_NULLITY)
    def test_matches_gauss_jordan_at_high_nullity(self, n, k, p):
        assert self._check(random_graph(n, derive_seed(20211018, n, k)), p) >= 3

    def test_matches_the_nullspace_route_at_n64(self):
        # a 64-vertex pool graph of nullity 2 at p = 3
        assert self._check(random_graph(64, derive_seed(20211018, 64, 2)), 3) == 2

    def test_krylov_space_closing_at_once(self, k1):
        # the Krylov space of e is closed from the start: n = 1; the edgeless
        # graph, where Ae = 0; and the star K_1,4 at p = 3, where Ae = e
        edgeless = Graph.from_edges(3, [])
        star = Graph.from_edges(5, [(0, leaf) for leaf in range(1, 5)])
        for p in ELIM_PRIMES:
            assert self._check(k1, p) == 0
            assert self._check(edgeless, p) == 2
        assert self._check(star, 3) == 4
        assert specinv._hessenberg_at_e(edgeless.adjacency(), 3)[1] == P(3, 0, 1)
        assert specinv._hessenberg_at_e(star.adjacency(), 3)[1] == P(3, -1, 1)


class TestPhiP:
    def test_single_vertex_is_one(self, k1):
        for p in (3, 5, 7):
            assert phi_report(k1, p).phi.is_one()

    def test_dgs16_exact_value(self):
        assert format_poly(phi_report(dgs16_graph(), 3).phi) == "x^4+2x^3+2x^2+x+1"

    def test_mate9_squarefree_parts(self):
        from dgscert.fpalg import sfp

        g = mate9_graph()
        assert format_poly(sfp(phi_report(g, 3).phi)) == "x+2"
        assert format_poly(sfp(phi_report(g, 5).phi)) == "x^2+x+1"

    def test_invariant_under_generalized_cospectrality(self):
        g, h = mate9_graph(), mate9_mate_graph()
        for p in (3, 5, 7):
            assert phi_report(g, p).phi == phi_report(h, p).phi

    def test_rejects_p_equal_two(self, k1):
        with pytest.raises(ValueError):
            phi_report(k1, 2)

    @pytest.mark.parametrize("p", DIFF_PRIMES)
    def test_matches_gcd_of_the_two_charpolys(self, p):
        # oracle: the route the determinant-lemma form replaced
        for g in DIFF_GRAPHS:
            adj = g.adjacency()
            chi_a = char_poly_mod_p(adj, p)
            chi_aj = char_poly_mod_p([[v + 1 for v in row] for row in adj], p)
            assert phi_report(g, p).phi == poly_gcd(chi_a, chi_aj), (g.n, p)


class TestPMainPoly:
    def test_single_vertex(self, k1):
        for p in (3, 5):
            assert phi_report(k1, p).p_main == P(p, 0, 1)

    def test_mate9_pair_values(self):
        assert format_poly(phi_report(mate9_graph(), 3).p_main) == "x^7+2x^6+2x^5+x^4+2x^3+2x^2+x"
        assert format_poly(phi_report(mate9_mate_graph(), 3).p_main) == "x^8+x^7+2x^5+x^4+2x^2+2x"

    def test_annihilates_all_ones_vector(self, small_corpus):
        for g in small_corpus[:12] + DIFF_GRAPHS:
            adj = g.adjacency()
            n = g.n
            for p in DIFF_PRIMES:
                f = phi_report(g, p).p_main
                v = [0] * n
                power = [1] * n
                for c in f.coeffs:
                    v = [(v[i] + c * power[i]) % p for i in range(n)]
                    power = [sum(adj[i][j] * power[j] for j in range(n)) % p for i in range(n)]
                assert all(x == 0 for x in v)

    def test_minimality(self, p3):
        # degree equals rank of W mod p; no monic polynomial of lower degree
        # can annihilate e because the first rank columns are independent
        for g in [p3] + DIFF_GRAPHS:
            for p in DIFF_PRIMES:
                f = phi_report(g, p).p_main
                assert f.degree == rank_p(walk_matrix(g), p), (g.n, p)


class TestRestrictedCharPoly:
    def test_full_rank_gives_one(self, k1):
        assert phi_report(k1, 3).restricted_charpoly.is_one()

    def test_dgs16_value(self):
        # degree 2 and divisible by sfp(phi) = x^2+x+2, hence equal to it
        assert phi_report(dgs16_graph(), 3).restricted_charpoly == P(3, 2, 1, 1)

    def test_p_main_not_dividing_chi_is_an_invariant_breach(self, shifted_m_p):
        for g, p in ((dgs16_graph(), 3), (mate9_graph(), 5)):
            with pytest.raises(InvariantViolation, match=f"p-main does not divide chi\\(A\\) at p={p}"):
                phi_report(g, p)

    def test_mate9_divisibility_chain(self):
        from dgscert.fpalg import sfp

        g = mate9_graph()
        rep = phi_report(g, 3)
        restricted, phi = rep.restricted_charpoly, rep.phi
        assert restricted.degree == 2
        assert sfp(phi).divides(restricted)
        assert restricted.divides(phi)


class TestReducedWalkMatrix:
    @pytest.mark.parametrize(
        "graph_fn,p,k",
        [(dgs16_graph, 3, 2), (mate9_graph, 3, 2), (mate9_graph, 5, 2)],
    )
    def test_determinant_drops_by_p_to_k(self, graph_fn, p, k):
        g = graph_fn()
        det_w = determinant(walk_matrix(g))
        det_red = determinant(reduced_walk_matrix(g, p))
        assert abs(det_w) == p**k * abs(det_red)

    def test_rejects_prime_not_dividing_det(self):
        with pytest.raises(ValueError, match="does not divide"):
            reduced_walk_matrix(dgs16_graph(), 7)

    def test_shares_leading_columns_with_walk_matrix(self):
        g = mate9_graph()
        w = walk_matrix(g)
        red = reduced_walk_matrix(g, 3)
        for i in range(g.n):
            for j in range(g.n - 2):
                assert red[i][j] == w[i][j]


class TestPhiReport:
    def test_dgs16_summary(self):
        rep = phi_report(dgs16_graph(), 3)
        assert (rep.nullity, rep.sfp_phi.degree, rep.eq_degrees_match) == (2, 2, True)

    def test_mate9_summaries(self):
        g = mate9_graph()
        r3, r5 = phi_report(g, 3), phi_report(g, 5)
        assert (r3.nullity, r3.sfp_phi.degree, r3.eq_degrees_match) == (2, 1, False)
        assert (r5.nullity, r5.sfp_phi.degree, r5.eq_degrees_match) == (2, 2, True)

    def test_primes_above_2_62(self):
        rep = phi_report(random_graph(*BIG_PRIME_GRAPH), BIG_PRIME)
        assert (rep.nullity, rep.sfp_phi.degree, rep.eq_degrees_match) == (1, 1, True)
        assert phi_report(dgs16_graph(), 2**89 - 1).nullity == 0
        for bad in ((1 << 62) + 1, strong_pseudoprime_base_2()):
            with pytest.raises(ValueError, match="not an odd prime"):
                phi_report(dgs16_graph(), bad)

    def test_json_round_shape(self):
        d = phi_report(mate9_graph(), 5).to_json_dict()
        assert d["p"] == "5" and d["eq4_holds"] is True
        assert d["sfp_phi"] == "x^2+x+1"

    def test_theorem_invariants_on_corpus(self):
        corpus = seeded_corpus(15, 5, 11, seed=0xBEEF)
        for g in corpus:
            chi = char_poly_mod_p(g.adjacency(), 3)
            for p in (3, 5, 7):
                rep = phi_report(g, p)  # raises on any broken proven relation
                assert rep.sfp_phi.degree <= rep.nullity <= max(rep.phi.degree, 0)
                if rep.nullity == 1:
                    assert rep.sfp_phi.degree == 1
                if rep.eq_degrees_match:
                    # exact division identity for the annihilator
                    chi_p = char_poly_mod_p(g.adjacency(), p)
                    assert chi_p.exact_div(rep.sfp_phi) == rep.p_main

    def test_shifted_walk_matrices_share_nullspace(self, small_corpus):
        # the nullspace of W^T is unchanged when A is replaced by A + tJ
        for g in small_corpus[:8]:
            n = g.n
            base = None
            for t in (0, 1, 2):
                rows = [[v + t for v in row] for row in g.adjacency()]
                wt = []  # rows of W_t^T are the walk vectors
                v = [1] * n
                for _ in range(n):
                    wt.append(v)
                    v = [sum(rows[i][j] * v[j] for j in range(n)) for i in range(n)]
                for p in (3, 5):
                    basis = nullspace_basis_p(wt, p)
                    if t == 0:
                        if base is None:
                            base = {}
                        base[p] = basis
                    else:
                        assert basis == base[p]


class TestAgainstMatePair:
    def test_nullity_dichotomy_at_failing_prime(self):
        # at p = 3 the pair realizes different nullities and different
        # annihilators; at p = 5 both agree
        g, h = mate9_graph(), mate9_mate_graph()
        r3g, r3h = phi_report(g, 3), phi_report(h, 3)
        assert (r3g.nullity, r3h.nullity) == (2, 1)
        assert r3g.p_main != r3h.p_main
        r5g, r5h = phi_report(g, 5), phi_report(h, 5)
        assert (r5g.nullity, r5h.nullity) == (2, 2)
        assert r5g.p_main == r5h.p_main
