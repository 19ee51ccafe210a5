from itertools import zip_longest

import pytest
import sympy

from dgscert.fixtures import dgs16_graph, mate9_graph
from dgscert.fpalg import (
    ModPoly,
    char_poly_mod_p,
    format_poly,
    poly_gcd,
    sfp,
    sqrt_poly,
    squarefree_decomposition,
)
from dgscert.graphcore import Xorshift64Star, derive_seed, random_graph
from dgscert.zlinalg import char_poly_int, walk_matrix
from conftest import identity, nullity_p, nullspace_basis_p, rank_p, strong_pseudoprime_base_2

M89 = 2**89 - 1


def P(p, *ascending):
    return ModPoly.make(p, ascending)


def _random_monic(p, degree, gen):
    coeffs = [gen.next_u64() % p for _ in range(degree)] + [1]
    return ModPoly.make(p, coeffs)


def _irreducible(f: ModPoly) -> bool:
    # trial division by every lower-degree monic polynomial; fine for the
    # tiny search spaces used in tests
    if f.degree < 1:
        return False
    p = f.p
    for d in range(1, f.degree // 2 + 1):
        for code in range(p**d):
            coeffs, c = [], code
            for _ in range(d):
                coeffs.append(c % p)
                c //= p
            coeffs.append(1)
            if (f % ModPoly.make(p, coeffs)).is_zero():
                return False
    return True


def _random_irreducibles(p, count, max_degree, gen):
    out = []
    while len(out) < count:
        f = _random_monic(p, 1 + gen.next_u64() % max_degree, gen)
        if _irreducible(f) and f not in out:
            out.append(f)
    return out


class TestModPoly:
    def test_canonicalization(self):
        assert P(5, 7, 1, 0, 0).coeffs == (2, 1)

    def test_modulus_must_be_odd_prime(self):
        for bad in (2, 4, 9, 1, 15, (1 << 62) + 1, strong_pseudoprime_base_2()):
            with pytest.raises(ValueError):
                ModPoly.make(bad, [1])
            with pytest.raises(ValueError, match="not an odd prime"):
                char_poly_mod_p(identity(2), bad)

    def test_modulus_above_2_62_accepted(self):
        assert P(M89, -1, 1).coeffs == (M89 - 1, 1)
        assert char_poly_mod_p(identity(2), M89) == P(M89, 1, -2, 1)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            P(3, 1) * P(5, 1)

    def test_divmod_roundtrip(self):
        gen = Xorshift64Star(3)
        for p in (3, 5, 7):
            for _ in range(20):
                a = _random_monic(p, 6, gen)
                b = _random_monic(p, 3, gen)
                q, r = a.divmod(b)
                # ModPoly has no + or -: subtract r coefficient-wise
                assert q * b == P(p, *(x - y for x, y in zip_longest(a.coeffs, r.coeffs, fillvalue=0)))
                assert r.degree < b.degree

    def test_zero_product_and_short_dividend(self):
        zero = ModPoly.zero(5)
        assert P(5, 1, 1) * zero == zero * P(5, 1, 1) == zero * zero == zero
        assert P(5, 1, 1).divmod(P(5, 0, 0, 1)) == (zero, P(5, 1, 1))
        assert zero.divmod(P(5, 2)) == (zero, zero)

    def test_exact_div_rejects_remainder(self):
        with pytest.raises(ValueError):
            P(5, 1, 1).exact_div(P(5, 2, 1))

    def test_derivative_char_p(self):
        # d/dx of x^3 over F_3 vanishes
        assert P(3, 0, 0, 0, 1).derivative().is_zero()


class TestFormat:
    def test_dense_polynomial(self):
        assert format_poly(P(3, 1, 1, 2, 2, 1)) == "x^4+2x^3+2x^2+x+1"

    def test_zero_and_constants(self):
        assert format_poly(ModPoly.zero(5)) == "0"
        assert format_poly(P(5, 1)) == "1"
        assert format_poly(P(5, 0, 1)) == "x"

    def test_negative_coefficient_reduced(self):
        assert format_poly(P(5, -1, 1)) == "x+4"


class TestGcd:
    def test_common_root(self):
        assert poly_gcd(P(5, -1, 0, 1), P(5, -1, 1)) == P(5, 4, 1)
        assert format_poly(poly_gcd(P(5, -1, 0, 1), P(5, -1, 1))) == "x+4"

    def test_gcd_with_zero_is_monic(self):
        f = P(7, 2, 4)
        assert poly_gcd(f, ModPoly.zero(7)) == f.monic()
        assert poly_gcd(ModPoly.zero(7), ModPoly.zero(7)).is_zero()

    def test_coprime(self):
        assert poly_gcd(P(3, 0, 1), P(3, -1, 1)).is_one()

    def test_commutative_associative_idempotent(self):
        gen = Xorshift64Star(17)
        for p in (3, 5):
            for _ in range(15):
                a, b, c = (_random_monic(p, 2 + gen.next_u64() % 4, gen) for _ in range(3))
                assert poly_gcd(a, b) == poly_gcd(b, a)
                assert poly_gcd(poly_gcd(a, b), c) == poly_gcd(a, poly_gcd(b, c))
                assert poly_gcd(a, a) == a.monic()


class TestSquarefreeDecomposition:
    def test_double_factor(self):
        f = P(3, 2, 1, 1).pow(2)  # (x^2+x+2)^2
        dec = squarefree_decomposition(f)
        assert dec == ((P(3, 2, 1, 1), 2),)

    def test_squarefree_input(self):
        f = P(5, 1, 1, 0, 1)
        assert squarefree_decomposition(f) == ((f, 1),)
        assert squarefree_decomposition(ModPoly.one(5)) == ()

    def test_pure_pth_power(self):
        assert squarefree_decomposition(P(3, 0, 0, 0, 1)) == ((P(3, 0, 1), 3),)
        # x^3 (x+1)^9 over F_3: the zero derivative sends all of it to the p-th root, twice
        f = P(3, 0, 1).pow(3) * P(3, 1, 1).pow(9)
        assert squarefree_decomposition(f) == ((P(3, 0, 1), 3), (P(3, 1, 1), 9))

    def test_requires_monic_nonzero(self):
        with pytest.raises(ValueError):
            squarefree_decomposition(ModPoly.zero(3))
        with pytest.raises(ValueError):
            squarefree_decomposition(P(3, 1, 2))

    def test_known_factorizations(self):
        # build inputs from random distinct irreducibles with known
        # exponents, then demand exactly that grouping back
        gen = Xorshift64Star(23)
        for p in (3, 5):
            for _ in range(12):
                irreducibles = _random_irreducibles(p, 3, 3, gen)
                exponents = [1 + gen.next_u64() % 4 for _ in irreducibles]
                f = ModPoly.one(p)
                for q, e in zip(irreducibles, exponents):
                    f = f * q.pow(e)
                expected = {}
                for q, e in zip(irreducibles, exponents):
                    expected[e] = expected.get(e, ModPoly.one(p)) * q
                dec = squarefree_decomposition(f)
                assert {m: g for g, m in dec} == expected

    def test_reassembly_and_part_invariants(self):
        gen = Xorshift64Star(29)
        for p in (3, 5):
            for _ in range(15):
                irreducibles = _random_irreducibles(p, 2 + gen.next_u64() % 2, 3, gen)
                f = ModPoly.one(p)
                for q in irreducibles:
                    f = f * q.pow(1 + gen.next_u64() % 4)
                dec = squarefree_decomposition(f)
                product = ModPoly.one(p)
                for g, j in dec:
                    product = product * g.pow(j)
                assert product == f
                mults = [m for _, m in dec]
                assert mults == sorted(set(mults))
                for i, (g, _) in enumerate(dec):
                    assert poly_gcd(g, g.derivative()).is_one()  # squarefree part
                    for h, _ in dec[i + 1 :]:
                        assert poly_gcd(g, h).is_one()


class TestSfpSqrt:
    def test_fixture_value(self):
        f = P(3, 1, 1, 2, 2, 1)  # x^4+2x^3+2x^2+x+1 = (x^2+x+2)^2 over F_3
        assert sfp(f) == P(3, 2, 1, 1)
        assert sqrt_poly(f) == P(3, 2, 1, 1)

    def test_sfp_of_squarefree_is_identity(self):
        f = P(5, 1, 1, 0, 1)
        assert sfp(f) == f
        assert sqrt_poly(f) == f

    def test_x_to_fifth(self):
        assert sfp(P(5, 0, 0, 0, 0, 0, 1)) == P(5, 0, 1)

    def test_cube_takes_ceiling(self):
        f = P(5, -1, 1).pow(3)
        assert sqrt_poly(f) == P(5, -1, 1).pow(2)

    def test_divisibility_chain_random(self):
        gen = Xorshift64Star(31)
        for p in (3, 5):
            for _ in range(20):
                irreducibles = _random_irreducibles(p, 2, 3, gen)
                f = ModPoly.one(p)
                for q in irreducibles:
                    f = f * q.pow(1 + gen.next_u64() % 4)
                s, r = sfp(f), sqrt_poly(f)
                assert s.divides(r) and r.divides(f)
                assert sfp(s) == s


class TestLinearAlgebraModP:
    # the Gauss-Jordan helpers of conftest, the oracle for specinv._hessenberg_at_e

    def test_rank_identity(self):
        for p in (3, 5, 7):
            assert rank_p(identity(4), p) == 4

    def test_fixture_nullities(self):
        w16 = walk_matrix(dgs16_graph())
        assert nullity_p(w16, 3) == 2
        w9 = walk_matrix(mate9_graph())
        assert nullity_p(w9, 3) == 2
        assert nullity_p(w9, 5) == 2

    def test_nullspace_identity_empty(self):
        assert nullspace_basis_p(identity(3), 5) == []

    def test_nullspace_zero_matrix(self):
        basis = nullspace_basis_p([[0] * 3 for _ in range(3)], 3)
        assert len(basis) == 3
        assert basis == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_nullspace_of_transposed_walk_matrix(self):
        basis = nullspace_basis_p(list(zip(*walk_matrix(mate9_graph()))), 3)
        assert len(basis) == 2

    def test_nullspace_vectors_annihilate(self):
        w_t = list(zip(*walk_matrix(dgs16_graph())))
        for p in (3,):
            for vec in nullspace_basis_p(w_t, p):
                for row in w_t:
                    assert sum(v * x for v, x in zip(row, vec)) % p == 0

    def test_rank_plus_nullity(self, small_corpus):
        for g in small_corpus:
            w = walk_matrix(g)
            for p in (3, 5, 7):
                assert rank_p(w, p) + nullity_p(w, p) == g.n

    def test_prime_validated(self):
        with pytest.raises(ValueError):
            rank_p(identity(2), 2)
        with pytest.raises(ValueError):
            rank_p(identity(2), 15)


CHARPOLY_PRIMES = (3, 5, 10**6 + 3, 2**61 - 1)


def _sparse_matrix(n: int, seed: int) -> list[list[int]]:
    """Seeded n x n integer matrix: density varies with the seed, and every
    third seed zeroes the lower-left block below a split point, so some
    Hessenberg columns have no pivot below the subdiagonal."""
    gen = Xorshift64Star(seed)
    density = 1 + gen.next_u64() % 4  # nonzero with probability density / 5
    rows = [[gen.next_u64() % 11 - 5 if gen.next_u64() % 5 < density else 0 for _ in range(n)] for _ in range(n)]
    if seed % 3 == 0 and n >= 2:
        split = 1 + gen.next_u64() % (n - 1)
        for i in range(split, n):
            rows[i][:split] = [0] * split
    return rows


class TestCharPolyModP:
    def test_empty_matrix(self):
        assert char_poly_mod_p([], 3) == ModPoly.one(3)

    def test_k2_mod_3(self, k2):
        m = k2.adjacency()
        assert char_poly_mod_p(m, 3) == P(3, 2, 0, 1)

    def test_zero_matrix(self):
        m = [[0] * 3 for _ in range(3)]
        for p in (3, 7):
            assert char_poly_mod_p(m, p) == P(p, 0, 0, 0, 1)

    def test_reduction_of_integer_charpoly(self):
        gen = Xorshift64Star(37)
        for i in range(10):
            m = [[gen.next_u64() % 19 - 9 for _ in range(5)] for _ in range(5)]
            coeffs = char_poly_int(m)
            for p in (3, 5, 7):
                assert char_poly_mod_p(m, p) == ModPoly.make(p, coeffs)

    def test_large_modulus(self):
        m = dgs16_graph().adjacency()
        f = char_poly_mod_p(m, 6442787651)
        assert f.is_monic() and f.degree == 16

    def test_matches_reduced_integer_charpoly(self):
        # one kernel, two moduli: over the small primes here and over the
        # large prime char_poly_int lifts from, reduced mod each small prime
        for n in range(13):
            for k in range(12):
                rows = _sparse_matrix(n, derive_seed(71, n, k))
                coeffs = char_poly_int(rows)
                for p in CHARPOLY_PRIMES:
                    assert char_poly_mod_p(rows, p) == ModPoly.make(p, coeffs), (rows, p)

    def test_block_triangular_without_pivots(self):
        # upper triangular: no column has a pivot below the subdiagonal
        m = [[0, 4, 1, 2], [0, 2, 0, 3], [0, 0, 2, 1], [0, 0, 0, -1]]
        for p in CHARPOLY_PRIMES:
            assert char_poly_mod_p(m, p) == ModPoly.make(p, (0, 4, 0, -3, 1))  # x (x-2)^2 (x+1)

    def test_matches_sympy(self):
        for n in range(1, 9):
            for k in range(3):
                rows = _sparse_matrix(n, derive_seed(73, n, k))
                expected = [int(c) for c in reversed(sympy.Matrix(rows).charpoly().all_coeffs())]
                for p in CHARPOLY_PRIMES:
                    assert char_poly_mod_p(rows, p) == ModPoly.make(p, expected)

    @pytest.mark.parametrize("n", [20, 30, 48])
    def test_adjacency_matrices(self, n):
        for k in range(2):
            m = random_graph(n, derive_seed(79, n, k)).adjacency()
            coeffs = char_poly_int(m)
            for p in CHARPOLY_PRIMES:
                assert char_poly_mod_p(m, p) == ModPoly.make(p, coeffs)
