from itertools import combinations
from fractions import Fraction
from math import gcd, prod

import pytest
import sympy

from dgscert.errors import InvariantViolation
from dgscert.fixtures import dgs16_graph, mate9_graph
from dgscert.fpalg import ModPoly, char_poly_mod_p
from dgscert.graphcore import Graph, Xorshift64Star, derive_seed, random_graph
from dgscert import zlinalg
from dgscert.zlinalg import (
    _bareiss,
    _eliminate,
    _odd_leading_order,
    char_poly_int,
    determinant,
    rational_solve,
    smith_normal_form,
    walk_matrix,
)
from conftest import _rref, bareiss_one_step, eliminate_over_z, identity, seeded_corpus

# the number-theory tests moved to test_ntheory.py with the code they test;
# importing them here keeps their ids under this module for one release
from test_ntheory import TestBlockTrialDivision, TestBrentRhoBudget, TestFactorInteger, TestIsPrime

B_FIXTURE = 3 * 23 * 29 * 1225550789 * 6442787651


def _random_int_matrix(n: int, seed: int, lo: int = -9, hi: int = 9) -> list[list[int]]:
    gen = Xorshift64Star(seed)
    span = hi - lo + 1
    return [[lo + gen.next_u64() % span for _ in range(n)] for _ in range(n)]


class TestWalkMatrix:
    def test_k1(self, k1):
        assert walk_matrix(k1) == ((1,),)

    def test_k2_singular(self, k2):
        assert walk_matrix(k2) == ((1, 1), (1, 1))

    def test_p3_columns(self, p3):
        # columns e, Ae, A^2 e computed by hand
        assert walk_matrix(p3) == ((1, 1, 2), (1, 2, 2), (1, 1, 2))


class TestDeterminant:
    def test_identity(self):
        assert determinant(identity(3)) == 1

    def test_singular_walk_matrix(self, k2):
        assert determinant(walk_matrix(k2)) == 0

    def test_dgs16_value_matches_invariant_factors(self):
        # |det W| = product of the invariant factors 1^8, 2^6, 6, 2b
        w = walk_matrix(dgs16_graph())
        assert abs(determinant(w)) == 2**6 * 6 * 2 * B_FIXTURE

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant([[1, 2, 3], [4, 5, 6]])

    def test_matches_sympy_on_random_matrices(self):
        for i in range(25):
            m = _random_int_matrix(5, derive_seed(11, i))
            assert determinant(m) == sympy.Matrix(m).det()

    def test_sign_sensitivity(self):
        m = [[0, 1], [1, 0]]
        assert determinant(m) == -1


def _leading_minor(rows: list[list[int]], k: int) -> int:
    return sympy.Matrix([row[:k] for row in rows[:k]]).det()


class TestBareissTwoStep:
    """The two-step kernel against the one-step elimination in conftest:
    the same (rank, lead, trailing minors) on every input, and no Schur
    block kept at depth 0."""

    @staticmethod
    def _assert_agrees(rows: list[list[int]]) -> tuple[int, int, tuple[int, ...]]:
        expected = bareiss_one_step([list(row) for row in rows])
        assert _bareiss([list(row) for row in rows]) == (*expected, None), rows
        return expected

    def test_seeded_small_matrices(self):
        # 2,160 matrices, 80 of each order 0..8 in each of three kinds:
        # sparse (entries in -1..1, two in three 0), dense (-9..9) and
        # products A B through an inner dimension below n, so rank deficient
        deficient = 0
        for k in range(2160):
            n, kind = k % 9, k // 9 % 3
            gen = Xorshift64Star(derive_seed(167, k))
            if kind == 0:
                rows = [[(0, 0, 0, 0, 1, -1)[gen.next_u64() % 6] for _ in range(n)] for _ in range(n)]
            elif kind == 1:
                rows = [[gen.next_u64() % 19 - 9 for _ in range(n)] for _ in range(n)]
            else:
                r = gen.next_u64() % n if n else 0
                a = [[gen.next_u64() % 7 - 3 for _ in range(r)] for _ in range(n)]
                b = [[gen.next_u64() % 7 - 3 for _ in range(n)] for _ in range(r)]
                rows = [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
            rank = self._assert_agrees(rows)[0]
            if kind == 2 and n:
                assert rank < n
                deficient += 1
        assert deficient == 640

    def test_pool_walk_matrices(self):
        # the pool derivation of dgscert table1; n = 48 is snf_large's order
        for n in (20, 30, 48, 64):
            for k in range(2):
                self._assert_agrees(walk_matrix(random_graph(n, derive_seed(20211018, n, k))))

    def test_zero_leading_2x2_minor_takes_the_one_step_stage(self):
        # p1 = 0 at t = 0, so stage 0 is one-step: hand-built cases, one
        # with a zero first column (row swap) and one of rank 3, then
        # seeded ones whose second row starts with twice the first
        cases = [
            [[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]],
            [[0, 0, 1, 2], [0, 0, 3, 4], [1, 2, 0, 1], [5, 6, 1, 0]],
            [[2, 4, 1, 0, 3], [1, 2, 0, 1, 1], [0, 1, 3, 1, 2], [1, 0, 1, 2, 1], [3, 1, 0, 1, 2]],
            [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [1, 1, 1, 1, 1], [0, 1, 0, 1, 0], [1, 0, 0, 0, 1]],
        ]
        for k in range(24):
            n = 4 + k % 5
            rows = _random_int_matrix(n, derive_seed(173, k), -5, 5)
            rows[1][:2] = [2 * rows[0][0], 2 * rows[0][1]]
            cases.append(rows)
        # a walk matrix: columns 0 and 1 are the all-ones vector and the
        # degrees, so vertices 0 and 1 of equal degree make the minor 0
        pool = (random_graph(30, derive_seed(20211018, 30, k)) for k in range(100))
        cases.append(walk_matrix(next(g for g in pool if g.degree(0) == g.degree(1))))
        for rows in cases:
            assert _leading_minor(rows, 2) == 0, rows
            self._assert_agrees(rows)
        assert _bareiss(cases[0]) == (4, -1, (1, 0, 1, 1), None)
        assert self._assert_agrees(cases[3])[0] == 4

    def test_zero_leading_4x4_minor_takes_the_one_step_stage_at_t2(self):
        # a two-step pass at t = 0 (leading 2x2 minor 1), a pivot at t = 2
        # with no row swap (leading 3x3 minor 1), then p1 = 0 there with room
        # for another pass (n >= 6), so stage 2 is one-step
        for k in range(24):
            n = 6 + k % 3
            rows = _random_int_matrix(n, derive_seed(179, k), -5, 5)
            rows[0][:2], rows[1][:2] = [1, 0], [0, 1]
            rows[2][2] = 1 + rows[2][0] * rows[0][2] + rows[2][1] * rows[1][2]
            rows[3][:4] = [x + y - z for x, y, z in zip(rows[0], rows[1], rows[2][:4])]
            assert [_leading_minor(rows, m) for m in (2, 3, 4)] == [1, 1, 0], rows
            self._assert_agrees(rows)


class TestCharPolyInt:
    def test_empty_matrix(self):
        # det of the 0 x 0 matrix xI - A is 1, as determinant() already says
        assert char_poly_int([]) == (1,)

    def test_zero_matrix(self):
        assert char_poly_int([[0, 0], [0, 0]]) == (0, 0, 1)

    def test_k2(self, k2):
        assert char_poly_int(k2.adjacency()) == (-1, 0, 1)

    def test_p3(self, p3):
        # x^3 - 2x, from cofactor expansion of the 3x3 symbolic determinant
        assert char_poly_int(p3.adjacency()) == (0, -2, 0, 1)

    def test_evaluation_matches_determinant(self):
        # chi(x) = det(xI - A) checked against the independent Bareiss
        # determinant at n + 1 points, which pins a polynomial of degree n.
        # At n = 64 and at entries near 10**30 the modulus char_poly_int
        # lifts from lies above the deterministic Miller-Rabin range
        matrices = [_random_int_matrix(4, derive_seed(23, i), -3, 3) for i in range(10)]
        for n in (20, 30, 64):
            g = random_graph(n, derive_seed(20211018, n, 0))
            matrices += [g.adjacency(), g.complement().adjacency()]
        for i, n in enumerate((1, 2, 5, 8)):
            near = _random_int_matrix(n, derive_seed(24, i))
            matrices.append([[10**30 * (-1) ** (v % 2) + v for v in row] for row in near])
        for m in matrices:
            n = len(m)
            coeffs = char_poly_int(m)
            assert len(coeffs) == n + 1
            for x in range(-(n // 2), n - n // 2 + 1):
                shifted = [[x * (1 if r == c else 0) - m[r][c] for c in range(n)] for r in range(n)]
                assert sum(c * x**k for k, c in enumerate(coeffs)) == determinant(shifted)

    def test_matches_sympy(self):
        for i in range(10):
            m = _random_int_matrix(5, derive_seed(29, i))
            expected = sympy.Matrix(m).charpoly().all_coeffs()  # descending
            assert list(char_poly_int(m)) == list(reversed(expected))

    def test_constant_term_is_signed_determinant(self):
        for i in range(10):
            m = _random_int_matrix(4, derive_seed(31, i))
            assert char_poly_int(m)[0] == (-1) ** 4 * determinant(m)


class TestSmithNormalForm:
    def test_diag_2_3(self):
        assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)

    def test_identity(self):
        assert smith_normal_form(identity(4)).factors == (1, 1, 1, 1)

    def test_dgs16_fixture(self):
        snf = smith_normal_form(walk_matrix(dgs16_graph()))
        assert snf.factors == (1,) * 8 + (2,) * 6 + (6, 2 * B_FIXTURE)

    def test_mate9_fixture(self):
        snf = smith_normal_form(walk_matrix(mate9_graph()))
        assert snf.factors == (1, 1, 1, 1, 1, 2, 2, 30, 30)

    def test_matches_sympy_invariant_factors(self):
        from sympy.matrices.normalforms import invariant_factors

        for i in range(20):
            m = _random_int_matrix(4, derive_seed(37, i), -6, 6)
            expected = tuple(int(d) for d in invariant_factors(sympy.Matrix(m)))
            assert smith_normal_form(m).factors == expected

    def test_singular_matrix_has_trailing_zeros(self, k2):
        snf = smith_normal_form(walk_matrix(k2))
        assert snf.factors == (1, 0)

    def test_invariant_under_permutation_and_sign(self):
        gen = Xorshift64Star(41)
        for i in range(10):
            m = _random_int_matrix(4, derive_seed(43, i), -5, 5)
            perm = sorted(range(4), key=lambda _: gen.next_u64())
            signs = [1 if gen.next_bit() else -1 for _ in range(4)]
            scrambled = [[signs[r] * m[perm[r]][c] for c in range(4)] for r in range(4)]
            assert smith_normal_form(scrambled).factors == smith_normal_form(m).factors

    def test_product_equals_absolute_determinant(self, small_corpus):
        for g in small_corpus:
            w = walk_matrix(g)
            snf = smith_normal_form(w)
            assert snf.abs_det() == abs(determinant(w))

    def test_divisibility_chain(self, small_corpus):
        for g in small_corpus:
            factors = smith_normal_form(walk_matrix(g)).factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0 if a else b == 0

    def test_sign_times_product_is_determinant(self):
        for i in range(15):
            m = _random_int_matrix(4, derive_seed(47, i))
            snf = smith_normal_form(m)
            det = determinant(m)
            if det:
                assert snf.det_sign * snf.abs_det() == det


class TestSmithNormalFormDifferential:
    """The one modular elimination against sympy and against the reference
    elimination over Z in conftest."""

    @staticmethod
    def _over_z(m) -> tuple[tuple[int, ...], int]:
        return eliminate_over_z([list(row) for row in m])

    @staticmethod
    def _modulus_and_r(m) -> tuple[int, int]:
        # the modulus smith_normal_form takes: minors of the rows in odd order
        rows = [list(row) for row in m]
        _odd_leading_order(rows)
        _, det, minors, _ = _bareiss(rows)
        return gcd(det, *minors), prod(eliminate_over_z([list(row) for row in m])[0][:-1])

    def test_sympy_oracle_singular_and_tiny_orders(self):
        from sympy.matrices.normalforms import invariant_factors

        cases = [
            [],
            [[0]],
            [[-3]],
            [[7]],
            [[0, 0], [0, 0]],
            [[2, 4], [1, 2]],
            [[0, 1], [1, 0]],
            [[4, 6], [6, 4]],
            [[2, 0, 0], [0, 0, 0], [0, 0, 4]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        ]
        for i in range(20):
            cases.append(_random_int_matrix(2, derive_seed(79, i), -6, 6))
        for rows in cases:
            expected = tuple(int(d) for d in invariant_factors(sympy.Matrix(rows)))
            snf = smith_normal_form(rows)
            assert snf.factors == expected, rows
            if determinant(rows):
                assert snf.det_sign * snf.abs_det() == determinant(rows), rows

    def test_singular_inputs_match_the_reference_and_sympy(self):
        # rank-deficient products A B (inner dimension below n), the walk
        # matrices of K_2, of the cycles (regular, so W has rank 1) and of
        # the golden corpus's two NOT_CONTROLLABLE graphs (n = 10, k = 0 and 3)
        from sympy.matrices.normalforms import invariant_factors

        cases = []
        for k in range(60):
            n = 2 + k % 6
            gen = Xorshift64Star(derive_seed(97, k))
            r = gen.next_u64() % n
            a = [[gen.next_u64() % 11 - 5 for _ in range(r)] for _ in range(n)]
            b = [[gen.next_u64() % 11 - 5 for _ in range(n)] for _ in range(r)]
            product = [[sum(a[i][t] * b[t][j] for t in range(r)) for j in range(n)] for i in range(n)]
            cases.append(product)
        graphs = [Graph.from_edges(2, [(0, 1)])]
        graphs += [Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 21)]
        graphs += [random_graph(10, derive_seed(20211018, 10, k)) for k in (0, 3)]
        cases += [walk_matrix(g) for g in graphs]
        for m in cases:
            assert determinant(m) == 0
            snf = smith_normal_form(m)
            assert snf.factors == self._over_z(m)[0]
            assert snf.factors == tuple(int(d) for d in invariant_factors(sympy.Matrix(m)))
            assert snf.det_sign == 0
        assert smith_normal_form(cases[-1]).factors == (1, 1, 1, 1, 2, 2, 2, 2, 2766, 0)

    def test_understated_rank_is_caught(self, monkeypatch):
        import dgscert.zlinalg as mod

        bareiss = mod._bareiss

        def understated(rows, depth=0):
            rank, lead, minors, schur = bareiss(rows, depth)
            return rank - 1, lead, minors, schur

        # rank 2, lead 4: over Z/4 the factors read (2, 2, 4), so a claimed
        # rank of 1 leaves a factor 2 where M = 4 must stand
        m = [[2, 0, 0], [0, 2, 0], [0, 0, 0]]
        assert smith_normal_form(m).factors == (2, 2, 0)
        monkeypatch.setattr(mod, "_bareiss", understated)
        with pytest.raises(InvariantViolation):
            smith_normal_form(m)

    def test_walk_matrices_match_over_z(self):
        # n = 48 is the order of the benchmark's snf_large workload
        for n in [*range(4, 41), 48]:
            w = walk_matrix(random_graph(n, derive_seed(83, n)))
            snf = smith_normal_form(w)
            factors, sign = self._over_z(w)
            # the reference's sign is a swap parity when W is singular
            assert (snf.factors, snf.det_sign) == (factors, sign if snf.dn else 0), n
            assert snf.det_sign * snf.abs_det() == determinant(w)

    def test_modulus_above_r(self):
        # the trailing minors share the factor 3 with det, d_1 d_2 does not
        m = [[-3, 1, 4], [-3, -3, 1], [-3, -2, -2]]
        assert self._modulus_and_r(m) == (3, 1)
        snf = smith_normal_form(m)
        assert snf.factors == (1, 1, 45) and snf.det_sign * snf.abs_det() == determinant(m)

    def test_random_matrices_with_modulus_above_r(self):
        from sympy.matrices.normalforms import invariant_factors

        above = 0
        for i in range(40):
            m = _random_int_matrix(3 + i % 4, derive_seed(73, i), -4, 4)
            det = determinant(m)
            if det == 0:
                continue
            modulus, r = self._modulus_and_r(m)
            above += modulus > r
            snf = smith_normal_form(m)
            assert (snf.factors, snf.det_sign) == self._over_z(m)
            assert snf.factors == tuple(int(d) for d in invariant_factors(sympy.Matrix(m)))
            assert snf.det_sign * snf.abs_det() == det
        assert above >= 10

    def test_modular_elimination_yields_gcd_with_modulus(self):
        m = [[2, 0, 0], [0, 6, 0], [0, 0, 36]]
        for modulus in (1, 2, 4, 9, 12, 72):
            rows = [[v % modulus for v in row] for row in m]
            factors = _eliminate(rows, modulus)
            assert factors == tuple(gcd(d, modulus) for d in (2, 6, 36)), modulus

    def test_modular_elimination_unit_and_fallback_stages(self):
        # A stage with a unit mod M (some entry coprime to M) pivots on it
        # at once; a block without one first has its gcd with M divided
        # out, or M split into coprime parts, until it holds a unit.  The
        # first two inputs have no unit at all (one of them still has gcd 1
        # with M).  Among the random ones, any factor above 1 came from a
        # block that held no unit, and any input with a unit entry opened
        # with a unit stage; both must occur.
        from sympy.matrices.normalforms import invariant_factors

        cases = [([[2, 3], [3, 4]], 6), ([[2, 3, 0], [3, 4, 6], [0, 6, 8]], 12)]
        for i in range(30):
            m = _random_int_matrix(4 + i % 3, derive_seed(89, i))
            cases.append((m, (6, 12, 30, 36, 60, 210)[i % 6]))
        unit_stages = fallback_stages = 0
        for rows, modulus in cases:
            reduced = [[v % modulus for v in row] for row in rows]
            factors = _eliminate([row[:] for row in reduced], modulus)
            expected = tuple(gcd(int(d), modulus) for d in invariant_factors(sympy.Matrix(rows)))
            assert factors == expected, (rows, modulus)
            unit_stages += any(gcd(v, modulus) == 1 for row in reduced for v in row)
            fallback_stages += any(d > 1 for d in factors)
        assert unit_stages >= 10 and fallback_stages >= 10

    def test_modular_elimination_splits_multi_prime_moduli(self, monkeypatch):
        # Blocks with no unit mod M: every entry is a multiple of a prime of
        # M.  A block whose gcd with M is 1 is eliminated mod the two coprime
        # parts of M; with three or more primes a part can again hold no
        # unit and split once more.  The call depth counts the nesting.
        import dgscert.zlinalg as mod
        from sympy.matrices.normalforms import invariant_factors

        eliminate = mod._eliminate
        depth = deepest = 0

        def tracked(a, modulus):
            nonlocal depth, deepest
            depth += 1
            deepest = max(deepest, depth)
            try:
                return eliminate(a, modulus)
            finally:
                depth -= 1

        monkeypatch.setattr(mod, "_eliminate", tracked)
        # 30 splits at 6 into 6 * 5, and [[0, 4], [3, 0]] mod 6 splits again
        cases = [([[6, 10], [15, 6]], 30)]
        # 3 to 6 distinct primes, then prime powers, where a common factor
        # divided out of the block leaves the prime in M
        moduli = (30, 210, 2310, 30030, 2**3 * 3**2 * 5 * 7, 3**3 * 5**2 * 7 * 11)
        gen = Xorshift64Star(101)
        for modulus in moduli:
            primes = [p for p in (2, 3, 5, 7, 11, 13) if modulus % p == 0]
            for k in range(12):
                n = 2 + gen.next_u64() % 4
                # every third block shares one prime of M in all its entries
                scale = primes[k // 3 % len(primes)] if k % 3 == 0 else 1
                pick = [scale * primes[gen.next_u64() % len(primes)] for _ in range(n * n)]
                rows = [[pick[i * n + j] * gen.next_u64() % modulus for j in range(n)] for i in range(n)]
                cases.append((rows, modulus))
        splits = nested = 0
        for rows, modulus in cases:
            deepest = 0
            factors = mod._eliminate([row[:] for row in rows], modulus)
            splits += deepest >= 2
            nested += deepest >= 3
            expected = tuple(gcd(int(d), modulus) for d in invariant_factors(sympy.Matrix(rows)))
            assert factors == expected == eliminate_over_z([row[:] for row in rows], modulus)[0], (rows, modulus)
        assert splits >= 10 and nested >= 3

    def test_failed_split_is_an_invariant_violation(self, monkeypatch):
        import dgscert.zlinalg as mod

        # [[2, 3], [3, 4]] mod 6 has no unit and gcd 1 with 6, so only a split can go on
        monkeypatch.setattr(mod, "_coprime_split", lambda modulus, v: (modulus, 1))
        with pytest.raises(InvariantViolation, match="no active entry splits the modulus 6"):
            _eliminate([[2, 3], [3, 4]], 6)

    def test_determinant_disagreeing_with_the_factors_is_caught(self, monkeypatch):
        import dgscert.zlinalg as mod

        bareiss = mod._bareiss

        def doubled(rows, depth=0):
            rank, det, minors, schur = bareiss(rows, depth)
            return rank, 2 * det, minors, schur

        monkeypatch.setattr(mod, "_bareiss", doubled)
        with pytest.raises(InvariantViolation):
            smith_normal_form(walk_matrix(mate9_graph()))

    def test_bareiss_trailing_minors(self):
        rank, det, minors, _ = _bareiss([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
        # minors on rows {0, i} and columns {0, j}, i, j in {1, 2}
        assert rank == 3 and det == 18 and minors == (5, 2, 2, 8)
        assert _bareiss([[3, 4], [5, 6]]) == (2, -2, (3, 4, 5, 6), None)
        assert _bareiss([[7]]) == (1, 7, (), None)
        assert _bareiss([]) == (0, 1, (), None)

    def test_bareiss_rank_with_column_swaps(self):
        # each pivot column runs out of nonzero entries below the diagonal
        # before the rank does, so a later column must be swapped in
        cases = [
            [[0, 1], [0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
        ]
        for rows in cases:
            rank, lead = _bareiss([row[:] for row in rows])[:2]
            assert rank == sympy.Matrix(rows).rank(), rows
            # lead is, up to sign, a nonzero rank x rank minor
            assert lead != 0 and abs(lead) in {
                abs(sympy.Matrix(rows).extract(r, c).det())
                for r in combinations(range(len(rows)), rank)
                for c in combinations(range(len(rows)), rank)
            }, rows
        assert _bareiss([[0, 1], [0, 0]])[:2] == (1, -1)


class TestSchurStart:
    """smith_normal_form orders the rows so that Delta_1 ... Delta_r are odd
    (r = rank_2 W for a walk matrix), keeps the Bareiss active block B_t at
    the deepest stage t <= min(r, n-2), and, when gcd(Delta_t, M) = 1,
    eliminates only B_t over Z/M after t unit factors; otherwise the whole
    matrix (t = 0)."""

    POOL = 20211018

    @staticmethod
    def _rank_mod_2(rows) -> int:
        return len(_rref([[v % 2 for v in row] for row in rows], 2)[1])

    @staticmethod
    def _eliminated_sizes(monkeypatch) -> list[int]:
        # orders of the matrices _eliminate is called on, outermost first
        eliminate = zlinalg._eliminate
        sizes: list[int] = []

        def recording(a, modulus):
            sizes.append(len(a))
            return eliminate(a, modulus)

        monkeypatch.setattr(zlinalg, "_eliminate", recording)
        return sizes

    @staticmethod
    def _schur_start(m) -> tuple[int, int, int]:
        """(r, t, gcd(Delta_t, M)) as smith_normal_form sees them; t = 0
        when no stage was kept."""
        rows = [list(row) for row in m]
        n = len(rows)
        r, _ = _odd_leading_order(rows)
        rank, lead, minors, schur = _bareiss(rows, min(r, n - 2))
        modulus = gcd(lead, *minors) if rank == n else abs(lead)
        t, delta, _ = schur or (0, 1, None)
        return r, t, gcd(delta, modulus)

    def _assert_matches_reference(self, m, sizes: list[int], mod_det: bool = False) -> int:
        """Compare with the elimination over Z (and sympy below order 7);
        return the order of the block eliminated mod M.  With ``mod_det``
        the elimination runs modulo |det m| from the one-step Bareiss
        oracle: for a nonsingular matrix gcd(d_i, |det|) = d_i."""
        from sympy.matrices.normalforms import invariant_factors

        sizes.clear()
        snf = smith_normal_form(m)
        det = determinant(m)
        if mod_det:
            rank, lead, _ = bareiss_one_step([list(row) for row in m])
            assert rank == len(m) and lead == det, m
            factors, _ = eliminate_over_z([[v % abs(lead) for v in row] for row in m], abs(lead))
            sign = 1 if lead > 0 else -1
        else:
            factors, sign = eliminate_over_z([list(row) for row in m])
        assert snf.factors == factors, m
        assert snf.det_sign * snf.abs_det() == det, m
        assert snf.det_sign == (sign if det else 0), m
        if len(m) < 7:
            assert snf.factors == tuple(int(d) for d in invariant_factors(sympy.Matrix(m))), m
        r, t, shared = self._schur_start(m)
        size = sizes[0] if sizes else 0
        # the block is the Schur complement of the kept stage, or everything
        assert size == (len(m) - t if t and shared == 1 else len(m)), (m, r, t, size)
        return size

    def test_odd_leading_order(self):
        cases = []
        for k in range(240):
            n, kind = k % 9, k // 9 % 3
            gen = Xorshift64Star(derive_seed(191, k))
            pick = ((0, 0, 0, 1, -1, 2), tuple(range(-9, 10)), (0, 2, -2, 4, 1))[kind]
            cases.append([[pick[gen.next_u64() % len(pick)] for _ in range(n)] for _ in range(n)])
        walks = [walk_matrix(random_graph(n, derive_seed(self.POOL, n, k))) for n in (10, 20, 30) for k in range(4)]
        signs = set()
        for m in cases + walks:
            n = len(m)
            rows = [list(row) for row in m]
            r, sign = _odd_leading_order(rows)
            signs.add(sign)
            assert sorted(rows) == sorted(list(row) for row in m), m
            assert determinant(rows) == sign * determinant(m), m
            assert all(determinant([row[:t] for row in rows[:t]]) % 2 for t in range(1, r + 1)), m
            # no order makes Delta_(r+1) odd: column r depends on the columns before it mod 2
            assert r == n or self._rank_mod_2([row[: r + 1] for row in rows]) == r, m
        for w in walks:
            assert _odd_leading_order([list(row) for row in w])[0] == self._rank_mod_2(w)
        assert signs == {1, -1}

    def test_bareiss_keeps_the_active_block_of_the_deepest_stage(self):
        # block = Delta_t * S: each entry is the minor on rows 0..t-1, t+i
        # and columns 0..t-1, t+j; t is the deepest stage up to depth that a
        # two-step pass does not step over.  The copy follows the swaps of
        # stage t itself, which only a stage t = r with Delta_(t+1) = 0
        # makes; they permute the rows and columns of the block
        def minor(rows, t, i=None, j=None):
            keep_r = list(range(t)) + ([i] if i is not None else [])
            keep_c = list(range(t)) + ([j] if j is not None else [])
            return determinant([[rows[a][b] for b in keep_c] for a in keep_r])

        kept = skipped = swapped = 0
        for k in range(60):
            n = 3 + k % 6
            rows = _random_int_matrix(n, derive_seed(193, k), -4, 4)
            r, _ = _odd_leading_order(rows)
            for depth in range(0, r + 1):
                rank, lead, minors, schur = _bareiss([row[:] for row in rows], depth)
                assert (rank, lead, minors) == bareiss_one_step([row[:] for row in rows])
                stages, s = [], 0
                while s <= depth and s < n:
                    stages.append(s)
                    s += 2 if s + 3 < n and minor(rows, s + 2) else 1
                visited = [s for s in stages if 0 < s <= depth]
                if not visited:
                    assert schur is None, (rows, depth)
                    continue
                t, prev, block = schur
                assert t == visited[-1], (rows, depth)
                assert prev == minor(rows, t)
                expected = [[minor(rows, t, i, j) for j in range(t, n)] for i in range(t, n)]
                if t < r or minor(rows, t + 1):
                    assert block == expected, (rows, depth)
                else:
                    assert sorted(sum(block, [])) == sorted(sum(expected, [])), (rows, depth)
                    swapped += block != expected
                kept += 1
                skipped += t < depth
        assert kept >= 100 and skipped >= 10 and swapped >= 1

    def test_all_even_matrix_eliminates_everything(self, monkeypatch):
        sizes = self._eliminated_sizes(monkeypatch)
        for k in range(12):
            n = 1 + k % 6
            m = [[2 * v for v in row] for row in _random_int_matrix(n, derive_seed(197, k), -3, 3)]
            assert self._schur_start(m)[:2] == (0, 0)
            assert self._assert_matches_reference(m, sizes) == n

    def test_odd_determinant(self, monkeypatch):
        # r = n, capped at n - 2: Delta_(n-1) is one of the minors M divides
        sizes = self._eliminated_sizes(monkeypatch)
        seen = set()
        for k in range(200):
            n = 1 + k % 7
            m = _random_int_matrix(n, derive_seed(199, k), -5, 5)
            if determinant(m) % 2 == 0:
                continue
            r, t, _ = self._schur_start(m)
            assert r == n and t <= max(n - 2, 0)
            seen.add((n, self._assert_matches_reference(m, sizes)))
        assert {(1, 1), (2, 2)} <= seen and {(n, 2) for n in range(3, 8)} <= seen
        assert any(n == size > 2 for n, size in seen)

    def test_odd_prime_of_the_modulus_dividing_delta_falls_back(self, monkeypatch):
        # n = 20 pool graphs where 3 divides both Delta_t and M
        sizes = self._eliminated_sizes(monkeypatch)
        for k in (2, 24, 29, 58, 59):
            w = walk_matrix(random_graph(20, derive_seed(self.POOL, 20, k)))
            r, t, shared = self._schur_start(w)
            assert t >= 8 and shared % 3 == 0, k
            assert self._assert_matches_reference(w, sizes) == 20

    def test_odd_row_permutation(self, monkeypatch):
        sizes = self._eliminated_sizes(monkeypatch)
        odd = 0
        cases = [walk_matrix(random_graph(20, derive_seed(self.POOL, 20, k))) for k in range(12)]
        cases += [_random_int_matrix(3 + k % 5, derive_seed(211, k), -6, 6) for k in range(24)]
        for m in cases:
            odd += _odd_leading_order([list(row) for row in m])[1] == -1
            self._assert_matches_reference(m, sizes)
        assert odd >= 10

    def test_rank_deficient(self, monkeypatch):
        # products A B through an inner dimension below n, and the walk
        # matrices of the golden corpus's NOT_CONTROLLABLE graphs
        sizes = self._eliminated_sizes(monkeypatch)
        cases = []
        for k in range(40):
            n = 3 + k % 6
            gen = Xorshift64Star(derive_seed(223, k))
            inner = 1 + gen.next_u64() % (n - 1)
            a = [[gen.next_u64() % 7 - 3 for _ in range(inner)] for _ in range(n)]
            b = [[gen.next_u64() % 7 - 3 for _ in range(n)] for _ in range(inner)]
            cases.append([[sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(n)] for i in range(n)])
        cases += [walk_matrix(random_graph(10, derive_seed(self.POOL, 10, k))) for k in (0, 3)]
        # where r reaches the rank k, the deepest stage t = k has Delta_k = M
        # or an all-zero block, so most of these fall back to t = 0
        schur = 0
        for m in cases:
            assert determinant(m) == 0
            schur += self._assert_matches_reference(m, sizes) < len(m)
        assert schur >= 4

    def test_walk_matrices_at_56_and_64(self, monkeypatch):
        sizes = self._eliminated_sizes(monkeypatch)
        for n in (56, 64):
            w = walk_matrix(random_graph(n, derive_seed(self.POOL, n, 0)))
            assert self._assert_matches_reference(w, sizes, mod_det=True) <= n - n // 2 + 2

    def test_schur_start_is_taken_on_most_n48_pool_walk_matrices(self, monkeypatch):
        # no timing: the order of the block eliminated mod M.  Of the 12
        # snf_large pool graphs, 9 start at t = 22 or 24, and 3 (where 3 or
        # 5 divides both Delta_24 and M) fall back to the whole matrix
        sizes = self._eliminated_sizes(monkeypatch)
        blocks = []
        for k in range(12):
            w = walk_matrix(random_graph(48, derive_seed(self.POOL, 48, k)))
            sizes.clear()
            smith_normal_form(w)
            blocks.append(sizes[0])
        assert sum(size <= 26 for size in blocks) >= 9, blocks
        assert all(size <= 26 or size == 48 for size in blocks), blocks

    # mutations of the Schur start: each must raise or disagree with the
    # reference

    @staticmethod
    def _caught(m) -> bool:
        try:
            snf = smith_normal_form(m)
        except InvariantViolation:
            return True
        det = determinant(m)
        return snf.factors != eliminate_over_z([list(row) for row in m])[0] or snf.det_sign * snf.abs_det() != det

    def _mutate_schur(self, monkeypatch, mutate) -> None:
        bareiss = zlinalg._bareiss

        def mutated(rows, depth=0):
            rank, lead, minors, schur = bareiss(rows, depth)
            return rank, lead, minors, schur and mutate(*schur)

        monkeypatch.setattr(zlinalg, "_bareiss", mutated)

    def test_schur_block_scaled_by_a_non_unit_is_caught(self, monkeypatch):
        # B_t times a unit mod M has the Smith form of S over Z/M, which is
        # why no inverse of Delta_t is applied; a wrong "inverse" that is
        # not a unit (2 divides M for every walk matrix here) must show
        graphs = [k for k in range(12) if k != 2]  # k = 2 falls back to t = 0
        ws = [walk_matrix(random_graph(20, derive_seed(self.POOL, 20, k))) for k in graphs]
        self._mutate_schur(monkeypatch, lambda t, delta, block: (t, delta, [[2 * v for v in row] for row in block]))
        assert all(self._caught(w) for w in ws)

    def test_block_taken_where_delta_shares_a_prime_with_the_modulus_is_caught(self, monkeypatch):
        # reporting Delta_t = 1 skips the gcd(Delta_t, M) = 1 test
        ws = [walk_matrix(random_graph(20, derive_seed(self.POOL, 20, k))) for k in (2, 24, 29, 58, 59)]
        self._mutate_schur(monkeypatch, lambda t, delta, block: (t, 1, block))
        assert all(self._caught(w) for w in ws)

    def test_dropped_order_sign_is_caught(self, monkeypatch):
        ws = [walk_matrix(random_graph(20, derive_seed(self.POOL, 20, k))) for k in range(12)]
        odd = [w for w in ws if _odd_leading_order([list(row) for row in w])[1] == -1]
        order = zlinalg._odd_leading_order
        monkeypatch.setattr(zlinalg, "_odd_leading_order", lambda rows: (order(rows)[0], 1))
        assert len(odd) >= 5 and all(self._caught(w) for w in odd)


class TestWalkMatrixTheorems:
    def test_two_adic_bound_and_2mod4_count(self):
        # quick version of the corpus invariants; the acceptance suite
        # runs the full-size variant
        for g in seeded_corpus(30, 10, 18, seed=0xA11CE):
            w = walk_matrix(g)
            det = determinant(w)
            half = g.n // 2
            assert det % 2**half == 0
            count = sum(1 for d in smith_normal_form(w).factors if d % 4 == 2)
            assert count <= half


class TestRationalSolve:
    def test_identity(self):
        b = [[3, 1], [4, 1]]
        assert rational_solve(identity(2), b) == [
            [Fraction(3), Fraction(1)],
            [Fraction(4), Fraction(1)],
        ]

    def test_diagonal_halving(self):
        x = rational_solve([[2, 0], [0, 2]], identity(2))
        assert x == [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1, 2)]]

    def test_multiply_back(self):
        for i in range(10):
            m = _random_int_matrix(4, derive_seed(67, i))
            if determinant(m) == 0:
                continue
            b = _random_int_matrix(4, derive_seed(71, i))
            x = rational_solve(m, b)
            for r in range(4):
                for c in range(4):
                    assert sum(m[r][k] * x[k][c] for k in range(4)) == b[r][c]

    def test_singular_rejected(self, k2):
        with pytest.raises(ValueError, match="singular"):
            rational_solve(walk_matrix(k2), identity(2))


# the five entry points that take a square matrix, each on one argument
ENTRY_POINTS = {
    "determinant": determinant,
    "char_poly_int": char_poly_int,
    "char_poly_mod_p": lambda m: char_poly_mod_p(m, 5),
    "smith_normal_form": smith_normal_form,
    "rational_solve": lambda m: rational_solve(m, identity(2)),
}
BAD_SHAPES = {"ragged": [[1, 2], [3]], "wide": [[1, 2, 3], [4, 5, 6]], "tall": [[1, 2], [3, 4], [5, 6]]}
BAD_RIGHT_HAND_SIDES = {"short": [[1]], "tall": [[1], [2], [3]], "ragged": [[1, 2], [3]]}


class TestMatrixArguments:
    """Matrices are sequences of integer rows; every entry point copies its
    argument and rejects anything but a square matrix."""

    @pytest.mark.parametrize(
        "call, args, message",
        [
            pytest.param(f, (m,), "non-square", id=f"{name}-{shape}")
            for name, f in ENTRY_POINTS.items()
            for shape, m in BAD_SHAPES.items()
        ]
        + [
            pytest.param(rational_solve, (identity(2), b), "right-hand side", id=f"rational_solve-rhs-{shape}")
            for shape, b in BAD_RIGHT_HAND_SIDES.items()
        ],
    )
    def test_shape_errors(self, call, args, message):
        with pytest.raises(ValueError, match=message):
            call(*args)

    def test_empty_matrix(self):
        assert determinant([]) == 1
        assert char_poly_int([]) == (1,)
        assert char_poly_mod_p([], 5) == ModPoly.one(5)
        snf = smith_normal_form([])
        assert (snf.factors, snf.det_sign) == ((), 1)
        assert rational_solve([], []) == []

    def test_arguments_are_not_mutated(self, k2):
        # determinant then smith_normal_form on one list of lists is the
        # benchmark's snf_large sequence; a kernel that eliminated in the
        # caller's rows would change w and the second result.  The entries
        # of a are -1 and 2, so reducing them mod 5 in place would show too
        graphs = [k2, mate9_graph(), dgs16_graph(), random_graph(48, derive_seed(20211018, 48, 0))]
        for g in graphs:
            fresh = walk_matrix(g)
            w = [list(row) for row in fresh]
            det, snf = determinant(w), smith_normal_form(w)
            assert w == [list(row) for row in fresh]
            assert (det, snf) == (determinant(fresh), smith_normal_form(fresh))
            fresh = tuple(tuple(3 * v - 1 for v in row) for row in g.adjacency())
            a = [list(row) for row in fresh]
            chi, chi_5 = char_poly_int(a), char_poly_mod_p(a, 5)
            assert a == [list(row) for row in fresh]
            assert (chi, chi_5) == (char_poly_int(fresh), char_poly_mod_p(fresh, 5))
        m, b = [[2, 1], [1, 3]], [[1, 0], [0, 1]]
        x = rational_solve(m, b)
        assert (m, b) == ([[2, 1], [1, 3]], [[1, 0], [0, 1]])
        assert x == rational_solve(((2, 1), (1, 3)), ((1, 0), (0, 1)))
        assert x == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]


def test_doctests():
    import doctest

    import conftest
    import dgscert.certify
    import dgscert.fpalg
    import dgscert.specinv
    import dgscert.zlinalg

    results = doctest.testmod(dgscert.zlinalg)
    # _bareiss carries two examples (one keeps a Schur block, one takes the
    # one-step stage), _odd_leading_order three (the call, then the rows it
    # reordered), _charpoly_hessenberg three (its polys list, then H left
    # in its argument), char_poly_int, _coprime_split and _eliminate one
    # each
    assert results.failed == 0 and results.attempted >= 11
    results = doctest.testmod(dgscert.fpalg)
    # format_poly carries one
    assert results.failed == 0 and results.attempted >= 1
    results = doctest.testmod(dgscert.certify)
    # _check_schema carries one
    assert results.failed == 0 and results.attempted >= 1
    results = doctest.testmod(dgscert.specinv)
    # _hessenberg_at_e carries one
    assert results.failed == 0 and results.attempted >= 1
    results = doctest.testmod(conftest)
    # the test oracles bareiss_one_step and eliminate_over_z carry one each
    assert results.failed == 0 and results.attempted >= 2
