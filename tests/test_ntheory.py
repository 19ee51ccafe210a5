import functools
from math import gcd, isqrt, prod

import pytest
import sympy

from dgscert import ntheory
from dgscert.graphcore import Xorshift64Star
from dgscert.ntheory import (
    _RHO_BUDGET,
    _TRIAL_BLOCK,
    _TRIAL_LIMIT,
    _brent_rho,
    _small_primes,
    FactorizationResult,
    factor_integer,
    is_prime,
)

B_FIXTURE = 3 * 23 * 29 * 1225550789 * 6442787651


class TestFactorInteger:
    def test_thirty(self):
        fr = factor_integer(30)
        assert fr.prime_powers == ((2, 1), (3, 1), (5, 1))
        assert fr.is_complete and fr.cofactor == 1

    def test_one(self):
        fr = factor_integer(1)
        assert fr.prime_powers == () and fr.cofactor == 1 and fr.is_complete

    def test_fixture_b_completes_at_default_effort(self):
        fr = factor_integer(B_FIXTURE)
        assert fr.is_complete
        assert fr.prime_powers == ((3, 1), (23, 1), (29, 1), (1225550789, 1), (6442787651, 1))
        assert fr.squarefree() is True

    def test_fixture_b_incomplete_at_low_effort(self):
        fr = factor_integer(B_FIXTURE, effort="low")
        assert not fr.is_complete
        assert fr.cofactor == 1225550789 * 6442787651
        assert fr.squarefree() is None

    def test_partial_with_repeated_prime_is_not_squarefree(self):
        fr = factor_integer(4 * 1225550789 * 6442787651, effort="low")
        assert not fr.is_complete
        assert fr.squarefree() is False

    def test_prime_powers_reconstruct_input(self):
        gen = Xorshift64Star(53)
        for _ in range(40):
            n = gen.next_u64() % 10**12 + 1
            fr = factor_integer(n)
            assert fr.value() == n
            assert all(is_prime(p) for p in fr.primes())

    def test_perfect_power(self):
        fr = factor_integer(10403**2)  # (101*103)^2
        assert fr.prime_powers == ((101, 2), (103, 2))

    @staticmethod
    def _count_rho(monkeypatch) -> list[int]:
        calls = []

        def counting(n, c, budget):
            calls.append(n)
            return _brent_rho(n, c, budget)

        monkeypatch.setattr(ntheory, "_brent_rho", counting)
        return calls

    def test_perfect_power_root_factored_once(self, monkeypatch):
        # r**2 with r a product of two 40-bit primes: a 64-pair cap cannot
        # split r, and the one run on r stands for both copies
        r = 549755826239 * 1099511529101
        monkeypatch.setitem(_RHO_BUDGET, "default", 64)
        calls = self._count_rho(monkeypatch)
        assert factor_integer(r**2) == FactorizationResult((), r**2, ((r, 2),))
        assert calls == [r]
        assert factor_integer(r**3) == FactorizationResult((), r**3, ((r, 3),))
        assert factor_integer(r**2).squarefree() is False

    def test_unfactored_parts_keep_their_multiplicity(self, monkeypatch):
        # a known square reads "not square-free" whether its root is a
        # prime or a composite that rho cannot split; one unsplit composite
        # alone leaves the question open
        r = 549755826239 * 1099511529101
        monkeypatch.setitem(_RHO_BUDGET, "default", 64)
        cases = {
            r: (FactorizationResult((), r, ((r, 1),)), None),
            9 * r: (FactorizationResult(((3, 2),), r, ((r, 1),)), False),
            10 * r**2: (FactorizationResult(((2, 1), (5, 1)), r**2, ((r, 2),)), False),
        }
        for n, (expected, squarefree) in cases.items():
            fr = factor_integer(n)
            assert fr == expected and fr.value() == n
            assert fr.squarefree() is squarefree and not fr.is_complete

    def test_perfect_power_root_split_once(self, monkeypatch):
        r = 1225550789 * 6442787651
        calls = self._count_rho(monkeypatch)
        fr = factor_integer(r**2)
        assert fr.prime_powers == ((1225550789, 2), (6442787651, 2)) and fr.is_complete
        assert calls == [r]

    def test_matches_sympy(self):
        gen = Xorshift64Star(59)
        for _ in range(15):
            n = gen.next_u64() % 10**9 + 2
            assert dict(factor_integer(n).prime_powers) == sympy.factorint(n)

    def test_deterministic(self):
        n = 2**35 * 3 * (10**9 + 7) * (10**9 + 9)
        assert factor_integer(n) == factor_integer(n)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_integer(0)

    def test_unknown_effort_rejected(self):
        with pytest.raises(ValueError):
            factor_integer(10, effort="turbo")


@functools.cache
def _plain_primes() -> list[int]:
    sieve = bytearray([1]) * _TRIAL_LIMIT
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(_TRIAL_LIMIT) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, _TRIAL_LIMIT, p)))
    return [p for p in range(_TRIAL_LIMIT) if sieve[p]]


def _plain_trial_division(n: int) -> tuple[dict[int, int], int]:
    """Per-prime trial division below the bound: (small prime powers, rest)."""
    powers = {}
    for p in _plain_primes():
        if p * p > n:
            break
        while n % p == 0:
            powers[p] = powers.get(p, 0) + 1
            n //= p
    if 1 < n < _TRIAL_LIMIT:  # the loop stopped early on a prime below the bound
        powers[n] = 1
        n = 1
    return powers, n


class TestBlockTrialDivision:
    """Trial division by blocks of primes against a per-prime loop."""

    def test_prime_table(self):
        primes, blocks = _small_primes()
        plain = _plain_primes()
        assert len(primes) == 78498 and primes[-1] == 999983
        assert list(primes) == plain
        assert blocks == [prod(plain[i : i + _TRIAL_BLOCK]) for i in range(0, len(plain), _TRIAL_BLOCK)]

    @staticmethod
    def _check(n):
        small, rest = _plain_trial_division(n)
        fr = factor_integer(n, effort="low")
        assert {p: e for p, e in fr.prime_powers if p < _TRIAL_LIMIT} == small
        assert fr.value() == n
        assert prod(p**e for p, e in fr.prime_powers if p >= _TRIAL_LIMIT) * fr.cofactor == rest

    def test_edges(self):
        primes, _ = _small_primes()
        cases = [1, 2, 999983, 1000003, 999983**2, 999983 * 1000003]
        for b in (1, 2, 150, 306):
            last, first = primes[b * _TRIAL_BLOCK - 1], primes[b * _TRIAL_BLOCK]
            cases += [last * first, last**2 * first**3 * (10**9 + 7)]
        cases += [10**12 + d for d in range(-12, 13)]
        cases += [(2 * 3 * 5) ** 40, 2**100 * 3**60 * 5**30 * 999983]
        for n in cases:
            self._check(n)

    def test_seeded_values(self):
        gen = Xorshift64Star(61)
        for i in range(37):
            bits = 20 + 5 * i
            n = 1
            while n.bit_length() < bits:
                n = n << 64 | gen.next_u64()
            self._check(n >> (n.bit_length() - bits))


def _brent_rho_with_partial_rounds(n: int, c: int, budget: int) -> tuple[int | None, int]:
    """The earlier ``_brent_rho``, kept as an oracle: it clamps the comparisons
    of the last round to the budget but still runs that round's advance."""
    y, r, q = 2, 1, 1
    g = 1
    used = 0
    x = ys = y
    while g == 1 and used < budget:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1 and used < budget:
            ys = y
            span = min(256, r - k, budget - used)
            for _ in range(span):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += span
            used += span
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    if 1 < g < n:
        return g, used
    return None, used


def _seeded_prime(gen: Xorshift64Star, bits: int) -> int:
    """The least prime above a seeded odd number of the given bit length,
    when that prime keeps the length (else a fresh draw)."""
    while True:
        x = gen.next_u64() >> (64 - bits) | 1 << (bits - 1) | 1
        while not is_prime(x):
            x += 2
        if x.bit_length() == bits:
            return x


class _CountingModulus(int):
    """An int that counts the reductions ``a % self`` made with it."""

    reductions = 0

    def __rmod__(self, other):
        _CountingModulus.reductions += 1
        return int.__rmod__(self, other)


# the rho-capped cofactor of the n = 20 pool graph k = 67: a 62-bit prime times
# a 77-bit prime, out of reach of any budget below
K67_COFACTOR = 404421322713090460612793093393850515637787


class TestBrentRhoBudget:
    """Rho runs only the Brent rounds whose comparisons all fit the budget."""

    @pytest.mark.parametrize(
        "budget, reductions",
        [(0, 0), (1, 3), (2, 3), (3, 9), (1023, 3069), (1024, 3069), (2046, 3069), (2047, 6141)],
    )
    def test_work_stays_within_the_budget(self, budget, reductions):
        # a round of r costs r advance steps plus r comparisons of two
        # reductions each; rounds 1, 2, ..., 512 make 1023 comparisons and
        # 3069 reductions, and the round of 1024 does not fit a budget of
        # 1024 (the earlier routine ran its 1024 advance steps for one pair)
        _CountingModulus.reductions = 0
        assert _brent_rho(_CountingModulus(K67_COFACTOR), 1, budget) == (None, budget)
        assert _CountingModulus.reductions == reductions <= 3 * budget

    def test_matches_the_earlier_routine_on_whole_rounds(self):
        gen = Xorshift64Star(73)
        seen = {"split": 0, "partial round only": 0, "none": 0}
        for i in range(40):
            p, q = (_seeded_prime(gen, 16 + (i + j) % 17) for j in (0, 7))
            if p == q:
                continue
            n = p * q
            for budget in (1, 2, 100, 255, 256, 1023, 1024, 3000, 4095):
                # rounds 1, 2, ..., 2^(m-1) make 2^m - 1 comparisons; at that
                # budget the earlier routine runs whole rounds only
                whole = (1 << ((budget + 1).bit_length() - 1)) - 1
                new = _brent_rho(n, 1, budget)
                ref = _brent_rho_with_partial_rounds(n, 1, whole)
                assert new == ref or (new, ref) == ((None, budget), (None, whole))
                old = _brent_rho_with_partial_rounds(n, 1, budget)
                if old[0] is not None and old[1] <= whole:
                    assert new == old
                    seen["split"] += 1
                else:
                    assert new[0] is None
                    seen["partial round only" if old[0] is not None else "none"] += 1
        assert min(seen.values()) > 0, seen

    def test_collision_backtrack_splits(self):
        # 1058441 = 1009 * 1049: the running product takes in both primes
        # between two gcd probes, and stepping back one pair at a time splits it
        assert _brent_rho(1058441, 1, 4096) == (1049, 63)

    def test_collision_backtrack_meeting_n_reports_no_split(self):
        # 35 = 5 * 7: x and y meet modulo both primes at the same step
        assert _brent_rho(35, 1, 4096) == (None, 3)

    def test_two_seven_digit_primes_factor_completely(self):
        fr = factor_integer(1000691 * 1000723)
        assert fr.prime_powers == ((1000691, 1), (1000723, 1)) and fr.is_complete


class TestIsPrime:
    def test_small_range_matches_sympy(self):
        for n in range(2000):
            assert is_prime(n) == sympy.isprime(n)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 41041, 825265):
            assert not is_prime(n)

    def test_fixture_primes(self):
        assert is_prime(1225550789) and is_prime(6442787651)

    def test_large_values_match_sympy(self):
        gen = Xorshift64Star(61)
        for bits in (40, 61, 80, 100):
            for _ in range(8):
                n = (gen.next_u64() % (1 << bits)) | (1 << (bits - 1)) | 1
                assert is_prime(n) == sympy.isprime(n)

    def test_mersenne(self):
        assert is_prime(2**89 - 1)
        assert not is_prime(2**83 - 1)


def test_doctests():
    import doctest

    import dgscert.ntheory

    results = doctest.testmod(dgscert.ntheory)
    # _brent_rho carries three
    assert results.failed == 0 and results.attempted >= 3
