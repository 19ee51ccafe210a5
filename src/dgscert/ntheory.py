"""Number theory for the certificate: primality and the factoring ladder.

A caller factors the integer whose primes it needs, and 2 is a trial prime
like any other: ``certify_dgs`` factors d_n itself, and its verdict's
``dn_factorization`` is that result.  A caller that wants the odd primes
only skips p = 2 where it walks them.

The ladder is fixed for each effort level, so a factorization is
deterministic.  Trial division by the primes below 10**6 takes one gcd per
block of ``_TRIAL_BLOCK`` primes and divides only a block that shares a
factor.  Every composite left then has no prime below the trial bound: a
perfect power root**k is carried as root with multiplicity k, and any
other composite gets Brent-Pollard rho, capped per composite by the effort
level's budget of compared pairs (none at "low").  A composite that rho
cannot split stays in the cofactor, and the result keeps its multiplicity,
so a known square reads "not square-free" even when its root stays
composite.  ``is_prime`` is deterministic Miller-Rabin below about 3.3e24
and a Baillie-PSW test above.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from math import gcd, isqrt, prod


@dataclass(frozen=True)
class FactorizationResult:
    """Prime-power decomposition of an integer n, complete iff the
    unfactored cofactor is 1; a partial result still satisfies
    n == cofactor * prod(p**e).

    ``unfactored`` holds the composites rho could not split, each with its
    multiplicity in n, so that their powers multiply to the cofactor; a
    cofactor that was never examined has none listed.
    """

    prime_powers: tuple[tuple[int, int], ...]
    cofactor: int
    unfactored: tuple[tuple[int, int], ...] = ()

    @property
    def is_complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        out = self.cofactor
        for p, e in self.prime_powers:
            out *= p**e
        return out

    def primes(self) -> list[int]:
        return [p for p, _ in self.prime_powers]

    def squarefree(self) -> bool | None:
        """True/False when decidable, None when the factorization is partial.

        A prime or an unfactored composite that divides n at least twice
        settles the question even for a partial factorization; otherwise
        partial means unknown.
        """
        if any(e >= 2 for _, e in self.prime_powers + self.unfactored):
            return False
        return True if self.is_complete else None


_TRIAL_LIMIT = 10**6
_TRIAL_BLOCK = 256
_small_primes_cache: tuple[array, list[int]] | None = None

# per-composite caps on the pairs rho compares.  Measured on 24 seeded
# semiprimes per size (a b-bit prime times a 100-bit prime), "default" split
# 24/24 at b = 32, 24/24 at b = 36 and 16/24 at b = 40.  A 140-bit composite
# that never splits spends about 1 s in "default" rho (Python 3.11, one core
# of a 2-core VM)
_RHO_BUDGET = {"low": 0, "default": 1 << 20, "high": 1 << 24}


def _check_effort(effort: str) -> None:
    """Raise ValueError unless ``effort`` names a level of the factoring ladder."""
    if effort not in _RHO_BUDGET:
        raise ValueError(f"unknown effort level {effort!r}")


def _two_adic_valuation(x: int) -> int:
    """Exponent of 2 in the nonzero integer x."""
    return (x & -x).bit_length() - 1


def _odd_part(x: int) -> int:
    """The nonzero integer x with every factor 2 divided out (sign kept)."""
    return x >> _two_adic_valuation(x)


def _small_primes() -> tuple[array, list[int]]:
    """The primes below the trial bound and the products of consecutive
    blocks of ``_TRIAL_BLOCK`` of them, both built on the first call."""
    global _small_primes_cache
    if _small_primes_cache is None:
        # odd numbers only: index i stands for 2i + 1
        sieve = bytearray([1]) * ((_TRIAL_LIMIT + 1) // 2)
        sieve[0] = 0
        for p in range(3, isqrt(_TRIAL_LIMIT) + 1, 2):
            if sieve[p // 2]:
                start = p * p // 2
                sieve[start::p] = bytes((len(sieve) - 1 - start) // p + 1)
        primes = array("I", [2])
        primes.extend(compress(range(1, _TRIAL_LIMIT + 1, 2), sieve))
        blocks = [prod(primes[i : i + _TRIAL_BLOCK]) for i in range(0, len(primes), _TRIAL_BLOCK)]
        _small_primes_cache = primes, blocks
    return _small_primes_cache


def _miller_rabin_composite(n: int, a: int, d: int, s: int) -> bool:
    # True when a witnesses compositeness of n
    a %= n
    if a in (0, 1, n - 1):
        return False
    x = pow(a, d, n)
    if x in (1, n - 1):
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        v = _two_adic_valuation(a)
        a >>= v
        if v % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    # Selfridge parameter search; n is odd, not a perfect square
    d = 5
    while True:
        j = _jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    s = _two_adic_valuation(n + 1)
    t = (n + 1) >> s
    # Lucas chain for U_t, V_t with P = 1
    u, v, qk = 1, 1, q % n
    for bit in bin(t)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (v + d * u) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality test, deterministic below ~3.3e24 (fixed Miller-Rabin bases).

    Above that bound a Baillie-PSW style test is used (Miller-Rabin base 2
    plus a strong Lucas test); no composite passing it is known.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = _two_adic_valuation(n - 1)
    d = (n - 1) >> s
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_miller_rabin_composite(n, a, d, s) for a in _MR_BASES)
    if _miller_rabin_composite(n, 2, d, s):
        return False
    r = isqrt(n)
    if r * r == n:
        return False
    return _strong_lucas_prp(n)


def _iroot(n: int, k: int) -> int:
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int) -> tuple[int, int]:
    """Largest-exponent representation n = root**k with k prime, else (n, 1)."""
    for k in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        if (1 << k) > n:
            break
        r = _iroot(n, k)
        if r**k == n:
            return r, k
    return n, 1


def _brent_rho(n: int, c: int, budget: int) -> tuple[int | None, int]:
    """One Brent-Pollard cycle hunt on x^2 + c mod n.  Returns (factor, used).

    Round r advances y by r steps and then compares r pairs (Brent, BIT 20,
    1980).  A round runs only when all r comparisons fit in what is left of
    ``budget``, so no advance is spent without its comparisons; when the next
    round does not fit the hunt stops and reports the whole budget as used.
    A split or a collision (the running product shares all of n) reports
    the pairs compared so far.

    Differences are accumulated into one running product between gcd
    probes; the sign of a difference is irrelevant to the gcd, so no abs.

    >>> _brent_rho(8051, 1, 100)  # 8051 = 83 * 97, split in rounds 1 and 2
    (97, 3)
    >>> _brent_rho(8051, 1, 2)  # round 2 (two pairs) does not fit after round 1
    (None, 2)
    >>> _brent_rho(8051, 1, 0)
    (None, 0)
    """
    y, r, q = 2, 1, 1
    g = 1
    used = 0
    x = ys = y
    while g == 1 and r <= budget - used:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            span = min(256, r - k)
            for _ in range(span):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += span
            used += span
        r *= 2
    if g == 1:
        return None, budget
    if g == n:
        g = 1
        while g == 1:
            ys = (ys * ys + c) % n
            g = gcd(x - ys, n)
    if 1 < g < n:
        return g, used
    return None, used


def factor_integer(n: int, effort: str = "default") -> FactorizationResult:
    """Deterministic partial factorization: trial division plus Pollard rho.

    Effort levels: "low" is trial division to 10**6 only; "default" adds
    Brent-Pollard rho with a cap of 2**20 compared pairs per distinct
    composite; "high" raises the cap to 2**24.  A composite is factored once
    however often it divides n: a cofactor root**k costs one run on root,
    whose parts are carried with multiplicity k, and a part that rho cannot
    split is listed in ``unfactored`` with its multiplicity.  Rho runs
    whole Brent rounds only (no advance without its comparisons): unless
    c = 1 collides, it compares at most 2**20 - 1 (default) or 2**24 - 1
    (high) pairs and stops.  The rho parameter ladder is fixed (x0 = 2,
    c = 1, 2, 3, ...), and a later c runs only after a collision, on the
    budget left, so results never depend on call order.
    """
    _check_effort(effort)
    if n < 1:
        raise ValueError("factor_integer requires n >= 1")
    powers: dict[int, int] = {}
    primes, blocks = _small_primes()
    # one gcd per block of primes; only a block that shares a factor with n
    # is divided prime by prime, and once its first prime squared exceeds
    # n, what is left of n is 1 or a prime
    for b, block in enumerate(blocks):
        lo = b * _TRIAL_BLOCK
        if primes[lo] ** 2 > n:
            break
        if gcd(n, block) == 1:
            continue
        for p in primes[lo : lo + _TRIAL_BLOCK]:
            while n % p == 0:
                powers[p] = powers.get(p, 0) + 1
                n //= p
    unfactored: dict[int, int] = {}
    if n > 1:
        stack = [(n, 1)]  # (factor, multiplicity in n)
        while stack:
            c, m = stack.pop()
            # every factor left has no prime below the trial bound, so below
            # its square it is prime
            if c < _TRIAL_LIMIT * _TRIAL_LIMIT or is_prime(c):
                powers[c] = powers.get(c, 0) + m
                continue
            root, k = _perfect_power(c)
            if k > 1:
                stack.append((root, k * m))
                continue
            budget = _RHO_BUDGET[effort]
            found = None
            for const in range(1, 64):
                if budget <= 0:
                    break
                found, used = _brent_rho(c, const, budget)
                budget -= used
                if found is not None:
                    break
            if found is None:
                unfactored[c] = unfactored.get(c, 0) + m
            else:
                stack.append((found, m))
                stack.append((c // found, m))
    cofactor = prod(c**m for c, m in unfactored.items())
    return FactorizationResult(tuple(sorted(powers.items())), cofactor, tuple(sorted(unfactored.items())))
