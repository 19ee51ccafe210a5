"""Univariate polynomials over F_p for odd primes p, and the characteristic
polynomial of a matrix over F_p as one of them.

Polynomials are dense coefficient tuples in ascending order (index =
degree), always canonical: residues in [0, p) and no zero leading
coefficient.  Degrees never exceed the 64-vertex cap, so naive arithmetic
is the right tool.  The modulus may be any odd prime: Python integers are
unbounded, so a 200-bit prime costs only the wider arithmetic.  The
characteristic polynomial comes from ``zlinalg``'s Hessenberg kernel, the
one ``char_poly_int`` also runs.  ``specinv.phi_report`` calls that kernel
directly, in a basis that starts at the all-ones vector, so that the same
pass gives the rank of W mod p and the minimal annihilator of e as well.
The 2-adic side of the theory is handled by integer arithmetic elsewhere.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .ntheory import is_prime
from .zlinalg import _charpoly_hessenberg, _square_rows


# a corpus run checks a few primes per graph; the cache need only hold the
# primes of the graphs in flight
@functools.lru_cache(maxsize=1024)
def _check_modulus(p: int) -> None:
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus {p} is not an odd prime")


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class ModPoly:
    """Dense polynomial over F_p; ``coeffs[k]`` is the coefficient of x^k."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        _check_modulus(self.p)
        if self.coeffs and (self.coeffs[-1] == 0 or any(not 0 <= c < self.p for c in self.coeffs)):
            raise ValueError("coefficients not canonical")

    @classmethod
    def make(cls, p: int, coeffs) -> "ModPoly":
        _check_modulus(p)
        return cls(p, _trim([c % p for c in coeffs]))

    @classmethod
    def zero(cls, p: int) -> "ModPoly":
        return cls(p, ())

    @classmethod
    def one(cls, p: int) -> "ModPoly":
        return cls(p, (1,))

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (1,)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _need_same_field(self, other: "ModPoly") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __mul__(self, other: "ModPoly") -> "ModPoly":
        self._need_same_field(other)
        p = self.p
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return ModPoly(p, _trim([v % p for v in out]))

    def scale(self, c: int) -> "ModPoly":
        c %= self.p
        return ModPoly(self.p, _trim([a * c % self.p for a in self.coeffs]))

    def monic(self) -> "ModPoly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(pow(self.coeffs[-1], -1, self.p))

    def divmod(self, other: "ModPoly") -> tuple["ModPoly", "ModPoly"]:
        self._need_same_field(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        dv = other.coeffs
        dd = len(dv) - 1
        inv_lead = pow(dv[-1], -1, p)
        quo = [0] * (len(rem) - dd)
        for top in range(len(rem) - 1, dd - 1, -1):
            c = rem[top]
            if c:
                q = c * inv_lead % p
                quo[top - dd] = q
                for i in range(dd + 1):
                    rem[top - dd + i] = (rem[top - dd + i] - q * dv[i]) % p
        return ModPoly(p, _trim(quo)), ModPoly(p, _trim(rem))

    def __mod__(self, other: "ModPoly") -> "ModPoly":
        return self.divmod(other)[1]

    def exact_div(self, other: "ModPoly") -> "ModPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("exact_div with nonzero remainder")
        return q

    def divides(self, other: "ModPoly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    def derivative(self) -> "ModPoly":
        p = self.p
        return ModPoly(p, _trim([k * c % p for k, c in enumerate(self.coeffs)][1:]))

    def pow(self, e: int) -> "ModPoly":
        out = ModPoly.one(self.p)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __str__(self) -> str:
        return format_poly(self)


def format_poly(f: ModPoly) -> str:
    """Render in descending powers with residues in [0, p), e.g. "x^4+2x^3+x".

    This is the display format used in JSON reports and CLI output.

    >>> format_poly(ModPoly.make(3, [0, 1, 0, 2, 1]))
    'x^4+2x^3+x'
    """
    if f.is_zero():
        return "0"
    terms = []
    for d in range(f.degree, -1, -1):
        c = f.coeffs[d]
        if not c:
            continue
        if d == 0:
            terms.append(str(c))
        else:
            coef = "" if c == 1 else str(c)
            terms.append(f"{coef}x" if d == 1 else f"{coef}x^{d}")
    return "+".join(terms)


def poly_gcd(a: ModPoly, b: ModPoly) -> ModPoly:
    """Monic greatest common divisor (zero when both arguments are zero)."""
    if a.p != b.p:
        raise ValueError(f"modulus mismatch: {a.p} vs {b.p}")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _pth_root(f: ModPoly) -> ModPoly:
    # f = h(x^p) with coefficients in F_p, where c^(1/p) = c (Frobenius)
    p = f.p
    return ModPoly(p, _trim([f.coeffs[i] for i in range(0, len(f.coeffs), p)]))


def _squarefree_parts(f: ModPoly) -> dict[int, ModPoly]:
    p = f.p
    out: dict[int, ModPoly] = {}
    # a zero derivative makes c = f and w = 1: all of f is the leftover p-th power
    c = poly_gcd(f, f.derivative())
    w = f.exact_div(c)
    i = 1
    while not w.is_one():
        y = poly_gcd(w, c)
        part = w.exact_div(y)
        if part.degree > 0:
            out[i] = part
        w = y
        c = c.exact_div(y)
        i += 1
    if not c.is_one():
        # leftover carries the factors whose exponent is divisible by p
        for m, g in _squarefree_parts(_pth_root(c)).items():
            out[m * p] = out[m * p] * g if m * p in out else g
    return out


def squarefree_decomposition(f: ModPoly) -> tuple[tuple[ModPoly, int], ...]:
    """Squarefree decomposition of a monic polynomial, characteristic-aware:
    pairwise-coprime monic squarefree parts (g_j, j) with strictly increasing
    j, whose product of g_j**j recovers f.

    The classic gcd cascade handles exponents coprime to p; what it leaves
    over is a p-th power h(x^p), and the recursion continues on h via
    coefficient p-th roots (the identity map on F_p coefficients).
    """
    if f.is_zero() or not f.is_monic():
        raise ValueError("squarefree decomposition requires a monic nonzero polynomial")
    parts = _squarefree_parts(f)
    return tuple((parts[m].monic(), m) for m in sorted(parts))


def sfp(f: ModPoly) -> ModPoly:
    """Square-free part: the product of the distinct monic irreducible factors."""
    out = ModPoly.one(f.p)
    for g, _ in squarefree_decomposition(f):
        out = out * g
    return out


def sqrt_poly(f: ModPoly) -> ModPoly:
    """Multiplicity-halving square root: each factor keeps ceil(e/2) copies.

    Always a multiple of sfp(f) and a divisor of f.
    """
    out = ModPoly.one(f.p)
    for g, j in squarefree_decomposition(f):
        out = out * g.pow((j + 1) // 2)
    return out


# ---------------------------------------------------------------------------
# characteristic polynomial over F_p


def char_poly_mod_p(m, p: int) -> ModPoly:
    """Characteristic polynomial det(xI - m) over F_p, in O(n^3) field
    operations by reduction to Hessenberg form; 1 for the 0 x 0 matrix."""
    _check_modulus(p)
    rows = [[v % p for v in row] for row in _square_rows(m, "characteristic polynomial")]
    return ModPoly(p, tuple(_charpoly_hessenberg(rows, p)[-1]))
