"""Spectral invariants over F_p, all gathered by one entry point,
``phi_report``: the common-root polynomial of A and A+J, the minimal
annihilator of the all-ones vector and the characteristic polynomial of A
restricted to the nullspace of W^T (the ``PhiReport`` fields ``phi``,
``p_main`` and ``restricted_charpoly``).

A (graph, prime) pair costs one walk e, Ae, ..., A^n e reduced mod p, one
forward elimination of it over F_p (``_eliminate_walk``), which gives the
rank r of W and the minimal annihilator m_p of e, and one characteristic
polynomial chi_A, from a Hessenberg reduction.  A + J is never formed (see
``_phi``).

The restricted characteristic polynomial is chi_A / m_p.  K = col(W mod p)
is the cyclic subspace spanned by e, Ae, ..., A^(r-1) e, on which A has
characteristic polynomial m_p; so A on the quotient F_p^n / K has
chi_A / m_p.  The nullspace of W^T is K^perp, which is A-invariant because
A is symmetric, and the pairing of F_p^n / K with K^perp is nondegenerate
with <Ax, y> = <x, Ay>: A on K^perp is the dual of A on F_p^n / K and has
the same characteristic polynomial.

The relationships between these quantities (degree bounds, divisibility
chains, factorization identities) are proven facts, so ``phi_report`` checks
them eagerly and raises :class:`InvariantViolation` when one fails: the
theorems double as runtime self-checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fpalg
from .errors import InvariantViolation
from .fpalg import ModPoly, char_poly_mod_p, format_poly, poly_gcd, sfp, sqrt_poly
from .graphcore import Graph
from .zlinalg import _adj_apply


def _walk_mod_p(adj: list[list[int]], p: int) -> list[list[int]]:
    """e, Ae, ..., A^n e reduced mod p: the n columns of W, then A^n e."""
    walk = [[1] * len(adj)]
    for _ in range(len(adj)):
        walk.append(_adj_apply(adj, walk[-1], p))
    return walk


def _eliminate_walk(walk: list[list[int]], p: int) -> tuple[int, ModPoly]:
    """Rank r of W mod p and the minimal annihilator of e, from one forward
    elimination of the walk vectors e, Ae, ... taken in order.

    Each echelon row carries its coordinates in the walk vectors.  Once a walk
    vector depends on the earlier ones every later one does, so the first
    vector that reduces to zero is A^r e, and its coordinates are the
    annihilator.

    >>> path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    >>> _eliminate_walk(_walk_mod_p(path, 3), 3)
    (2, ModPoly(p=3, coeffs=(1, 0, 1)))
    """
    n = len(walk[0])
    rows: list[list[int]] = []  # [row | coordinates], 1 at the pivot
    pivots: list[int] = []
    for k, vec in enumerate(walk):
        v = [*vec, *[0] * k, 1]
        for row, col in zip(rows, pivots):
            if x := v[col]:
                v[: len(row)] = [(a - x * b) % p for a, b in zip(v, row)]
        col = next((j for j in range(n) if v[j]), None)
        if col is None:
            break
        inv = pow(v[col], -1, p)
        rows.append([x * inv % p for x in v])
        pivots.append(col)
    return len(rows), ModPoly(p, tuple(v[n:]))


def _phi(chi: ModPoly, walk: list[list[int]], p: int) -> ModPoly:
    """Monic gcd over F_p of the characteristic polynomials of A and A + J.

    A + J is never formed: by the matrix determinant lemma
    chi_{A+J} = chi_A - e^T adj(xI - A) e = chi_A - q with
    q_m = sum_k c_{m+k+1} N_k, where chi_A = sum_j c_j x^j and N_k = e^T A^k e
    is the k-th column sum of W.  So phi = gcd(chi_A, q).
    """
    n = len(walk) - 1
    c = chi.coeffs
    sums = [sum(v) for v in walk[:n]]
    q = [sum(c[m + k + 1] * sums[k] for k in range(n - m)) for m in range(n)]
    return poly_gcd(chi, ModPoly.make(p, q))


@dataclass(frozen=True)
class PhiReport:
    """All F_p evidence for one (graph, prime) pair, self-checked on build.

    ``phi`` is the monic gcd of chi_A and chi_{A+J}, invariant under
    generalized cospectrality, which is what makes it usable as
    certification evidence.  ``p_main`` is the monic polynomial of least
    degree with p_main(A) e = 0; its degree is the rank of W mod p, and its
    coefficients are the coordinates of A^rank e in the walk vectors before
    it.  ``restricted_charpoly`` is the characteristic polynomial of A on the
    nullspace K^perp of W^T, where K is the column space of W mod p: A on
    K^perp is the dual of A on F_p^n / K, so it equals chi_A / p_main.
    """

    p: int
    n: int
    nullity: int
    phi: ModPoly
    sfp_phi: ModPoly
    sqrt_phi: ModPoly
    restricted_charpoly: ModPoly
    p_main: ModPoly

    @property
    def eq_degrees_match(self) -> bool:
        """Whether deg sfp equals the nullity (the certification condition)."""
        return self.sfp_phi.degree == self.nullity

    def to_json_dict(self) -> dict:
        return {
            "p": str(self.p),
            "nullity": self.nullity,
            "phi": format_poly(self.phi),
            "sfp_phi": format_poly(self.sfp_phi),
            "sqrt_phi": format_poly(self.sqrt_phi),
            "m_p": format_poly(self.p_main),
            "restricted": format_poly(self.restricted_charpoly),
            "eq4_holds": self.eq_degrees_match,
        }


def phi_report(g: Graph, p: int) -> PhiReport:
    """Assemble and cross-check the full per-prime evidence record.

    The restricted characteristic polynomial is the quotient chi_A / p_main:
    A on the nullspace K^perp of W^T is the dual of A on F_p^n / K, with
    K = col(W mod p) cyclic of characteristic polynomial p_main (see the
    module docstring).

    Checks performed (all proven, violations raise InvariantViolation):
    p_main | charpoly(A) mod p; deg sfp <= nullity <= deg phi; the
    divisibility chain sfp | restricted | phi; and deg p_main == n - nullity.
    """
    fpalg._check_modulus(p)
    n = g.n
    adj = g.adjacency()
    walk = _walk_mod_p(adj, p)
    rank, main = _eliminate_walk(walk, p)
    nullity = n - rank
    chi = char_poly_mod_p(adj, p)
    phi = _phi(chi, walk, p)
    if phi.is_zero():
        raise InvariantViolation("phi must be nonzero for a nonzero characteristic polynomial")
    sfp_phi = sfp(phi)
    sqrt_phi = sqrt_poly(phi)
    restricted, rem = chi.divmod(main)
    if not rem.is_zero():
        raise InvariantViolation(f"p-main does not divide chi(A) at p={p}")
    if not (sfp_phi.degree <= nullity <= max(phi.degree, 0)):
        raise InvariantViolation(f"degree bound broken at p={p}: deg sfp={sfp_phi.degree}, nullity={nullity}, deg phi={phi.degree}")
    if not restricted.divides(phi):
        raise InvariantViolation(f"restricted charpoly does not divide phi at p={p}")
    if not sfp_phi.divides(restricted):
        raise InvariantViolation(f"sfp(phi) does not divide the restricted charpoly at p={p}")
    if main.degree != n - nullity:
        raise InvariantViolation(f"p-main degree {main.degree} != rank {n - nullity} at p={p}")
    return PhiReport(p, n, nullity, phi, sfp_phi, sqrt_phi, restricted, main)
