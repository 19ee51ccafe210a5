"""Spectral invariants over F_p, all gathered by one entry point,
``phi_report``: the common-root polynomial of A and A+J, the minimal
annihilator of the all-ones vector and the characteristic polynomial of A
restricted to the nullspace of W^T (the ``PhiReport`` fields ``phi``,
``p_main`` and ``restricted_charpoly``).

A (graph, prime) pair costs one Hessenberg reduction of A over F_p
(``_hessenberg_at_e``), which gives all three quantities the report rests
on: the characteristic polynomial chi_A, the rank r of W mod p and the
minimal annihilator m_p of the all-ones vector e.  The reduction runs on
S^-1 A S with S = I + (e - e_0) e_0^T, whose basis vector 0 is e, and its
transform fixes basis vector 0.  So with q_0 = e and q_1, q_2, ... its later
basis vectors, A q_m = sum_(i <= m+1) h[i][m] q_i, and while the subdiagonal
entries h[1][0], ..., h[m][m-1] are nonzero, q_0, ..., q_m span the same
space as e, Ae, ..., A^m e.  At the first zero subdiagonal entry h[r][r-1]
(r = n if there is none) A q_(r-1) falls back into that span: the Krylov
space of e, which is K = col(W mod p), closes at dimension r.  The leading
r x r block of H is A on K in a basis of K; K is cyclic, so the
characteristic polynomial of that block, which the kernel's recurrence
builds on the way to chi_A, is m_p.  A + J is never formed (see ``_phi``).

The restricted characteristic polynomial is chi_A / m_p.  A has
characteristic polynomial m_p on K, so A on the quotient F_p^n / K has
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
from operator import mul

from . import fpalg
from .errors import InvariantViolation
from .fpalg import ModPoly, format_poly, poly_gcd, sfp, sqrt_poly
from .graphcore import Graph
from .zlinalg import _adj_apply, _charpoly_hessenberg


def _hessenberg_at_e(adj: list[list[int]], p: int) -> tuple[int, ModPoly, ModPoly]:
    """Rank r of W mod p, the minimal annihilator m_p of e and chi_A, from
    one Hessenberg reduction of A over F_p in a basis whose vector 0 is e
    (see the module docstring).

    >>> path = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
    >>> _hessenberg_at_e(path, 3)
    (2, ModPoly(p=3, coeffs=(1, 0, 1)), ModPoly(p=3, coeffs=(0, 1, 0, 1)))
    """
    n = len(adj)
    # S^-1 A S: column 0 becomes Ae, then row 0 is subtracted from the others
    h = [[x, *row[1:]] for row, x in zip(adj, _adj_apply(adj, [1] * n, p))]
    h[1:] = [[(a - b) % p for a, b in zip(row, h[0])] for row in h[1:]]
    polys = _charpoly_hessenberg(h, p)
    r = next((m for m in range(1, n) if not h[m][m - 1]), n)
    return r, ModPoly(p, tuple(polys[r])), ModPoly(p, tuple(polys[n]))


def _phi(chi: ModPoly, adj: list[list[int]], p: int) -> ModPoly:
    """Monic gcd over F_p of the characteristic polynomials of A and A + J.

    A + J is never formed: by the matrix determinant lemma
    chi_{A+J} = chi_A - e^T adj(xI - A) e = chi_A - q with
    q_m = sum_k c_{m+k+1} N_k, where chi_A = sum_j c_j x^j and N_k = e^T A^k e
    is the k-th column sum of W.  So phi = gcd(chi_A, q).  A is symmetric,
    so with u_j = A^j e mod p the sums are N_(2j) = u_j . u_j and
    N_(2j+1) = u_j . u_(j+1): floor(n/2) products with A give all n of them.
    """
    n = len(adj)
    c = chi.coeffs
    walk = [[1] * n]
    for _ in range(n // 2):
        walk.append(_adj_apply(adj, walk[-1], p))
    sums = [sum(map(mul, walk[k // 2], walk[(k + 1) // 2])) for k in range(n)]
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
    p_main | charpoly(A) mod p; deg sfp <= nullity <= deg phi; and the
    divisibility chain sfp | restricted | phi.
    """
    fpalg._check_modulus(p)
    adj = g.adjacency()
    rank, main, chi = _hessenberg_at_e(adj, p)
    nullity = g.n - rank
    phi = _phi(chi, adj, p)
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
    return PhiReport(p, nullity, phi, sfp_phi, sqrt_phi, restricted, main)
