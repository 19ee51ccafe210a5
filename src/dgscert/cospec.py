"""Generalized cospectrality: exact spectrum keys, recovery and verification
of the conjugating rational orthogonal matrix, level audits, and the
exhaustive small-n ground-truth oracle.

The oracle walks every isomorphism orbit of labeled graphs on n <= 7
vertices once, keys the least-code member of each orbit with its exact
generalized-spectrum key, and groups those representatives by key.  A graph
is ground-truth DGS exactly when its key's class set is a singleton.
Every call walks the orbits afresh and touches no file or environment
variable; the n = 7 walk takes seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

from .certify import _prime_report
from .errors import InvariantViolation
from .graphcore import Graph, _pair_order, emit_graph6, parse_graph6
from .ntheory import factor_integer
from .zlinalg import char_poly_int, rational_solve, smith_normal_form, walk_matrix

ENUMERATION_MAX_N = 7


@dataclass(frozen=True)
class SpectrumKey:
    """Exact integer characteristic polynomials of a graph and its complement
    (ascending coefficients).  Equal keys mean generalized cospectral."""

    charpoly: tuple[int, ...]
    charpoly_complement: tuple[int, ...]


def spectrum_key(g: Graph) -> SpectrumKey:
    return SpectrumKey(
        char_poly_int(g.adjacency()),
        char_poly_int(g.complement().adjacency()),
    )


@dataclass(frozen=True)
class RationalOrthogonal:
    """Regular rational orthogonal matrix Q = numerators / level.

    Construction validates exactly: Q^T Q = I, Q e = e, and minimality of
    the level (no common factor between the numerators and the level).
    """

    n: int
    numerators: tuple[tuple[int, ...], ...]
    level: int

    def __post_init__(self):
        n, nm, lvl = self.n, self.numerators, self.level
        if lvl < 1:
            raise ValueError("level must be a positive integer")
        if len(nm) != n or any(len(r) != n for r in nm):
            raise ValueError("numerator matrix has wrong shape")
        g = lvl
        for row in nm:
            for v in row:
                g = gcd(g, v)
        if g != 1:
            raise ValueError("level is not minimal: common factor with numerators")
        l2 = lvl * lvl
        for i in range(n):
            for j in range(i, n):
                dot = sum(nm[k][i] * nm[k][j] for k in range(n))
                if dot != (l2 if i == j else 0):
                    raise ValueError("matrix is not orthogonal")
        for row in nm:
            if sum(row) != lvl:
                raise ValueError("matrix is not regular (row sums differ from 1)")

    def conjugate(self, g: Graph) -> Graph:
        """The graph whose adjacency matrix is Q^T A(g) Q, computed exactly as
        N^T A N / level^2 for the numerator matrix N.

        Raises ValueError unless that matrix is a graph's: integral, 0/1,
        symmetric, with zero diagonal.
        """
        if g.n != self.n:
            raise ValueError("graph order does not match the matrix")
        n, nm, l2 = self.n, self.numerators, self.level * self.level
        a = g.adjacency()
        an = [[sum(a[i][k] * nm[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        raw = [[sum(nm[k][i] * an[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        if any(v % l2 for row in raw for v in row):
            raise ValueError("Q^T A Q is not integral")
        return Graph.from_adjacency([[v // l2 for v in row] for row in raw])

    def transpose(self) -> "RationalOrthogonal":
        return RationalOrthogonal(self.n, tuple(zip(*self.numerators)), self.level)


def verify_regular_orthogonal(q: RationalOrthogonal, g_first: Graph, g_second: Graph) -> bool:
    """True iff Q^T A(first) Q = A(second), exact.  Q^T Q = I and Q e = e need
    no check here: every RationalOrthogonal is validated on construction."""
    try:
        return q.conjugate(g_first) == g_second
    except ValueError:
        return False


def recover_q(g_first: Graph, g_second: Graph) -> RationalOrthogonal:
    """The unique regular rational orthogonal Q with Q^T A(first) Q = A(second).

    Exists whenever the first graph is controllable and the two graphs are
    generalized cospectral; recovered from the walk matrices by an exact
    rational solve of W(first)^T Q = W(second)^T.
    """
    if g_first.n != g_second.n:
        raise ValueError("graphs have different orders")
    if spectrum_key(g_first) != spectrum_key(g_second):
        raise ValueError("graphs are not generalized cospectral")
    wg_t, wh_t = (list(zip(*walk_matrix(g))) for g in (g_first, g_second))
    try:
        q_rows = rational_solve(wg_t, wh_t)
    except ValueError as exc:  # both are n x n, so only a singular W(first) raises
        raise ValueError("first graph is not controllable") from exc
    level = 1
    for row in q_rows:
        for v in row:
            level = lcm(level, Fraction(v).denominator)
    numerators = tuple(tuple(int(v * level) for v in row) for row in q_rows)
    q = RationalOrthogonal(g_first.n, numerators, level)
    if not verify_regular_orthogonal(q, g_first, g_second):
        raise InvariantViolation("recovered conjugator failed verification on cospectral inputs")
    return q


# ---------------------------------------------------------------------------
# pair fixture file format: two graph6 lines, then the level, then the
# numerator matrix (n rows of n integers)


def emit_pair_fixture(g_first: Graph, g_second: Graph, q: RationalOrthogonal) -> str:
    lines = [emit_graph6(g_first), emit_graph6(g_second), str(q.level)]
    lines += [" ".join(str(v) for v in row) for row in q.numerators]
    return "\n".join(lines) + "\n"


def parse_pair_fixture(text: str) -> tuple[Graph, Graph, RationalOrthogonal]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 3:
        raise ValueError("pair fixture needs two graph6 lines and a matrix block")
    g_first = parse_graph6(lines[0])
    g_second = parse_graph6(lines[1])
    level = int(lines[2])
    n = g_first.n
    if len(lines) != 3 + n:
        raise ValueError(f"expected {n} matrix rows, found {len(lines) - 3}")
    numerators = tuple(tuple(int(tok) for tok in lines[3 + i].split()) for i in range(n))
    return g_first, g_second, RationalOrthogonal(n, numerators, level)


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle


def _code_to_graph(code: int, n: int) -> Graph:
    rows = [0] * n
    for b, (i, j) in enumerate(_pair_order(n)):
        if code >> b & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def _perm_bit_images(n: int) -> list[tuple[int, ...]]:
    """For every vertex permutation, the image of each pair bit as a mask."""
    pairs = list(_pair_order(n))
    mask = {pair: 1 << b for b, pair in enumerate(pairs)}
    return [
        tuple(mask[min(perm[i], perm[j]), max(perm[i], perm[j])] for i, j in pairs)
        for perm in permutations(range(n))
    ]


def _class_codes(n: int):
    """The least code of every isomorphism orbit of n-vertex graphs, in
    increasing order.

    Codes are visited in increasing order and each unseen one marks its whole
    orbit, so the first code met in an orbit is its minimum.
    """
    nbits = n * (n - 1) // 2
    images = _perm_bit_images(n)
    seen = bytearray(1 << nbits)
    for code in range(1 << nbits):
        if seen[code]:
            continue
        ones = [b for b in range(nbits) if code >> b & 1]
        for image in images:
            seen[sum(map(image.__getitem__, ones))] = 1
        yield code


@dataclass
class EnumerationResult:
    """Outcome of the exhaustive scan for one vertex count.

    Only keys with at least two isomorphism classes are materialized (the
    mate families); every other key has exactly one class by construction,
    so DGS lookups fall through to True.
    """

    n: int
    total_graphs: int
    total_iso_classes: int
    mate_families: dict[SpectrumKey, tuple[str, ...]]

    def is_dgs(self, g: Graph) -> bool:
        if g.n != self.n:
            raise ValueError("graph order does not match the enumeration")
        return spectrum_key(g) not in self.mate_families

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "total_graphs": self.total_graphs,
            "total_iso_classes": self.total_iso_classes,
            "families": [
                {
                    "charpoly": list(key.charpoly),
                    "charpoly_complement": list(key.charpoly_complement),
                    "reps": list(reps),
                }
                for key, reps in sorted(
                    self.mate_families.items(), key=lambda kv: (kv[0].charpoly, kv[0].charpoly_complement)
                )
            ],
        }


def enumerate_generalized_cospectral_classes(n: int) -> EnumerationResult:
    """Group the isomorphism classes of n-vertex graphs (1 <= n <= 7) by
    their exact generalized-spectrum key.

    One orbit walk yields a representative per class; each is keyed with
    ``spectrum_key``, so every key is computed once per class, never per
    labeled graph.
    """
    classes = iter_isomorphism_classes(n)
    groups: dict[SpectrumKey, list[Graph]] = {}
    for g in classes:
        groups.setdefault(spectrum_key(g), []).append(g)
    families = {key: tuple(emit_graph6(g) for g in reps) for key, reps in groups.items() if len(reps) > 1}
    return EnumerationResult(n, 1 << (n * (n - 1) // 2), len(classes), families)


def iter_isomorphism_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex graphs (n <= 7):
    the least-code member of each, in increasing code order."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")
    return [_code_to_graph(code, n) for code in _class_codes(n)]


# ---------------------------------------------------------------------------
# level audit


@dataclass(frozen=True)
class LevelAuditEntry:
    """The audit of one conjugator: its level, d_n, and for each odd prime p
    of the level a pair (p, degrees match at p).  The JSON derives the rest:
    d_n mod 4, the parity of the level, and ``divides_level``, which holds
    for every listed prime."""

    graph6_first: str
    graph6_second: str
    level: int
    dn: int
    prime_checks: tuple[tuple[int, bool], ...]

    def to_json_dict(self) -> dict:
        return {
            "g": self.graph6_first,
            "h": self.graph6_second,
            "level": self.level,
            "dn": str(self.dn),
            "dn_mod_4": self.dn % 4,
            "level_odd": self.level % 2 == 1,
            "prime_checks": [
                {"p": str(p), "eq4_holds": eq, "divides_level": True} for p, eq in self.prime_checks
            ],
        }


def level_parity_audit(g_first: Graph, g_second: Graph) -> LevelAuditEntry:
    """Audit the recovered conjugator of a generalized-cospectral pair (the
    first graph controllable) against the proven level constraints.

    The level must divide d_n; it must be odd when d_n = 2 mod 4; and no odd
    prime p with p || d_n and matching sfp/nullity degrees may divide it.
    Any breach is a fatal inconsistency, not a reportable finding.
    """
    q = recover_q(g_first, g_second)
    snf = smith_normal_form(walk_matrix(g_first))
    dn = snf.dn
    if dn % q.level:
        raise InvariantViolation("conjugator level does not divide the last invariant factor")
    if dn % 4 == 2 and q.level % 2 == 0:
        raise InvariantViolation("even level despite d_n = 2 (mod 4)")
    checks = []
    level_fact = factor_integer(q.level)
    if not level_fact.is_complete:
        raise InvariantViolation("conjugator level resists factorization; audit cannot be completed")
    for p in level_fact.primes():
        if p == 2:
            continue
        exactly_divides = dn % p == 0 and (dn // p) % p != 0
        eq4 = _prime_report(g_first, snf, p).eq_degrees_match
        if exactly_divides and eq4:
            raise InvariantViolation(
                f"prime {p} divides the level although the degree condition holds and p || d_n"
            )
        checks.append((p, eq4))
    return LevelAuditEntry(emit_graph6(g_first), emit_graph6(g_second), q.level, dn, tuple(checks))
