"""Generalized cospectrality: exact spectrum keys, recovery and verification
of the conjugating rational orthogonal matrix, level audits, and the
exhaustive small-n ground-truth oracle.

The oracle enumerates every labeled graph on n <= 7 vertices, groups them by
their exact generalized-spectrum key, and collapses isomorphism inside each
group by brute-force vertex permutation.  A graph is ground-truth DGS
exactly when its key's class set is a singleton.  Enumeration results are
memoized on disk because the n = 7 pass is expensive.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm
from pathlib import Path

from .certify import _prime_report
from .errors import InvariantViolation
from .graphcore import Graph, emit_graph6, parse_graph6
from .zlinalg import (
    IntMatrix,
    _odd_part,
    char_poly_int,
    determinant,
    factor_integer,
    rational_solve,
    smith_normal_form,
    walk_matrix,
)

ENUMERATION_MAX_N = 7
CACHE_ENV_VAR = "DGSCERT_CACHE"


@dataclass(frozen=True)
class SpectrumKey:
    """Exact integer characteristic polynomials of a graph and its complement
    (ascending coefficients).  Equal keys mean generalized cospectral."""

    charpoly: tuple[int, ...]
    charpoly_complement: tuple[int, ...]


def spectrum_key(g: Graph) -> SpectrumKey:
    return SpectrumKey(
        char_poly_int(IntMatrix.from_rows(g.adjacency())),
        char_poly_int(IntMatrix.from_rows(g.complement().adjacency())),
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

    def transpose(self) -> "RationalOrthogonal":
        return RationalOrthogonal(self.n, tuple(zip(*self.numerators)), self.level)

    def is_permutation(self) -> bool:
        return self.level == 1


def verify_regular_orthogonal(q: RationalOrthogonal, g_first: Graph, g_second: Graph) -> bool:
    """True iff Q^T Q = I, Q e = e, and Q^T A(first) Q = A(second), all exact."""
    if q.n != g_first.n or q.n != g_second.n:
        return False
    n, nm, lvl = q.n, q.numerators, q.level
    l2 = lvl * lvl
    for i in range(n):
        for j in range(i, n):
            if sum(nm[k][i] * nm[k][j] for k in range(n)) != (l2 if i == j else 0):
                return False
    if any(sum(row) != lvl for row in nm):
        return False
    a = g_first.adjacency()
    b = g_second.adjacency()
    an = [[sum(a[i][k] * nm[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if sum(nm[k][i] * an[k][j] for k in range(n)) != l2 * b[i][j]:
                return False
    return True


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
    wg = walk_matrix(g_first)
    if determinant(wg) == 0:
        raise ValueError("first graph is not controllable")
    q_rows = rational_solve(wg.transpose(), walk_matrix(g_second).transpose())
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


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for j in range(1, n) for i in range(j)]


def _code_to_graph(code: int, n: int) -> Graph:
    rows = [0] * n
    for b, (i, j) in enumerate(_pairs(n)):
        if code >> b & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def _graph_to_code(g: Graph) -> int:
    code = 0
    for b, (i, j) in enumerate(_pairs(g.n)):
        if g.has_edge(i, j):
            code |= 1 << b
    return code


def _perm_bit_maps(n: int) -> list[list[int]]:
    """For every vertex permutation, the induced permutation of pair bits."""
    pairs = _pairs(n)
    index = {pair: b for b, pair in enumerate(pairs)}
    maps = []
    for perm in permutations(range(n)):
        maps.append([index[tuple(sorted((perm[i], perm[j])))] for (i, j) in pairs])
    return maps


def _orbit_codes(code: int, bit_maps: list[list[int]], nbits: int) -> set[int]:
    orbit = set()
    for bm in bit_maps:
        out = 0
        for b in range(nbits):
            if code >> bm[b] & 1:
                out |= 1 << b
        orbit.add(out)
    return orbit


def canonical_code(g: Graph) -> int:
    """Smallest pair-bit code over all vertex relabelings of g.

    Brute force over permutations, prefiltered: only permutations that map
    the degree multiset onto itself position-by-position can realize the
    minimum search space, so vertices are bucketed by degree first.
    """
    n = g.n
    if n > ENUMERATION_MAX_N:
        raise ValueError(f"canonical forms are computed by brute force, n <= {ENUMERATION_MAX_N} only")
    degs = g.degrees()
    order = sorted(range(n), key=lambda v: degs[v])
    buckets: list[list[int]] = []
    for v in order:
        if buckets and degs[buckets[-1][0]] == degs[v]:
            buckets[-1].append(v)
        else:
            buckets.append([v])
    best = None
    for parts in _bucket_perms(buckets):
        code = _graph_to_code(g.permuted(parts))
        if best is None or code < best:
            best = code
    return best


def _bucket_perms(buckets: list[list[int]]):
    if not buckets:
        yield []
        return
    head, rest = buckets[0], buckets[1:]
    for head_perm in permutations(head):
        for tail in _bucket_perms(rest):
            yield list(head_perm) + tail


def _batched_charpolys(codes: np.ndarray, n: int, complement: bool) -> np.ndarray:
    """Exact characteristic polynomial coefficients (c_1..c_n, descending
    after the implicit leading 1) for a batch of graph codes.

    Faddeev-LeVerrier over int64: with M_1 = I, each step takes
    c_k = -tr(A M_k) / k (an exact integer division) and
    M_{k+1} = A M_k + c_k I.  At n <= 7 every intermediate is tiny, so
    int64 never overflows.
    """
    import numpy as np  # only the enumeration oracle needs numpy

    m = len(codes)
    adj = np.zeros((m, n, n), dtype=np.int64)
    for b, (i, j) in enumerate(_pairs(n)):
        mask = (codes >> b & 1).astype(bool)
        adj[mask, i, j] = 1
        adj[mask, j, i] = 1
    if complement:
        adj = 1 - np.eye(n, dtype=np.int64) - adj
    coeffs = np.zeros((m, n), dtype=np.int64)
    mk = np.broadcast_to(np.eye(n, dtype=np.int64), (m, n, n)).copy()
    for k in range(1, n + 1):
        am = adj @ mk
        tr = np.trace(am, axis1=1, axis2=2)
        if np.any(tr % k):
            raise InvariantViolation("trace not divisible in the batched charpoly recurrence")
        ck = -(tr // k)
        coeffs[:, k - 1] = ck
        if k < n:
            mk = am + ck[:, None, None] * np.eye(n, dtype=np.int64)
    return coeffs


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

    @classmethod
    def from_json_dict(cls, data: dict) -> "EnumerationResult":
        fams = {
            SpectrumKey(tuple(f["charpoly"]), tuple(f["charpoly_complement"])): tuple(f["reps"])
            for f in data["families"]
        }
        return cls(data["n"], data["total_graphs"], data["total_iso_classes"], fams)


def cache_directory(explicit: str | os.PathLike | None = None) -> Path:
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "dgscert"


def _descending_to_ascending(leading_one_tail: list[int]) -> tuple[int, ...]:
    return tuple(reversed([1] + leading_one_tail))


def enumerate_generalized_cospectral_classes(
    n: int, *, use_cache: bool = True, cache_dir: str | os.PathLike | None = None
) -> EnumerationResult:
    """Group all labeled n-vertex graphs by generalized-spectrum key and
    collapse isomorphism inside each group.

    Spectrum keys come from an exact integer batched recurrence and are
    cross-checked against the division-free characteristic polynomial on a
    sample and on every non-singleton family.  Isomorphism collapse walks
    whole permutation orbits, which costs one orbit per class instead of one
    canonicalization per graph.
    """
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")
    cache_path = cache_directory(cache_dir) / f"mates_n{n}.json"
    if use_cache and cache_path.is_file():
        try:
            with open(cache_path, encoding="utf-8") as fh:
                return EnumerationResult.from_json_dict(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError):
            pass  # corrupted cache entry: recompute and overwrite

    import numpy as np  # only the enumeration oracle needs numpy

    nbits = n * (n - 1) // 2
    total = 1 << nbits
    codes = np.arange(total, dtype=np.int64)
    key_parts = []
    chunk = 1 << 16
    for start in range(0, total, chunk):
        batch = codes[start : start + chunk]
        key_parts.append(
            np.hstack([_batched_charpolys(batch, n, False), _batched_charpolys(batch, n, True)]).astype(np.int32)
        )
    keys = np.vstack(key_parts)
    del key_parts
    _, inverse, counts = np.unique(keys, axis=0, return_inverse=True, return_counts=True)
    inverse = inverse.ravel()

    order = np.argsort(inverse, kind="stable")
    boundaries = np.cumsum(counts)
    bit_maps = _perm_bit_maps(n)
    families: dict[SpectrumKey, tuple[str, ...]] = {}
    total_classes = 0
    start = 0
    for gi in range(len(counts)):
        stop = boundaries[gi]
        member_codes = order[start:stop]
        start = stop
        remaining = set(int(c) for c in member_codes)
        reps = []
        while remaining:
            seed = min(remaining)
            orbit = _orbit_codes(seed, bit_maps, nbits)
            if not orbit <= remaining:
                raise InvariantViolation("isomorphic graphs landed in different spectrum-key groups")
            remaining -= orbit
            reps.append(min(orbit))
        total_classes += len(reps)
        if len(reps) > 1:
            rep_graph = _code_to_graph(reps[0], n)
            key = spectrum_key(rep_graph)
            _check_family_keys(reps, n, key)
            families[key] = tuple(emit_graph6(_code_to_graph(c, n)) for c in sorted(reps))

    _crosscheck_sample(keys, n)
    result = EnumerationResult(n, total, total_classes, families)
    if use_cache:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(result.to_json_dict(), fh)
        os.replace(tmp, cache_path)
    return result


def _check_family_keys(rep_codes: list[int], n: int, key: SpectrumKey) -> None:
    # exact recheck with the independent charpoly implementation
    for code in rep_codes:
        if spectrum_key(_code_to_graph(code, n)) != key:
            raise InvariantViolation("batched spectrum key disagrees with the exact recomputation")


def _crosscheck_sample(keys: np.ndarray, n: int) -> None:
    stride = max(1, len(keys) // 64)
    for code in range(0, len(keys), stride):
        g = _code_to_graph(code, n)
        expect = spectrum_key(g)
        row = keys[code]
        got_cp = _descending_to_ascending([int(v) for v in row[:n]])
        got_cc = _descending_to_ascending([int(v) for v in row[n:]])
        if (got_cp, got_cc) != (expect.charpoly, expect.charpoly_complement):
            raise InvariantViolation("batched spectrum key disagrees with the exact recomputation")


def iter_isomorphism_classes(n: int) -> list[Graph]:
    """One representative per isomorphism class of n-vertex graphs (n <= 7)."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}")
    nbits = n * (n - 1) // 2
    bit_maps = _perm_bit_maps(n)
    seen = bytearray(1 << nbits)
    reps = []
    for code in range(1 << nbits):
        if seen[code]:
            continue
        for member in _orbit_codes(code, bit_maps, nbits):
            seen[member] = 1
        reps.append(_code_to_graph(code, n))
    return reps


# ---------------------------------------------------------------------------
# level audit


@dataclass(frozen=True)
class LevelAuditEntry:
    graph6_first: str
    graph6_second: str
    level: int
    dn: int
    dn_mod_4: int
    level_odd: bool
    prime_checks: tuple[tuple[int, bool, bool], ...]  # (p, degrees_match, p_divides_level)

    def to_json_dict(self) -> dict:
        return {
            "g": self.graph6_first,
            "h": self.graph6_second,
            "level": self.level,
            "dn": str(self.dn),
            "dn_mod_4": self.dn_mod_4,
            "level_odd": self.level_odd,
            "prime_checks": [
                {"p": str(p), "eq4_holds": eq, "divides_level": dl} for p, eq, dl in self.prime_checks
            ],
        }


def level_parity_audit(pairs) -> list[LevelAuditEntry]:
    """Audit recovered conjugators against the proven level constraints.

    For each generalized-cospectral pair (first controllable): the level
    must divide d_n; it must be odd when d_n = 2 mod 4; and no odd prime p
    with p || d_n and matching sfp/nullity degrees may divide it.  Any
    breach is a fatal inconsistency, not a reportable finding.
    """
    entries = []
    for g_first, g_second in pairs:
        q = recover_q(g_first, g_second)
        snf = smith_normal_form(walk_matrix(g_first))
        dn = snf.dn
        if dn % q.level:
            raise InvariantViolation("conjugator level does not divide the last invariant factor")
        if dn % 4 == 2 and q.level % 2 == 0:
            raise InvariantViolation("even level despite d_n = 2 (mod 4)")
        checks = []
        level_fact = factor_integer(_odd_part(q.level))
        if not level_fact.is_complete:
            raise InvariantViolation("conjugator level resists factorization; audit cannot be completed")
        for p in level_fact.primes():
            exactly_divides = dn % p == 0 and (dn // p) % p != 0
            eq4 = _prime_report(g_first, snf, p).eq_degrees_match
            if exactly_divides and eq4:
                raise InvariantViolation(
                    f"prime {p} divides the level although the degree condition holds and p || d_n"
                )
            checks.append((p, eq4, True))
        entries.append(
            LevelAuditEntry(
                emit_graph6(g_first),
                emit_graph6(g_second),
                q.level,
                dn,
                dn % 4,
                q.level % 2 == 1,
                tuple(checks),
            )
        )
    return entries
