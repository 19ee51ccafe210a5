import dataclasses
from math import gcd

import pytest

from dgscert import specinv
from dgscert.cospec import enumerate_generalized_cospectral_classes
from dgscert.errors import InvariantViolation
from dgscert.fpalg import ModPoly, _check_modulus, char_poly_mod_p
from dgscert.graphcore import Graph, derive_seed, random_graph
from dgscert.zlinalg import _adj_apply, walk_matrix

CORPUS_SEED = 0xD65C0DE
# an n = 18 graph whose d_n has the 91-bit prime factor BIG_PRIME of nullity 1
BIG_PRIME_GRAPH = (18, derive_seed(20211018, 18, 1))
BIG_PRIME = 2541844075895812713707691391


def seeded_corpus(count: int, n_lo: int, n_hi: int, seed: int = CORPUS_SEED) -> list[Graph]:
    """Deterministic mixed-order random graphs for property tests."""
    span = n_hi - n_lo + 1
    return [random_graph(n_lo + i % span, derive_seed(seed, n_lo + i % span, i)) for i in range(count)]


def strong_pseudoprime_base_2() -> int:
    """(4^43 + 1)/5: composite, since 4^p + 1 = (2^p - 2^((p+1)/2) + 1)(2^p +
    2^((p+1)/2) + 1), above the deterministic Miller-Rabin bound 3.3e24, and
    a strong probable prime to base 2, so only the Lucas half of BPSW can
    reject it."""
    n = (4**43 + 1) // 5
    assert n > 33 * 10**23 and n % (2**43 + 2**22 + 1) == 0
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(2, d, n)
    assert x in (1, n - 1) or any(pow(x, 2**i, n) == n - 1 for i in range(1, s))
    return n


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def permuted(g: Graph, perm) -> Graph:
    """Relabel vertices: vertex i of the result is vertex perm[i] of g."""
    return Graph.from_adjacency([[int(g.has_edge(perm[i], perm[j])) for j in range(g.n)] for i in range(g.n)])


# Gauss-Jordan over F_p: the oracle for the rank of W and the minimal
# annihilator of e that the library reads off one Hessenberg pass
# (specinv._hessenberg_at_e) and, through the nullspace of W^T, for the
# restricted characteristic polynomial chi_A / p_main


def _rref(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form mod p; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(vi - f * vr) % p for vi, vr in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _reduced_rows(m, p: int) -> list[list[int]]:
    _check_modulus(p)
    return [[v % p for v in row] for row in m]


def rank_p(m, p: int) -> int:
    """Rank of m over F_p."""
    return len(_rref(_reduced_rows(m, p), p)[1])


def nullity_p(m, p: int) -> int:
    if any(len(row) != len(m) for row in m):
        raise ValueError("nullity_p defined here for square matrices only")
    return len(m) - rank_p(m, p)


def nullspace_basis_p(m, p: int) -> list[tuple[int, ...]]:
    """Reduced-echelon basis of the right nullspace of m over F_p: basis
    vector k has a 1 in the k-th free column and zeros in the other free
    columns."""
    rows, pivots = _rref(_reduced_rows(m, p), p)
    n = len(m[0]) if m else 0
    basis = []
    for f in (j for j in range(n) if j not in pivots):
        vec = [0] * n
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-rows[r][f]) % p
        basis.append(tuple(vec))
    return basis


def gauss_jordan_route(g: Graph, p: int) -> tuple[int, ModPoly]:
    """Rank of W mod p and the minimal annihilator of e from the reduced
    echelon form of [W | A^n e]: its column r holds the coordinates of
    A^r e in e, Ae, ..., A^(r-1) e."""
    _check_modulus(p)
    adj = g.adjacency()
    cols = [[1] * g.n]
    for _ in range(g.n):
        cols.append(_adj_apply(adj, cols[-1], p))
    rows, pivots = _rref([list(row) for row in zip(*cols)], p)
    r = len(pivots)
    assert pivots == list(range(r))
    return r, ModPoly.make(p, [-rows[i][r] for i in range(r)] + [1])


def restricted_charpoly_oracle(g: Graph, p: int) -> ModPoly:
    """Characteristic polynomial of A on the F_p nullspace of W^T by the
    nullspace route: the oracle for ``phi_report``'s chi_A / p_main.

    The nullspace is A-invariant, so with B its reduced-echelon basis
    matrix, X in B X = A B is read off A B at the basis's free columns; the
    result is the characteristic polynomial of the small matrix X.
    """
    adj = g.adjacency()
    basis = nullspace_basis_p(list(zip(*walk_matrix(g))), p)
    ab_cols = [_adj_apply(adj, vec, p) for vec in basis]
    # each basis vector is 1 at its own free column (its last nonzero entry)
    # and 0 at the others, so X holds the entries of A B at the free columns
    free = [max(i for i, x in enumerate(vec) if x) for vec in basis]
    x_cols = [[col[f] for f in free] for col in ab_cols]
    for x_col, ab_col in zip(x_cols, ab_cols):
        assert [sum(b[i] * x for b, x in zip(basis, x_col)) % p for i in range(g.n)] == ab_col
    return char_poly_mod_p(list(zip(*x_cols)), p)


def reduced_walk_matrix(g: Graph, p: int) -> list[tuple[int, ...]]:
    """Walk matrix with the p-divisible tail compressed out: the oracle for
    the nullity that ``phi_report`` gives, by the determinant drop.

    With k the nullity of W mod p and f the [0, p) integer lift of the
    minimal annihilator of e, the columns are e, Ae, ..., A^(n-k-1) e
    followed by A^i f(A) e / p for i < k.  Integrality of the first divided
    column is guaranteed because f(A) e vanishes mod p; the remaining ones
    are A applied to an integer vector.  The determinant shrinks by exactly
    p**k.
    """
    n = g.n
    adj = g.adjacency()
    rank, f = gauss_jordan_route(g, p)
    if rank == n:
        raise ValueError(f"prime {p} does not divide det W, nothing to reduce")
    cols = list(zip(*walk_matrix(g)))
    fe = [sum(c * cols[d][i] for d, c in enumerate(f.coeffs)) for i in range(n)]
    if any(x % p for x in fe):
        raise InvariantViolation("minimal annihilator lift does not vanish mod p")
    tail = [x // p for x in fe]
    for j in range(rank, n):
        cols[j] = tail
        tail = _adj_apply(adj, tail)
    return list(zip(*cols))


# One-step Bareiss elimination: the oracle for the library's two-step kernel
# (zlinalg._bareiss), which must return the same (rank, lead, trailing
# minors) on every input


def bareiss_one_step(rows: list[list[int]]) -> tuple[int, int, tuple[int, ...]]:
    """Bareiss fraction-free elimination in place: (rank, lead, trailing minors).

    Every division performed is exact, so intermediate entries stay at the
    size of minors of the input rather than exploding exponentially.  After
    stage k each entry (i, j) of the active block is the minor on rows
    0..k, i and columns 0..k, j of the permuted matrix (Sylvester's
    identity).  A stage swaps columns only when its pivot column is zero
    from the diagonal down, which never happens for a nonsingular input; an
    all-zero active block ends the elimination at rank r.  ``lead`` is the
    leading r x r minor of the permuted matrix times the sign of the swaps,
    so it is det when r = n.  The trailing 2x2 block after stage n-3 holds
    four (n-1)-minors; they are the third item (the four entries when
    n = 2, empty when n < 2 or when the rank proves short before that
    stage).

    >>> bareiss_one_step([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    (2, -3, (-3, -6, -6, -12))
    """
    n = len(rows)
    a = rows
    sign = 1
    prev = 1
    minors: tuple[int, ...] = ()
    for k in range(n):
        if k == n - 2:
            minors = (a[k][k], a[k][k + 1], a[k + 1][k], a[k + 1][k + 1])
        if a[k][k] == 0:
            r = next((r for r in range(k + 1, n) if a[r][k]), None)
            if r is None:
                j = next((j for j in range(k + 1, n) if any(row[j] for row in a[k:])), None)
                if j is None:
                    return k, sign * prev, minors
                for row in a[k:]:
                    row[k], row[j] = row[j], row[k]
                sign = -sign
                r = next(r for r in range(k, n) if a[r][k])
            if r != k:
                a[k], a[r] = a[r], a[k]
                sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return n, sign * prev, minors


# Invariant factors by elimination over Z (modulus 0), tracking the sign of
# the determinant through every swap and negation: the reference the SNF
# tests compare the library's one modular elimination against


def _swap_to_pivot(a: list[list[int]], k: int, i: int, j: int) -> int:
    """Move entry (i, j) to (k, k) by a row swap and a column swap of the
    active block (rows k and below); returns the sign change, -1 per swap."""
    sign = 1
    if i != k:
        a[k], a[i] = a[i], a[k]
        sign = -sign
    if j != k:
        for row in a[k:]:
            row[k], row[j] = row[j], row[k]
        sign = -sign
    return sign


def eliminate_over_z(a: list[list[int]], modulus: int = 0) -> tuple[tuple[int, ...], int]:
    """Invariant factors of the square matrix ``a`` over Z/modulus, in place.

    ``modulus`` 0 means over Z.  With a modulus M the entries must come
    reduced mod M, stay reduced mod the current modulus, and the factors are
    gcd(d_i, M).  A stage over Z/M first looks for an active entry that is a
    unit (coprime to the current modulus).  One found proves the active
    gcd is 1: it is swapped to the pivot, each row below is cleared in one
    pass with its factor row_i[k] / pivot mod M, and the pivot row's tail
    is zeroed (column operations, which touch no other row once column k
    is clear), so the stage factor is the multiplier alone.  A stage with
    no unit, and every stage over Z, runs classical elimination: the gcd of
    the active submatrix and the modulus is divided out of both and
    re-applied as a multiplier to all later factors, which keeps entries
    near the size of the factors, and the smallest nonzero entry is the
    pivot until its row and column clear.
    Non-units can still have gcd 1 with the modulus:

    >>> eliminate_over_z([[2, 3], [3, 4]], 6)[0]
    (1, 1)

    Returns (factors, sign); over Z, sign * prod(factors) = det a.  The sign
    tracks every swap and negation but means nothing over Z/M.
    """
    n = len(a)
    mod = modulus
    sign = 1
    factors: list[int] = []
    mult = 1
    for k in range(n):
        if mod:
            unit = next(((i, j) for i in range(k, n) for j in range(k, n) if gcd(a[i][j], mod) == 1), None)
            if unit:
                sign *= _swap_to_pivot(a, k, *unit)
                row_k = a[k]
                inv = pow(row_k[k], -1, mod)
                tail = row_k[k + 1 :]
                for i in range(k + 1, n):
                    row_i = a[i]
                    v = row_i[k]
                    if v:
                        f = v * inv % mod
                        row_i[k + 1 :] = [(x - f * y) % mod for x, y in zip(row_i[k + 1 :], tail)]
                        row_i[k] = 0
                row_k[k + 1 :] = [0] * (n - k - 1)
                factors.append(mult)
                continue
        # factor out the gcd of the active submatrix and the modulus
        g = mod
        for i in range(k, n):
            for v in a[i][k:]:
                if v:
                    g = gcd(g, v)
                    if g == 1:
                        break
            if g == 1:
                break
        if g == mod:
            # every active entry is 0 mod the modulus (0 over Z)
            factors.extend([mult * mod] * (n - k))
            break
        if g > 1:
            for i in range(k, n):
                row = a[i]
                for j in range(k, n):
                    row[j] //= g
            mod //= g
        mult *= g
        while True:
            # smallest nonzero entry becomes the pivot
            pi = pj = -1
            best = 0
            for i in range(k, n):
                for j in range(k, n):
                    v = abs(a[i][j])
                    if v and (best == 0 or v < best):
                        best, pi, pj = v, i, j
            sign *= _swap_to_pivot(a, k, pi, pj)
            if a[k][k] < 0:
                a[k] = [-v for v in a[k]]
                sign = -sign
            d = a[k][k]
            dirty = False
            row_k = a[k]
            for i in range(k + 1, n):
                row_i = a[i]
                v = row_i[k]
                if v:
                    q = v // d
                    if q:
                        if mod:
                            for j in range(k, n):
                                row_i[j] = (row_i[j] - q * row_k[j]) % mod
                        else:
                            for j in range(k, n):
                                row_i[j] -= q * row_k[j]
                    if row_i[k]:
                        dirty = True
            for j in range(k + 1, n):
                v = row_k[j]
                if v:
                    q = v // d
                    if q:
                        if mod:
                            for i in range(k, n):
                                row = a[i]
                                row[j] = (row[j] - q * row[k]) % mod
                        else:
                            for i in range(k, n):
                                row = a[i]
                                row[j] -= q * row[k]
                    if row_k[j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide every remaining entry, else pull the
            # offending row up and restart the stage
            offender = -1
            for i in range(k + 1, n):
                if any(v % d for v in a[i][k + 1 :]):
                    offender = i
                    break
            if offender < 0:
                break
            row_o = a[offender]
            for j in range(k, n):
                row_k[j] += row_o[j]
        # the active gcd was divided out, so the pivot is a unit: 1 over Z
        factors.append(mult * gcd(a[k][k], mod))
    return tuple(factors), sign


@pytest.fixture(scope="session")
def small_corpus() -> list[Graph]:
    return seeded_corpus(30, 4, 12)


@pytest.fixture(scope="session")
def k1() -> Graph:
    return Graph(1, (0,))


@pytest.fixture(scope="session")
def k2() -> Graph:
    return Graph.from_edges(2, [(0, 1)])


@pytest.fixture(scope="session")
def p3() -> Graph:
    return Graph.from_edges(3, [(0, 1), (1, 2)])


@pytest.fixture(scope="session")
def c4() -> Graph:
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture(scope="session")
def mates_n7():
    """The exhaustive n = 7 enumeration, walked once per session."""
    return enumerate_generalized_cospectral_classes(7)


@pytest.fixture
def wrong_nullity(monkeypatch):
    """Make ``specinv.phi_report`` return a report whose nullity is one too
    high, so it disagrees with the invariant factors at every prime."""
    real = specinv.phi_report

    def off_by_one(g, p):
        rep = real(g, p)
        return dataclasses.replace(rep, nullity=rep.nullity + 1)

    monkeypatch.setattr(specinv, "phi_report", off_by_one)


@pytest.fixture
def shifted_m_p(monkeypatch):
    """Make ``specinv._hessenberg_at_e`` return the minimal annihilator of e
    with its constant term raised by one, so it no longer divides chi_A."""
    real = specinv._hessenberg_at_e

    def shifted(adj, p):
        rank, main, chi = real(adj, p)
        return rank, ModPoly.make(p, (main.coeffs[0] + 1, *main.coeffs[1:])), chi

    monkeypatch.setattr(specinv, "_hessenberg_at_e", shifted)


@pytest.fixture
def dropped_rank(monkeypatch):
    """Make ``specinv._hessenberg_at_e`` read the Krylov space of e as closing
    one step early: rank r - 1 and, as m_p, the polynomial of the leading
    (r - 1) x (r - 1) block that the kernel built on the way."""
    real_kernel, real = specinv._charpoly_hessenberg, specinv._hessenberg_at_e
    polys = []

    def recording(h, p):
        polys[:] = real_kernel(h, p)
        return polys

    def dropped(adj, p):
        rank, _, chi = real(adj, p)
        return rank - 1, ModPoly(p, tuple(polys[rank - 1])), chi

    monkeypatch.setattr(specinv, "_charpoly_hessenberg", recording)
    monkeypatch.setattr(specinv, "_hessenberg_at_e", dropped)
