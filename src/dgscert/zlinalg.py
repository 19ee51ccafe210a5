"""Exact integer matrix algebra.

Everything here is exact: a matrix is any sequence of rows of
arbitrary-precision Python integers, and no function changes its argument.
Determinants and ranks come from one two-step Bareiss fraction-free
elimination: each active entry is updated once per two pivots with one exact
division, and a one-step stage runs where the next leading minor is 0 or
a two-step pass would skip the trailing (n-1)-minors.  Only the rank, the
leading minor, those trailing minors and, on request, one copy of the
active block are returned, so entries outside the active block are left
stale.  Characteristic
polynomials come from one Hessenberg kernel over Z/p (over Z it runs once
modulo a prime above twice the Hadamard bound of the coefficients, whose
residues are lifted to the symmetric range), and the Smith normal form of
every square matrix from one elimination modulo a multiple M of d_1 ... d_r
that the determinant's elimination supplies (r the rank): a small multiple
of d_1 ... d_(n-1) at full rank, a nonzero r x r minor below it.

That modular elimination starts where Bareiss leaves off.  The rows are
first ordered by one elimination over F_2 so that the leading minors
Delta_1 ... Delta_s are odd (s = rank_2 W for a walk matrix, whose M is
even, so that an even Delta_t would be of no use), and Bareiss keeps its
active block B_t at one stage t <= s.  By Sylvester's identity B_t =
Delta_t S, with S = W22 - W21 W11^-1 W12 the Schur complement of the
leading t x t block W11, and when gcd(Delta_t, M) = 1 block LU over Z/M,

    W = [I 0; W21 W11^-1 I] [W11 0; 0 S] [I W11^-1 W12; 0 I],

makes W equivalent to diag(W11, S) there, and so to diag(I_t, S), W11
being invertible.  Delta_t is a unit mod M, so B_t mod M has the Smith form
of S, and only that (n-t) x (n-t) block is eliminated: the factors are t
ones and then its own.  Otherwise t = 0 and the whole matrix is eliminated
mod M.  Each stage of the modular elimination pivots on a unit mod the
modulus when the active block has one and clears its column in one row
pass; a block without one has its gcd with the modulus divided out, or the
modulus split into coprime parts, until it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt, prod

from .errors import InvariantViolation
from .graphcore import Graph
# factor_integer is bound here only because perfbench/tracer.py looks it up in this module
from .ntheory import factor_integer, is_prime


@dataclass(frozen=True)
class SnfResult:
    """Invariant factors d_1 | d_2 | ... | d_n plus the determinant sign:
    +1 or -1 for a nonsingular matrix (+1 for the 0 x 0 one), 0 for a
    singular one."""

    factors: tuple[int, ...]
    det_sign: int

    @property
    def dn(self) -> int:
        return self.factors[-1]

    def abs_det(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out


def _adj_apply(adj: list[list[int]], v: list[int], modulus: int = 0) -> list[int]:
    """A v for a dense 0/1 adjacency matrix, reduced mod ``modulus`` unless it is 0."""
    out = [sum(compress(v, row)) for row in adj]
    return [x % modulus for x in out] if modulus else out


def walk_matrix(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The n x n matrix whose k-th column is A^k applied to the all-ones
    vector, as a tuple of row tuples."""
    n = g.n
    adj = g.adjacency()
    cols = []
    v = [1] * n
    for _ in range(n):
        cols.append(v)
        v = _adj_apply(adj, v)
    return tuple(zip(*cols))


def _square_rows(m, what: str) -> list[list[int]]:
    """Fresh lists holding the rows of the square matrix ``m``, a sequence of
    integer rows; ValueError for ragged or non-square input."""
    rows = [list(row) for row in m]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError(f"{what} of a non-square matrix")
    return rows


def _odd_leading_order(rows: list[list[int]]) -> tuple[int, int]:
    """Reorder the rows in place so that the leading minors Delta_1 ...
    Delta_r are odd, with r as large as any row order allows; return r and
    the sign of the row permutation.

    One forward elimination over F_2 with row swaps and no column moves,
    each row packed as an int whose bit j is its entry j mod 2: stage t
    swaps to position t a row whose reduced bit t is set and clears bit t
    from the rows below it.  This is an LU factorization mod 2 of the
    reordered matrix, so Delta_t is odd for t <= r.  Stage r finds no such
    row: column r is then a combination of the columns before it mod 2, and
    for a Krylov matrix such as W that makes r = rank_2 W.

    >>> rows = [[2, 1, 1], [1, 1, 0], [1, 0, 1]]
    >>> _odd_leading_order(rows)
    (2, -1)
    >>> rows
    [[1, 1, 0], [2, 1, 1], [1, 0, 1]]
    """
    n = len(rows)
    bits = [sum(1 << j for j, v in enumerate(row) if v & 1) for row in rows]
    sign = 1
    for t in range(n):
        piv = next((i for i in range(t, n) if bits[i] >> t & 1), None)
        if piv is None:
            return t, sign
        if piv != t:
            bits[t], bits[piv] = bits[piv], bits[t]
            rows[t], rows[piv] = rows[piv], rows[t]
            sign = -sign
        b = bits[t]
        for i in range(t + 1, n):
            if bits[i] >> t & 1:
                bits[i] ^= b
    return n, sign


def _bareiss(rows: list[list[int]], depth: int = 0) -> tuple[int, int, tuple[int, ...], tuple | None]:
    """Two-step Bareiss fraction-free elimination in place: (rank, lead,
    trailing minors, Schur block).

    Every division performed is exact, so intermediate entries stay at the
    size of minors of the input rather than exploding exponentially.  At
    stage t each entry (i, j) of the active block (rows and columns t and
    up) is the minor on rows 0..t-1, i and columns 0..t-1, j of the permuted
    matrix, and ``prev`` is the leading t x t minor (Sylvester's identity).
    A stage first swaps rows when a[t][t] = 0; it swaps columns only when
    its pivot column is zero from the diagonal down, which never happens for
    a nonsingular input, and an all-zero active block ends the elimination
    at rank r.  With pivot p0 = a[t][t] and the next leading minor

        p1 = (p0 a[t+1][t+1] - a[t+1][t] a[t][t+1]) / prev,

    a stage with p1 != 0 and t + 3 < n eliminates two pivots in one pass
    (Bareiss's two-step method): each row i >= t+2 takes the cofactors

        b_i = (p0 a[i][t+1] - a[i][t] a[t][t+1]) / prev,
        e_i = (a[t+1][t] a[i][t+1] - a[t+1][t+1] a[i][t]) / prev,

    and its tail j >= t+2 becomes (p1 a[i][j] + e_i a[t][j] - b_i a[t+1][j])
    / prev, the 3x3 minor on rows t, t+1, i and columns t, t+1, j expanded
    along its last column and divided by prev^2.  Then prev = p1 and the
    next stage is t+2.  Any other stage is one-step: a[i][j] becomes (p0
    a[i][j] - a[i][t] a[t][j]) / prev for i, j > t, and prev = p0.  Since
    p1 != 0 is the pivot stage t+1 would find, a two-step pass replaces no
    swap, so the permutations, and every returned integer, are those of the
    one-step elimination.  Entries outside the active block are left
    stale.  ``lead`` is the leading r x r minor of the permuted matrix
    times the sign of the swaps, so it is det when r = n.  The 2x2 active
    block at stage n-2 holds four (n-1)-minors, which t + 3 < n keeps a
    two-step pass from skipping; they are the third item (the four entries
    when n = 2, empty when n < 2 or when the rank proves short before that
    stage).  The fourth is (t, prev, block): a copy of the active block at
    the deepest stage t with 0 < t <= ``depth`` that the elimination
    visits, taken after that stage's swaps and before its pass, so block =
    prev * S for the Schur complement S of the leading t x t block of the
    permuted matrix; None when it visits no such stage.

    >>> _bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 1)
    (2, -3, (-3, -6, -6, -12), (1, 1, [[-3, -6], [-6, -12]]))

    The leading 2x2 minor here is 0, so stage 0 is one-step and stage 1
    swaps rows:

    >>> _bareiss([[1, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]])
    (4, -1, (1, 0, 1, 1), None)
    """
    n = len(rows)
    a = rows
    sign = 1
    prev = 1
    minors: tuple[int, ...] = ()
    schur = None
    depth = min(depth, n - 1)  # stage n - 1 is the last
    t = 0
    while t < n:
        if t == n - 2:
            minors = (a[t][t], a[t][t + 1], a[t + 1][t], a[t + 1][t + 1])
        if a[t][t] == 0:
            r = next((r for r in range(t + 1, n) if a[r][t]), None)
            if r is None:
                j = next((j for j in range(t + 1, n) if any(row[j] for row in a[t:])), None)
                if j is None:
                    return t, sign * prev, minors, schur
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
                sign = -sign
                r = next(r for r in range(t, n) if a[r][t])
            if r != t:
                a[t], a[r] = a[r], a[t]
                sign = -sign
        row_t = a[t]
        p0 = row_t[t]
        p1 = 0
        if t + 3 < n:
            row_u = a[t + 1]
            c, d, q = row_t[t + 1], row_u[t], row_u[t + 1]
            p1 = (p0 * q - d * c) // prev
        step = 2 if p1 else 1
        if 0 < t <= depth < t + step:
            schur = t, prev, [row[t:] for row in a[t:]]
        if p1:
            tail_t = row_t[t + 2 :]
            tail_u = row_u[t + 2 :]
            for i in range(t + 2, n):
                row_i = a[i]
                x, y = row_i[t], row_i[t + 1]
                b = (p0 * y - x * c) // prev
                e = (d * y - q * x) // prev
                row_i[t + 2 :] = [
                    (p1 * v + e * vt - b * vu) // prev for v, vt, vu in zip(row_i[t + 2 :], tail_t, tail_u)
                ]
            prev = p1
        else:
            tail_t = row_t[t + 1 :]
            for i in range(t + 1, n):
                row_i = a[i]
                f = row_i[t]
                row_i[t + 1 :] = [(v * p0 - f * vt) // prev for v, vt in zip(row_i[t + 1 :], tail_t)]
            prev = p0
        t += step
    return n, sign * prev, minors, schur


def determinant(m) -> int:
    """Exact determinant by two-step Bareiss fraction-free elimination
    (``_bareiss``)."""
    rows = _square_rows(m, "determinant")
    rank, lead = _bareiss(rows)[:2]
    return lead if rank == len(rows) else 0


def _charpoly_hessenberg(h: list[list[int]], p: int) -> list[list[int]]:
    """Characteristic polynomials over Z/p of the leading m x m blocks of the
    Hessenberg form of a square matrix, for m = 0 .. n, ascending; the last
    is that of the whole matrix.

    The rows ``h`` must hold residues mod p; on return they hold H.  A
    similarity transform brings the matrix to upper Hessenberg form H: for
    each column k, any nonzero entry below the subdiagonal is swapped (row
    and column) to (k+1, k), the entries below it are cleared with its
    inverse, and the inverse column operation keeps the transform a
    similarity.  Basis vector 0 is never swapped or combined, so the
    transform fixes it.  The polynomials p_m of the leading blocks then
    follow from

        p_m = (x - h[m-1][m-1]) p_(m-1)
              - sum_i h[i][m-1] h[i+1][i] ... h[m-1][m-2] p_i,

    where a zero subdiagonal entry ends the product, so O(n^3) in all.  Only
    the pivots are inverted, so p need not be prime (see ``char_poly_int``).

    >>> h = [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    >>> _charpoly_hessenberg(h, 3)
    [[1], [0, 1], [1, 0, 1], [0, 1, 0, 1]]
    >>> h
    [[0, 2, 1], [1, 0, 0], [0, 0, 0]]
    """
    n = len(h)
    for k in range(n - 2):
        piv = next((i for i in range(k + 1, n) if h[i][k]), None)
        if piv is None:
            continue
        j = k + 1
        if piv != j:
            h[j], h[piv] = h[piv], h[j]
            for row in h:
                row[j], row[piv] = row[piv], row[j]
        tail = h[j][k:]
        inv = pow(tail[0], -1, p)
        mults = []
        for i in range(k + 2, n):
            row_i = h[i]
            v = row_i[k]
            if v:
                f = v * inv % p
                row_i[k:] = [(x - f * y) % p for x, y in zip(row_i[k:], tail)]
                mults.append((i, f))
        if mults:
            # row_i -= f row_j for each i is undone by col_j += f col_i
            for row in h:
                row[j] = (row[j] + sum(f * row[i] for i, f in mults)) % p
    polys = [[1]]
    for m in range(n):
        prev = polys[m]
        a = h[m][m]
        new = [0] + prev
        for d, c in enumerate(prev):
            new[d] -= a * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            c = t * h[i][m] % p
            if c:
                for d, v in enumerate(polys[i]):
                    new[d] -= c * v
        polys.append([v % p for v in new])
    return polys


def char_poly_int(m) -> tuple[int, ...]:
    """Monic characteristic polynomial det(xI - m), ascending coefficients;
    (1,) for the 0 x 0 matrix.

    The coefficient of x^k is (-1)^(n-k) times the sum of the principal
    minors of order n - k.  By Hadamard's inequality a minor is at most the
    product of its rows' Euclidean norms r_i, so |c_k| is at most the
    product of 1 + r_i over the rows, and so at most ``bound``, the product
    of 2 + isqrt(r_i^2).  The Hessenberg kernel runs once over Z/q for the
    first q >= 2 bound + 1 that ``is_prime`` accepts, and each residue above
    ``bound`` is lifted to c - q.  The result does not rest on q being
    prime: every step of the kernel is an elementary similarity and its
    recurrence has no division, so it is exact over Z/q whenever each pivot
    is invertible, and a pivot that is not makes ``pow(x, -1, q)`` raise.

    >>> char_poly_int([[0, 1], [1, 0]])
    (-1, 0, 1)
    """
    rows = _square_rows(m, "characteristic polynomial")
    bound = prod(2 + isqrt(sum(v * v for v in row)) for row in rows)
    q = 2 * bound + 1
    while not is_prime(q):
        q += 2  # q stays odd
    coeffs = _charpoly_hessenberg([[v % q for v in row] for row in rows], q)[-1]
    return tuple(c - q if c > bound else c for c in coeffs)


def _swap_to_pivot(a: list[list[int]], i: int, j: int) -> None:
    """Move entry (i, j) to (0, 0) by a row swap and a column swap."""
    a[0], a[i] = a[i], a[0]
    for row in a:
        row[0], row[j] = row[j], row[0]


def _coprime_split(mod: int, v: int) -> tuple[int, int]:
    """(m1, m2) with m1 * m2 = mod, where m1 is the largest divisor of mod
    whose primes all divide v, so gcd(m1, m2) = 1.  Repeated gcds, no
    factoring.

    >>> _coprime_split(2**3 * 3**2 * 5 * 7, 6)
    (72, 35)
    """
    m1, m2 = 1, mod
    g = gcd(mod, v)
    while g > 1:
        m1 *= g
        m2 //= g
        g = gcd(m2, g)
    return m1, m2


def _eliminate(a: list[list[int]], modulus: int) -> tuple[int, ...]:
    """Invariant factors gcd(d_i, modulus) of the square matrix ``a`` over
    Z/modulus, modulus >= 1, in place.

    The entries must come reduced mod ``modulus`` and stay in [0, M) for
    the current modulus M.  Every stage pivots on a unit (an active entry
    coprime to M): it is moved to (0, 0), each row below is cleared in one
    pass with its factor row_i[0] / pivot mod M, and the pivot's row and
    column leave the active block; the pivot row's tail needs no clearing,
    since column operations would touch no other row once column 0 is
    clear.  The stage factor is the multiplier alone.  An active block with
    no unit is made to hold one.  If g = gcd(M, block) > 1, g is divided
    out of the block and of M and into the multiplier; an all-zero block
    leaves M = 1, where every entry is a unit.  If g = 1, M has two coprime
    parts m1, m2 (``_coprime_split`` at an entry it splits), and the block
    is eliminated mod m1 and mod m2, its factors being the products of the
    two results (Chinese remainder theorem).  Each part has fewer distinct
    primes than M, so the recursion is less than omega(M) deep.
    Non-units can have gcd 1 with the modulus; here 6 splits into 2 * 3:

    >>> _eliminate([[2, 3], [3, 4]], 6)
    (1, 1)
    """
    mod = modulus
    factors: list[int] = []
    mult = 1
    while a:
        unit = next(((i, j) for i, row in enumerate(a) for j, v in enumerate(row) if gcd(v, mod) == 1), None)
        if unit is None:
            g = gcd(mod, *(v for row in a for v in row))
            if g > 1:
                for row in a:
                    row[:] = [v // g for v in row]
                mod //= g
                mult *= g
                continue
            splits = (_coprime_split(mod, v) for row in a for v in row)
            split = next((s for s in splits if s[1] > 1), None)
            if split is None:
                raise InvariantViolation(f"no active entry splits the modulus {mod}")
            parts = [_eliminate([[v % m for v in row] for row in a], m) for m in split]
            factors.extend(mult * x * y for x, y in zip(*parts))
            break
        _swap_to_pivot(a, *unit)
        inv = pow(a[0][0], -1, mod)
        tail = a[0][1:]
        for row_i in a[1:]:
            v = row_i[0]
            if v:
                f = v * inv % mod
                row_i[1:] = [(x - f * y) % mod for x, y in zip(row_i[1:], tail)]
        factors.append(mult)
        del a[0]
        for row in a:
            del row[0]
    return tuple(factors)


def smith_normal_form(m) -> SnfResult:
    """Invariant factors of an integer matrix under unimodular row/column ops.

    The rows are first ordered so that the leading minors Delta_1 ...
    Delta_r are odd (``_odd_leading_order``; r = rank_2 W for a walk
    matrix).  One two-step Bareiss elimination (``_bareiss``) of the
    ordered rows gives the rank, a nonzero minor ``lead`` of that size (the
    determinant, up to the order's sign, at full rank), the four
    (n-1)-minors of its active block at stage n-2, which it never passes
    over, and a copy of its active block B_t at the deepest stage t it
    visits up to min(r, n-2); since Delta_t != 0 for t <= r it swaps no row
    before stage r.  One elimination over Z/M gives gcd(d_i, M) for each i
    (Saunders-Wan's small-modulus idea).  At full rank M = gcd(|det|,
    those minors) is a multiple of d_1 ... d_(n-1), usually a small one
    (M = |a| for a 1x1 matrix a); the elimination yields d_1 ... d_(n-1)
    exactly, d_n = |det| / (d_1 ... d_(n-1)), and the determinant gives the
    sign.  Below full rank M = |lead|, which d_1 ... d_k divides (k the
    rank), so the first k factors over Z/M are d_1 ... d_k and the rest,
    which must read M, are 0; ``det_sign`` is 0.

    The elimination over Z/M starts from the Schur complement.  With W11 the
    leading t x t block of the ordered matrix, det W11 = Delta_t, and
    gcd(Delta_t, M) = 1, W11 is invertible over Z/M, and block LU gives

        W = [I 0; W21 W11^-1 I] [W11 0; 0 S] [I W11^-1 W12; 0 I]

    with S = W22 - W21 W11^-1 W12, so over Z/M W is equivalent to
    diag(W11, S) and so to diag(I_t, S).  By Sylvester's identity B_t =
    Delta_t S, and Delta_t is a unit mod M, so B_t has the Smith form of S
    over Z/M: the factors are t ones followed by those of B_t mod M.  When
    gcd(Delta_t, M) > 1 (an odd prime of M divides Delta_t), or no stage
    was kept, t = 0 and the whole matrix is eliminated mod M by the same
    lines.  At full rank M divides Delta_(n-1), one of the trailing minors,
    so no stage past n-2 could be used: hence the cap.

    Entries stay below M throughout.  Every stage is one pivot inverse and
    one pass over the rows below: a block without a unit mod M first has
    its gcd with M divided out, and if that gcd is 1 the modulus is split
    into two coprime parts (``_eliminate``).  On the walk matrices of 222
    pool graphs (n = 10..30 with k < 10, n = 48 with k < 12) the Schur
    start is taken for 201, with t = 2,018 in all.  It falls back for 18
    of the 208 nonsingular ones, where 3 (once 5) divides both Delta_t and
    M, and for 3 of the 14 singular ones.  The elimination mod M then
    makes 2,301 stages that find a unit at once and 493 that find one after
    a division, and meets 29 all-zero blocks and 13 splits; eliminating
    each whole matrix took 4,322, 494, 30 and 14.
    """
    rows = _square_rows(m, "smith normal form")
    n = len(rows)
    r, order_sign = _odd_leading_order(rows)
    rank, lead, minors, schur = _bareiss(rows, min(r, n - 2))
    if rank == 0:
        # the empty matrix has det 1; a zero matrix has every d_i = 0
        return SnfResult((0,) * n, 1 if n == 0 else 0)
    modulus = gcd(lead, *minors) if rank == n else abs(lead)
    t, delta, block = schur or (0, 1, m)
    del rows, schur  # stale once Bareiss is done: keep them out of the elimination's peak
    if gcd(delta, modulus) > 1:
        t, block = 0, m
    factors = (1,) * t + _eliminate([[v % modulus for v in row] for row in block], modulus)
    if rank < n:
        if any(d != modulus for d in factors[rank:]):
            raise InvariantViolation("modular invariant factors disagree with the Bareiss rank")
        return SnfResult(factors[:rank] + (0,) * (n - rank), 0)
    dn, rem = divmod(abs(lead), prod(factors[:-1]))
    if rem or factors[-1] != gcd(dn, modulus) or (n > 1 and dn % factors[-2]):
        raise InvariantViolation("modular invariant factors disagree with the Bareiss determinant")
    return SnfResult(factors[:-1] + (dn,), 1 if order_sign * lead > 0 else -1)


def rational_solve(m, b) -> list[list[Fraction]]:
    """Exact solution X of m @ X = b for nonsingular square m, both sequences
    of integer rows."""
    rows = _square_rows(m, "rational solve")
    n = len(rows)
    if len(b) != n or any(len(row) != len(b[0]) for row in b):
        raise ValueError("right-hand side does not match the system")
    aug = [[Fraction(v) for v in (*row, *tail)] for row, tail in zip(rows, b)]
    for k in range(n):
        piv = next((r for r in range(k, n) if aug[r][k]), None)
        if piv is None:
            raise ValueError("singular coefficient matrix")
        if piv != k:
            aug[k], aug[piv] = aug[piv], aug[k]
        inv = 1 / aug[k][k]
        aug[k] = [v * inv for v in aug[k]]
        for r in range(n):
            if r != k and aug[r][k]:
                f = aug[r][k]
                aug[r] = [vr - f * vk for vr, vk in zip(aug[r], aug[k])]
    return [row[n:] for row in aug]
