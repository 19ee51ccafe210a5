"""Simple undirected graphs: representation, graph6 codec, seeded generation.

Graphs are immutable and capped at 64 vertices so each adjacency row fits in
one machine word; all heavy integer work happens in the matrix layer, not
here.  Vertices are indexed 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_VERTICES = 64

_M64 = (1 << 64) - 1
# xorshift64* has 0 as a fixed point; a zero seed is remapped to this constant
# (the 64-bit golden ratio) so every seed yields a usable stream.
_ZERO_SEED_SUBSTITUTE = 0x9E3779B97F4A7C15


class Graph6Error(ValueError):
    """Malformed graph6 record; the message names the failing byte offset."""


class Xorshift64Star:
    """Deterministic 64-bit PRNG (xorshift64*, Vigna's variant).

    State update and output, all modulo 2**64:

        x ^= x >> 12
        x ^= x << 25
        x ^= x >> 27
        output = x * 0x2545F4914F6CDD1D

    The recurrence is fixed by this docstring: identical seeds must produce
    identical streams on every platform and in every future version.
    """

    __slots__ = ("_x",)

    def __init__(self, seed: int):
        self._x = (seed & _M64) or _ZERO_SEED_SUBSTITUTE

    def next_u64(self) -> int:
        x = self._x
        x ^= x >> 12
        x ^= (x << 25) & _M64
        x ^= x >> 27
        self._x = x
        return (x * 0x2545F4914F6CDD1D) & _M64

    def next_bit(self) -> int:
        """Top bit of the next output word (the strongest bit of xorshift64*)."""
        return self.next_u64() >> 63


def derive_seed(master: int, *parts: int) -> int:
    """Mix integers into a master seed, order-sensitively but deterministically.

    Used to give every work item (sample index, vertex count, ...) its own
    reproducible stream regardless of processing order.
    """
    state = master & _M64
    for part in parts:
        state ^= (part * 0x9E3779B97F4A7C15) & _M64
        state = Xorshift64Star(state).next_u64()
    return state


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph; ``rows[i]`` is the neighbor bitmask of vertex i."""

    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} outside supported range 1..{MAX_VERTICES}")
        if len(self.rows) != self.n:
            raise ValueError("row count does not match vertex count")
        mask = (1 << self.n) - 1
        for i, row in enumerate(self.rows):
            if row & ~mask:
                raise ValueError(f"row {i} has bits beyond vertex {self.n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if (self.rows[i] >> j & 1) != (self.rows[j] >> i & 1):
                    raise ValueError(f"adjacency not symmetric at ({i}, {j})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for i, j in edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        return cls(n, tuple(rows))

    @classmethod
    def from_adjacency(cls, matrix) -> "Graph":
        """Build from an n x n iterable of 0/1 values (validated)."""
        rows = [list(r) for r in matrix]
        n = len(rows)
        bit_rows = [0] * n
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("adjacency matrix is not square")
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError(f"adjacency entry at ({i}, {j}) is not 0/1")
                if v:
                    bit_rows[i] |= 1 << j
        return cls(n, tuple(bit_rows))

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, i: int) -> int:
        return self.rows[i].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def adjacency(self) -> list[list[int]]:
        """Dense 0/1 adjacency matrix as nested lists."""
        return [[(r >> j) & 1 for j in range(self.n)] for r in self.rows]

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, tuple((full ^ r ^ (1 << i)) for i, r in enumerate(self.rows)))


def _pair_order(n: int):
    # graph6 bit order: upper triangle, column by column
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    """Decode a single headerless graph6 record."""
    s = text.strip()
    if not s:
        raise Graph6Error("empty graph6 record")
    for k, ch in enumerate(s):
        if not 63 <= ord(ch) <= 126:
            raise Graph6Error(f"invalid graph6 character {ch!r} at byte {k}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body_at = 1
    else:
        if len(s) >= 2 and s[1] == "~":
            raise Graph6Error("8-byte vertex counts exceed the supported range (byte 1)")
        if len(s) < 4:
            raise Graph6Error(f"truncated vertex count (record ends at byte {len(s)})")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body_at = 4
    if n < 1 or n > MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside supported range 1..{MAX_VERTICES} (byte 0)")
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    body = s[body_at:]
    if len(body) != ngroups:
        raise Graph6Error(
            f"expected {ngroups} edge bytes for n={n}, found {len(body)} (byte {body_at + min(len(body), ngroups)})"
        )
    bits = 0
    for ch in body:
        bits = (bits << 6) | (ord(ch) - 63)
    pad = 6 * ngroups - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error(f"nonzero padding bits in final group (byte {body_at + ngroups - 1})")
    bits >>= pad
    rows = [0] * n
    for k, (i, j) in enumerate(_pair_order(n)):
        if bits >> (nbits - 1 - k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def emit_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (inverse of parse_graph6)."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    nbits = n * (n - 1) // 2
    bits = 0
    for i, j in _pair_order(n):
        bits = (bits << 1) | (g.rows[i] >> j & 1)
    pad = (6 - nbits % 6) % 6
    bits <<= pad
    groups = []
    for k in range((nbits + pad) // 6 - 1, -1, -1):
        groups.append(chr(63 + ((bits >> (6 * k)) & 63)))
    return head + "".join(groups)


def parse_adjacency(text: str) -> Graph:
    """Parse the plain text format: n lines of n space-separated 0/1 tokens."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty adjacency matrix")
    try:
        matrix = [[int(tok) for tok in row] for row in lines]
    except ValueError as exc:
        raise ValueError(f"non-integer token in adjacency matrix: {exc}") from None
    return Graph.from_adjacency(matrix)


def emit_adjacency(g: Graph) -> str:
    return "\n".join(" ".join(str(v) for v in row) for row in g.adjacency()) + "\n"


def random_graph(n: int, seed: int) -> Graph:
    """Erdos-Renyi G(n, 1/2) sample, reproducible bit-for-bit from the seed.

    Each unordered pair (i, j), i < j, taken in row-major order, is an edge
    iff the top bit of the next xorshift64* output is set.
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside supported range 1..{MAX_VERTICES}")
    gen = Xorshift64Star(seed)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if gen.next_bit():
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(n, tuple(rows))
