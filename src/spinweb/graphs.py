"""Immutable graph and tournament types with bitset adjacency rows.

Vertices are the integers 0..n-1.  Adjacency is stored as one Python int
per vertex, bit b of ``adj[a]`` set iff a is adjacent to b, so that
common-neighbor counts are word-parallel ``(adj[a] & adj[b]).bit_count()``
calls.  That popcount trick is the performance foundation of the census.

The two numpy triple kernels (the classifier's 3-point parameters and the
oracle's triple profiles) share the bit-row plumbing at the end of this
module: rows packed into int64 words, flat-array windows and row tiles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

WORD_BITS = 62       # bits per packed int64 word; np.bitwise_count counts |x|
WORD_MASK = (1 << WORD_BITS) - 1


class BadOrder(ValueError):
    """A generator was asked for a size/parameter it cannot realize."""


class PairType(enum.Enum):
    EQUAL = "equal"
    ADJACENT = "adjacent"
    NON_ADJACENT = "non-adjacent"


class TripleType(enum.Enum):
    """Induced subgraph on three distinct vertices, by edge count 3..0."""

    TRIANGLE = 3
    LAMBDA = 2
    ANTI_LAMBDA = 1
    ANTI_TRIANGLE = 0
    DEGENERATE = -1


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1, loop-free, n >= 1."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count != n")
        mask = (1 << self.n) - 1
        for a, row in enumerate(self.adj):
            if row & ~mask:
                raise ValueError(f"row {a} has bits outside 0..n-1")
            if (row >> a) & 1:
                raise ValueError(f"loop at vertex {a}")
        for a in range(self.n):
            for b in range(a + 1, self.n):
                if ((self.adj[a] >> b) & 1) != ((self.adj[b] >> a) & 1):
                    raise ValueError(f"asymmetric adjacency at ({a},{b})")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(n, tuple(rows))

    def has_edge(self, a: int, b: int) -> bool:
        return bool((self.adj[a] >> b) & 1)

    def degree(self, a: int) -> int:
        return self.adj[a].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def edges(self) -> list[tuple[int, int]]:
        return [(a, b) for a in range(self.n) for b in range(a + 1, self.n)
                if (self.adj[a] >> b) & 1]

    def edge_count(self) -> int:
        return sum(self.degrees()) // 2


@dataclass(frozen=True)
class Tournament:
    """Directed graph with exactly one arc between every pair of vertices."""

    n: int
    arc: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tournament needs at least one vertex")
        if len(self.arc) != self.n:
            raise ValueError("arc row count != n")
        mask = (1 << self.n) - 1
        for a, row in enumerate(self.arc):
            if row & ~mask:
                raise ValueError(f"row {a} has bits outside 0..n-1")
            if (row >> a) & 1:
                raise ValueError(f"loop at vertex {a}")
        for a in range(self.n):
            for b in range(a + 1, self.n):
                fwd = (self.arc[a] >> b) & 1
                bwd = (self.arc[b] >> a) & 1
                if fwd + bwd != 1:
                    raise ValueError(f"pair ({a},{b}) must carry exactly one arc")

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Tournament":
        rows = [0] * n
        for a, b in arcs:
            rows[a] |= 1 << b
        return cls(n, tuple(rows))

    def has_arc(self, a: int, b: int) -> bool:
        return bool((self.arc[a] >> b) & 1)

    def out_degree(self, a: int) -> int:
        return self.arc[a].bit_count()

    def in_degree(self, a: int) -> int:
        return sum((self.arc[b] >> a) & 1 for b in range(self.n))


def complement(g: Graph) -> Graph:
    """Graph with the same vertices and exactly the missing edges of g."""
    mask = (1 << g.n) - 1
    return Graph(g.n, tuple((mask & ~row & ~(1 << a)) for a, row in enumerate(g.adj)))


def pair_type(g: Graph, a: int, b: int) -> PairType:
    if a == b:
        return PairType.EQUAL
    return PairType.ADJACENT if g.has_edge(a, b) else PairType.NON_ADJACENT


def triple_type(g: Graph, a: int, b: int, c: int) -> TripleType:
    if a == b or b == c or a == c:
        return TripleType.DEGENERATE
    count = (int(g.has_edge(a, b)) + int(g.has_edge(b, c)) + int(g.has_edge(a, c)))
    return TripleType(count)


def is_connected(g: Graph) -> bool:
    return len(connected_components(g)) == 1


def connected_components(g: Graph) -> list[list[int]]:
    remaining = (1 << g.n) - 1
    comps = []
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        seen = 1 << start
        frontier = seen
        while frontier:
            nxt = 0
            f = frontier
            a = 0
            while f:
                if f & 1:
                    nxt |= g.adj[a]
                f >>= 1
                a += 1
            frontier = nxt & ~seen
            seen |= frontier
        comps.append([v for v in range(g.n) if (seen >> v) & 1])
        remaining &= ~seen
    return comps


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def complete(n: int) -> Graph:
    if n < 1:
        raise BadOrder("complete graph needs n >= 1")
    mask = (1 << n) - 1
    return Graph(n, tuple(mask & ~(1 << a) for a in range(n)))


def union_complete(m: int, size: int) -> Graph:
    """Disjoint union of m complete graphs of the given size (mK_size)."""
    if m < 1 or size < 1:
        raise BadOrder("union_complete needs m >= 1 and size >= 1")
    n = m * size
    rows = []
    for a in range(n):
        block = a // size
        block_mask = ((1 << size) - 1) << (block * size)
        rows.append(block_mask & ~(1 << a))
    return Graph(n, tuple(rows))


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadOrder("cycle needs n >= 3")
    return Graph.from_edges(n, [(a, (a + 1) % n) for a in range(n)])


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def paley(q: int) -> Graph:
    """Paley graph on Z_q, edges along quadratic residues.

    q must be a prime with q = 1 (mod 4).  q = 9 is also accepted and built
    as the 3x3 lattice (rook's) graph, which is isomorphic to Paley(9).
    """
    if q == 9:
        edges = []
        cells = [(i, j) for i in range(3) for j in range(3)]
        for u, (i, j) in enumerate(cells):
            for v, (k, l) in enumerate(cells):
                if u < v and (i == k or j == l):
                    edges.append((u, v))
        return Graph.from_edges(9, edges)
    if not _is_prime(q) or q % 4 != 1:
        raise BadOrder("paley(q) needs a prime q = 1 (mod 4), or q = 9")
    residues = {(x * x) % q for x in range(1, q)}
    return Graph.from_edges(q, [(a, b) for a in range(q) for b in range(a + 1, q)
                                if (b - a) % q in residues])


def clebsch() -> Graph:
    """Graph on F_2^4: x ~ y iff the Hamming weight of x XOR y is 1 or 4."""
    return Graph.from_edges(16, [(x, y) for x in range(16) for y in range(x + 1, 16)
                                 if (x ^ y).bit_count() in (1, 4)])


def petersen() -> Graph:
    """Kneser(5,2): vertices are 2-subsets of {0..4}, edges join disjoint ones."""
    subsets = list(combinations(range(5), 2))
    return Graph.from_edges(10, [(u, v) for u in range(10) for v in range(u + 1, 10)
                                 if not set(subsets[u]) & set(subsets[v])])


def circulant_tournament(n: int, outset) -> Tournament:
    """Tournament on Z_n with an arc a -> b iff (b - a) mod n is in outset.

    n must be odd and outset must contain exactly one of {d, n-d} for every
    d in 1..n-1, which makes the result a regular tournament.
    """
    outset = set(outset)
    if n < 1 or n % 2 == 0:
        raise BadOrder(f"circulant tournament needs odd n, got {n}")
    if any(d < 1 or d >= n for d in outset):
        raise BadOrder("outset entries must lie in 1..n-1")
    for d in range(1, n):
        if ((d in outset) + ((n - d) in outset)) != 1:
            raise BadOrder("outset must contain exactly one of {d, n-d} per pair")
    return Tournament.from_arcs(
        n, [(a, (a + d) % n) for a in range(n) for d in outset])


# ---------------------------------------------------------------------------
# bit-row plumbing of the numpy triple kernels
# ---------------------------------------------------------------------------

def pack_rows(rows, n: int) -> list[np.ndarray]:
    """Bitset rows on n vertices as int64 arrays, one per WORD_BITS-bit word.

    Entry v of array w holds bits w*WORD_BITS.. of ``rows[v]``; bit 63 of
    every entry stays clear, so ``np.bitwise_count`` counts exactly them.
    """
    return [np.fromiter(((row >> shift) & WORD_MASK for row in rows),
                        dtype=np.int64, count=n) for shift in range(0, n, WORD_BITS)]


def window(array: np.ndarray, start: int, count: int) -> np.ndarray:
    """``count`` elements of a flat array from ``start``, as a writable view."""
    return np.frombuffer(array, dtype=array.dtype, count=count,
                         offset=start * array.itemsize)


def fill_rows(tile: np.ndarray, row: np.ndarray, n: int, height: int) -> None:
    """Copy the n-element ``row`` into each of ``height`` rows of a flat tile."""
    memoryview(tile).cast("B")[:height * n * tile.itemsize] = \
        memoryview(row).tobytes() * height
