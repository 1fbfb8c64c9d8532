"""Immutable graph and tournament types with bitset adjacency rows.

Vertices are the integers 0..n-1.  Adjacency is stored as one Python int
per vertex, bit b of ``adj[a]`` set iff a is adjacent to b, so that
common-neighbor counts are word-parallel ``(adj[a] & adj[b]).bit_count()``
calls.  That popcount trick is the performance foundation of the census.

Every ``Graph`` and ``Tournament`` is validated when it is made, by one
call (``_checked_square``) of word-parallel operations on its rows packed
into one int: row a occupies bits a*stride .. a*stride + stride - 1, with
stride = max(8, the next power of two >= n), so that for n <= 8 the packed
matrix is just ``bytes(rows)`` read little-endian.  The packed matrix is
transposed, in the same call, by log2(stride) masked delta-swaps (step s
exchanges the cells (i, j) and (i + s, j - s) for i with bit s clear and j
with bit s set); the masks of each n are kept in a dict after its first
graph, and a stride-128 matrix (Higman-Sims) needs seven swap masks of 2 KB.
Bits outside 0..n-1 and loops are one AND with a cached mask of the
forbidden cells (the diagonal and columns n .. stride - 1 of each row); a
row that does not fit in stride bits, or is negative, fails the packing.
Either way the rows are then walked one by one to name the first bad
row, so that its bits outside 0..n-1 are reported before its loop and a
row's errors before any later row's.  Symmetry (or, for a tournament,
exactly one arc per pair) is one XOR with the transpose, masked to the cells
above the diagonal.  The lowest set bit of a failing mask names the same
first pair, with the same message, as a pair-by-pair scan.

Every order is at most MAX_ORDER = 511, checked where a graph enters: by
the ``Graph`` and ``Tournament`` constructors, at the top of each sized
generator before any row is built, and by the graph6 size field.  It is
the largest n for which every triple-profile key of the oracle's kernel
fits one nonnegative int64: a key lies below I^3 (n + 1) for I <= n^2
pair ids, and (511^2)^3 * 512 <= 2^63 < (512^2)^3 * 513.

Every record of the package, graphs and results alike, is a plain class
with ``__slots__`` or a ``typing.NamedTuple``, not a ``dataclass``, whose
class creation runs generated code through ``exec`` at import.  The
frozen slotted ones derive from ``Record`` below.

The two numpy triple kernels (the classifier's 3-point parameters on
large graphs, and the oracle's triple profiles) share the bit-row
plumbing at the end of this module: rows packed into int64 words,
flat-array windows and row tiles.  They share no decision logic.
"""

from __future__ import annotations

import functools
from itertools import combinations

import numpy as np

WORD_BITS = 62       # bits per packed int64 word; np.bitwise_count counts |x|
WORD_MASK = (1 << WORD_BITS) - 1
MAX_ORDER = 511      # the largest supported n: I^3 (n + 1) <= 2^63 for I <= n^2


class BadOrder(ValueError):
    """A generator was asked for a size/parameter it cannot realize."""


class Record:
    """An immutable record whose fields are the ``__slots__`` of its classes, base first.

    Each subclass's ``__init__`` fills its slots with ``object.__setattr__``.
    Two records are equal, and hash alike, when they are of the same class
    and their fields are equal, so records of two classes never compare
    equal, nor does a record and a tuple.  A record pickles by calling its
    class with its fields, which runs any check of its ``__init__`` again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += cls.__slots__

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Graph(Record):
    """Undirected simple graph on vertices 0..n-1, loop-free, n >= 1."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"graph needs 1 to {MAX_ORDER} vertices, got {n}")
        if len(adj) != n:
            raise ValueError("adjacency row count != n")
        packed, transposed, upper = _checked_square(adj, n)
        bad = (packed ^ transposed) & upper
        if bad:
            a, b = _first_cell(bad, n)
            raise ValueError(f"asymmetric adjacency at ({a},{b})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        rows = [0] * n
        for a, b in edges:
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        return cls(n, tuple(rows))

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]


class Tournament(Record):
    """Directed graph with exactly one arc between every pair of vertices."""

    __slots__ = ("n", "arc")

    def __init__(self, n: int, arc: tuple[int, ...]):
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"tournament needs 1 to {MAX_ORDER} vertices, got {n}")
        if len(arc) != n:
            raise ValueError("arc row count != n")
        packed, transposed, upper = _checked_square(arc, n)
        bad = (packed ^ transposed ^ upper) & upper
        if bad:
            a, b = _first_cell(bad, n)
            raise ValueError(f"pair ({a},{b}) must carry exactly one arc")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arc", arc)

    @classmethod
    def from_arcs(cls, n: int, arcs) -> "Tournament":
        rows = [0] * n
        for a, b in arcs:
            rows[a] |= 1 << b
        return cls(n, tuple(rows))


def complement(g: Graph) -> Graph:
    """Graph with the same vertices and exactly the missing edges of g."""
    mask = (1 << g.n) - 1
    return Graph(g.n, tuple((mask & ~row & ~(1 << a)) for a, row in enumerate(g.adj)))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _check_order(n: int) -> None:
    """Refuse an order above MAX_ORDER before anything of that size is built."""
    if n > MAX_ORDER:
        raise BadOrder(f"order {n} is above the largest supported order {MAX_ORDER}")


def complete(n: int) -> Graph:
    if n < 1:
        raise BadOrder("complete graph needs n >= 1")
    _check_order(n)
    mask = (1 << n) - 1
    return Graph(n, tuple(mask & ~(1 << a) for a in range(n)))


def union_complete(m: int, size: int) -> Graph:
    """Disjoint union of m complete graphs of the given size (mK_size)."""
    if m < 1 or size < 1:
        raise BadOrder("union_complete needs m >= 1 and size >= 1")
    n = m * size
    _check_order(n)
    rows = []
    for a in range(n):
        block = a // size
        block_mask = ((1 << size) - 1) << (block * size)
        rows.append(block_mask & ~(1 << a))
    return Graph(n, tuple(rows))


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadOrder("cycle needs n >= 3")
    _check_order(n)
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
    _check_order(q)
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
    _check_order(n)
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
# packed n x n bit matrices: validation and transposes
# ---------------------------------------------------------------------------

_LOW_SWAP_BYTES = {4: 0xF0, 2: 0xCC, 1: 0xAA}   # columns of a byte with bit s set


def matrix_stride(n: int) -> int:
    """Bits per row of a packed n x n matrix: max(8, next power of two >= n)."""
    return max(8, 1 << (n - 1).bit_length())


@functools.cache
def _swap_masks(stride: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta-swap of a stride x stride transpose.

    Step s = stride/2, ..., 2, 1 swaps cell (i, j) with cell (i + s, j - s),
    which lies s * (stride - 1) bits higher, for every row i with bit s clear
    and column j with bit s set; the mask holds the lower cell of each pair.
    """
    width = stride // 8
    steps = []
    s = stride // 2
    while s:
        if s >= 8:
            row = (bytes(s // 8) + b"\xff" * (s // 8)) * (stride // (2 * s))
        else:
            row = bytes([_LOW_SWAP_BYTES[s]]) * width
        rows = (row * s + bytes(width * s)) * (stride // (2 * s))
        steps.append((s * (stride - 1), int.from_bytes(rows, "little")))
        s //= 2
    return tuple(steps)


def _square_masks(n: int) -> tuple[int, int, int, tuple[tuple[int, int], ...]]:
    """(stride, forbidden cells, cells a < b < n, swap masks) of an n x n matrix.

    The forbidden cells are the diagonal and every column >= n of a row.
    """
    stride = matrix_stride(n)
    outside = (1 << stride) - (1 << n)
    full = (1 << n) - 1
    return (stride, sum((outside | (1 << a)) << (a * stride) for a in range(n)),
            sum((full ^ ((2 << a) - 1)) << (a * stride) for a in range(n)), _swap_masks(stride))


_SQUARES: dict[int, tuple] = {}     # n -> _square_masks(n), filled by its first graph


def _checked_square(rows, n: int) -> tuple[int, int, int]:
    """Pack n validated rows; returns (packed, transposed, mask of cells a < b).

    Raises the error of the first bad row: bits outside 0..n-1, else a loop.
    """
    stride, forbidden, upper, swaps = _SQUARES.get(n) or _SQUARES.setdefault(n, _square_masks(n))
    try:
        if stride == 8:
            packed = int.from_bytes(bytes(rows), "little")
        else:
            width = stride // 8
            packed = int.from_bytes(b"".join([row.to_bytes(width, "little") for row in rows]),
                                    "little")
    except (ValueError, OverflowError):     # a row is negative or wider than stride
        packed = forbidden
    if packed & forbidden:
        mask = (1 << n) - 1
        for a, row in enumerate(rows):
            if row & ~mask:
                raise ValueError(f"row {a} has bits outside 0..n-1")
            if (row >> a) & 1:
                raise ValueError(f"loop at vertex {a}")
    transposed = packed
    for shift, mask in swaps:
        swap = (transposed ^ (transposed >> shift)) & mask
        transposed ^= swap ^ (swap << shift)
    return packed, transposed, upper


def _first_cell(bits: int, n: int) -> tuple[int, int]:
    """(row, column) of the lowest set bit of a packed n x n matrix."""
    return divmod((bits & -bits).bit_length() - 1, matrix_stride(n))


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


def window(array: np.ndarray, start: int, shape, pitch: int | None = None) -> np.ndarray:
    """Elements of a flat array from ``start``, as a writable view of ``shape``.

    ``shape`` is a count, or (rows, width) for that many rows of the
    elements that follow; with a ``pitch``, row i starts ``pitch`` * i
    elements after ``start`` instead of right after row i - 1.
    """
    strides = None if pitch is None else (pitch * array.itemsize, array.itemsize)
    return np.ndarray(shape, array.dtype, array, start * array.itemsize, strides)


def fill_rows(tile: np.ndarray, rows: np.ndarray, n: int, height: int) -> None:
    """Copy each n-element row of the flat ``rows`` into ``height`` rows of a flat tile.

    The copies of a row are consecutive and follow those of the row before.
    """
    data = memoryview(rows).cast("B")
    width = n * rows.itemsize
    cells = memoryview(tile).cast("B")
    for start in range(0, len(data), width):
        cells[start * height:(start + width) * height] = \
            data[start:start + width].tobytes() * height
