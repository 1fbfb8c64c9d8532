"""Immutable graph and tournament types with bitset adjacency rows.

Vertices are the integers 0..n-1.  Adjacency is stored as one Python int
per vertex, bit b of ``adj[a]`` set iff a is adjacent to b, so that
common-neighbor counts are word-parallel ``(adj[a] & adj[b]).bit_count()``
calls.  That popcount trick is the performance foundation of the census.

Every ``Graph`` and ``Tournament`` is validated when it is made.  Its
constructor makes one call (``_checked_square``) of word-parallel
operations on its rows packed into one int: row a occupies bits
a*stride .. a*stride + stride - 1, with stride = max(8, the next power of
two >= n), so that for n <= 8 the packed matrix is just ``bytes(rows)``
read little-endian.  The packed matrix is
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

A census block checks its graphs a whole array at a time instead:
``graphs_from_words`` takes their stride-8 matrices (n <= 8, one uint64
word each) and runs the same forbidden-cell mask, delta-swaps and XOR over
the array in one numpy pass (``_bad_words``).  When every word passes, its
graphs are made without a second check; when any fails, every one is made
by the constructor, so the first bad word raises the constructor's own
message, after the graphs before it.

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

numpy loads at its first use, not at import: ``np`` below is bound by the
stdlib lazy-import recipe (``importlib.util.LazyLoader``), or to numpy as
it is when it is already imported.  This module binds it because it holds
the triple kernels' bit-row plumbing and every module that runs numpy
already imports it; those modules take ``np`` from here, so one place
decides how numpy loads.  numpy's import is most of a fresh command's
start-up, and the closed-form classifier on up to 24 vertices,
``generate`` and every refusal of bad input run no numpy kernel;
``verify``, ``dims``, every census and the classifier on larger graphs
load it at their first numpy call.  The lazy module sits in the
process-wide ``sys.modules["numpy"]``, so a program that imports spinweb
as a library gets it from its own ``import numpy`` too.  A missing numpy
still fails ``import spinweb`` with ``ModuleNotFoundError``; a numpy that
is found but fails to import fails at the first numpy call instead.
Before Python 3.12 the first attribute access of a lazy module is not
thread-safe: two threads that first touch numpy at once can see it half
initialised, so such a program should import numpy before it starts them.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from collections.abc import Iterator
from itertools import combinations, repeat

if "numpy" in sys.modules:
    np = sys.modules["numpy"]
else:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(np)

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


def rows_of_words(n: int, words: np.ndarray) -> Iterator[tuple[int, ...]]:
    """The rows of each stride-8 packed n x n matrix of a '<u8' array, in order.

    Byte i of a word is row i; bytes n..7 are not read.  The tuples are
    zipped from the row columns as they are taken, so a caller never holds
    all of them at once.
    """
    return zip(*words.view("<u1").reshape(-1, 8)[:, :n].T.tolist())


_set_n, _set_adj = Graph.n.__set__, Graph.adj.__set__    # the slots, past Record.__setattr__


def _checked_graph(n: int, adj: tuple[int, ...]) -> Graph:
    """The ``Graph`` of rows that ``graphs_from_words`` has already checked."""
    graph = object.__new__(Graph)
    _set_n(graph, n)
    _set_adj(graph, adj)
    return graph


def _bad_words(n: int, words: np.ndarray) -> np.ndarray:
    """Per stride-8 packed n x n matrix of a '<u8' array, whether it is no graph.

    One numpy pass with the masks of ``_checked_square``: a matrix is bad
    when a forbidden cell is set, or a cell a < b < n of its XOR with the
    transpose, made by the same delta-swaps.  Bytes n..7 are not read.
    """
    _, forbidden, upper, swaps = _SQUARES.get(n) or _SQUARES.setdefault(n, _square_masks(n))
    transposed = words
    for shift, mask in swaps:
        swap = (transposed ^ (transposed >> shift)) & mask
        transposed = transposed ^ swap ^ (swap << shift)
    return ((words & forbidden) | ((words ^ transposed) & upper)) != 0


def graphs_from_words(n: int, words: np.ndarray) -> Iterator[Graph]:
    """The ``Graph`` of each stride-8 packed n x n matrix of a '<u8' array, in order.

    The rows are those of ``rows_of_words`` (1 <= n <= 8), and the whole
    array is checked at once by ``_bad_words``.  When every matrix passes,
    each ``Graph`` is made without a second check.  When any fails, every
    ``Graph`` is made by the constructor, so the objects before the first
    bad matrix are yielded and that one raises the constructor's message.
    """
    if not 1 <= n <= 8:
        raise ValueError(f"a packed word holds 1 to 8 rows, got n = {n}")
    rows = rows_of_words(n, words)
    if _bad_words(n, words).any():
        return map(Graph, repeat(n), rows)
    return map(_checked_graph, repeat(n), rows)


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
