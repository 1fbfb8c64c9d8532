"""Regularity, strong regularity and 3-point regularity.

Parameter conventions: a class with no pair (or triple) of the relevant
kind reports value 0 with its vacuity flag set, mirroring the usual habit
of writing srg(3,2,1,0) for the triangle while keeping vacuity detectable.

Common-neighbor counts are bitset ANDs plus popcounts.  The one triple
scan, ``three_point_params``, stops once one edge count shows two
common-neighbor counts.  Graphs on up to _LOOP_MAX_N vertices take a plain
loop over the triples; larger ones take an exact int64-popcount numpy
kernel with one rectangle of cells per middle vertex, which histograms
(edge count, common-neighbor count).  The complement's parameters are
derived from the graph's by inclusion-exclusion
(``complement_three_point_params``), so the classifier scans once.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .graphs import Graph, Record, fill_rows, np, pack_rows, window

_LOOP_MAX_N = 24     # graphs up to this order take the plain triple scan
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class VacuousParameter(ValueError):
    """A formula was asked to use a parameter whose class is empty."""


class SrgParams(Record):
    """Strong-regularity parameters (n, k, lambda, mu) with the two vacuity flags."""

    __slots__ = ("n", "k", "lam", "mu", "lam_vacuous", "mu_vacuous")

    def __init__(self, n: int, k: int, lam: int, mu: int,
                 lam_vacuous: bool = False, mu_vacuous: bool = False):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "lam_vacuous", lam_vacuous)
        object.__setattr__(self, "mu_vacuous", mu_vacuous)

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)


class ThreePointParams(NamedTuple):
    """Common-neighbor counts q3..q0 for triangle, lambda, anti-lambda,
    anti-triangle triples, with per-type vacuity flags."""

    srg: SrgParams
    q3: int
    q2: int
    q1: int
    q0: int
    q3_vacuous: bool = False
    q2_vacuous: bool = False
    q1_vacuous: bool = False
    q0_vacuous: bool = False

    def q_vector(self) -> tuple[int, int, int, int]:
        return (self.q3, self.q2, self.q1, self.q0)

    def any_vacuous(self) -> bool:
        return self.q3_vacuous or self.q2_vacuous or self.q1_vacuous or self.q0_vacuous


def regularity(g: Graph) -> int | None:
    """Common degree k if every vertex has it, else None."""
    k = g.adj[0].bit_count()
    for row in g.adj:
        if row.bit_count() != k:
            return None
    return k


def srg_params(g: Graph) -> SrgParams | None:
    """Strong-regularity parameters, or None if counts are not constant."""
    k = regularity(g)
    if k is None:
        return None
    lam = mu = None
    for a in range(g.n):
        row_a = g.adj[a]
        for b in range(a + 1, g.n):
            common = (row_a & g.adj[b]).bit_count()
            if (row_a >> b) & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return SrgParams(
        n=g.n, k=k,
        lam=0 if lam is None else lam,
        mu=0 if mu is None else mu,
        lam_vacuous=lam is None,
        mu_vacuous=mu is None,
    )


def three_point_params(g: Graph, srg: SrgParams | None = None) -> ThreePointParams | None:
    """3-point-regularity parameters over distinct triples, or None.

    Returns a value only when the graph is already strongly regular and the
    common-neighbor count of every distinct triple depends only on its
    induced type.  ``srg`` is g's ``srg_params`` when the caller already
    has them.
    """
    if srg is None:
        srg = srg_params(g)
    if srg is None:
        return None
    counts = _common_counts_by_type(g, srg.k)   # index = edge count
    if counts is None:
        return None
    return ThreePointParams(
        srg=srg,
        q3=counts[3] or 0, q2=counts[2] or 0, q1=counts[1] or 0, q0=counts[0] or 0,
        q3_vacuous=counts[3] is None, q2_vacuous=counts[2] is None,
        q1_vacuous=counts[1] is None, q0_vacuous=counts[0] is None,
    )


def _common_counts_by_type(g: Graph, k: int) -> list[int | None] | None:
    """The common-neighbor count T of the distinct triples with e edges.

    Entry e is None when no triple has e edges; the result is None when
    some e shows two values of T.  k bounds the degrees, hence T.

    Graphs with at most _LOOP_MAX_N vertices take a plain scan of the
    C(n, 3) triples that stops at the first triple showing a second value:
    there the numpy rectangles, at some ten calls each, cost more than the
    whole scan.

    Larger graphs take one exact integer numpy rectangle per middle vertex
    b, holding the cells (a, c) with a < b < c, so every distinct triple is
    one cell of exactly one rectangle.  T = |N_a & N_b & N_c| is the
    popcount, summed over the int64 words of ``graphs.pack_rows``, of the
    column N_a & N_b AND-ed with a tile of the rows N_c.  The edge count
    e = AB + AC + BC comes from the 0/1 adjacency matrix as bytes: a tile
    of row b's entries past b (BC), a strided view of rows a < b (AC) and a
    column of row b's first b entries (AB; the matrix is symmetric), summed
    in a byte tile (e <= 3) that is added into the keys once.  Each cell's
    key T << 2 | e goes into a histogram by ``np.bincount``, whose bins of
    e = 0..3 are read off ``.tolist()``, and the scan stops after the first
    rectangle in which one e shows two values of T; the bins are checked
    only after a rectangle that fills a bin empty until then.

    As in the oracle's triple kernel, arrays are views of buffers sized to
    the largest rectangle (``graphs.window``, filled by
    ``graphs.fill_rows``).  Every operation is elementwise on equal shapes,
    broadcasts a column or one word, adds bytes into bytes and then into
    int64 keys, or is ``np.bincount`` or ``.tolist()``: indexing,
    reductions, row broadcasts and other byte arithmetic run numpy code
    that nothing else on a large graph's path runs, and faulting it in
    raises the peak resident memory.
    """
    n, rows = g.n, g.adj
    if n <= _LOOP_MAX_N:
        counts = [None, None, None, None]       # index = edge count
        for a, b, c in combinations(range(n), 3):
            e = (rows[a] >> b & 1) + (rows[a] >> c & 1) + (rows[b] >> c & 1)
            common = (rows[a] & rows[b] & rows[c]).bit_count()
            if counts[e] is None:
                counts[e] = common
            elif counts[e] != common:
                return None
        return counts
    words = pack_rows(rows, n)
    # bin(row | 1 << n)[:2:-1] is row's n bits, bit 0 first
    adj = np.frombuffer("".join([bin(row | 1 << n)[:2:-1] for row in rows]).encode()
                        .translate(_DIGITS), dtype=np.uint8)
    size = (n - 1) // 2 * (n // 2)                 # cells of the largest rectangle
    key, tile = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    bc, meet = np.empty(size, dtype=np.uint8), np.empty(n, dtype=np.int64)
    bins = (k + 1) << 2
    hist, tally, empty = np.zeros(bins, dtype=np.int64), [0] * bins, bins
    for b in range(1, n - 1):
        width = n - 1 - b
        key_2d, tile_2d, bc_2d = (window(array, 0, (b, width)) for array in (key, tile, bc))
        meet_col = window(meet, 0, (b, 1))
        for w, word in enumerate(words):
            np.bitwise_and(window(word, b, (1, 1)), window(word, 0, (b, 1)), out=meet_col)
            fill_rows(tile, window(word, b + 1, width), width, b)       # N_c, c > b
            part = tile_2d if w else key_2d             # T of word w, counted in place
            np.bitwise_and(meet_col, tile_2d, out=part)
            np.bitwise_count(part, out=part)
            if w:
                key_2d += part
        key_2d <<= 2
        fill_rows(bc, window(adj, b * n + b + 1, width), width, b)      # BC
        bc_2d += np.ndarray((b, width), np.uint8, adj, b + 1, (n, 1))   # AC
        bc_2d += window(adj, b * n, (b, 1))                             # AB
        key_2d += bc_2d
        hist += np.bincount(window(key, 0, b * width), minlength=bins)
        tally = hist.tolist()
        if tally.count(0) != empty:     # only a newly filled bin can show a second T
            empty = tally.count(0)
            if any(sum(map(bool, tally[e::4])) > 1 for e in range(4)):
                return None
    return [next((t for t, hits in enumerate(tally[e::4]) if hits), None) for e in range(4)]


def complement_srg_params(p: SrgParams) -> SrgParams:
    """srg_params of the complement, from the graph's own parameters.

    Adjacent pairs of the complement are the non-adjacent pairs of the
    graph, so the vacuity flags swap; a vacuous class reports 0.
    """
    n, k = p.n, p.k
    return SrgParams(
        n=n, k=n - 1 - k,
        lam=0 if p.mu_vacuous else n - 2 - 2 * k + p.mu,
        mu=0 if p.lam_vacuous else n - 2 * k + p.lam,
        lam_vacuous=p.mu_vacuous, mu_vacuous=p.lam_vacuous)


def complement_three_point_params(p: ThreePointParams) -> ThreePointParams:
    """three_point_params of the complement, from the graph's own parameters.

    A triple with e edges has 3 - e edges in the complement, and its common
    neighbors there are the vertices outside it adjacent in the graph to
    none of the three.  By inclusion-exclusion over the three neighborhoods,
    with p_e = (0, 0, 1, 3) triple vertices adjacent to both others,

        q'_(3-e) = (n - 3) - (3k - 2e) + (e*lam + (3-e)*mu - p_e) - q_e.

    A type occurs in the complement iff its mirror occurs in the graph, so
    the vacuity flags carry over, and where a type occurs the lam and mu it
    uses are not vacuous.
    """
    s = p.srg
    q = p.q_vector()[::-1]                                  # index = edge count
    vacuous = (p.q0_vacuous, p.q1_vacuous, p.q2_vacuous, p.q3_vacuous)
    mirrored = [0 if vacuous[e] else
                (s.n - 3) - (3 * s.k - 2 * e)
                + (e * s.lam + (3 - e) * s.mu - (0, 0, 1, 3)[e]) - q[e]
                for e in range(4)]
    return ThreePointParams(
        srg=complement_srg_params(s),
        q3=mirrored[0], q2=mirrored[1], q1=mirrored[2], q0=mirrored[3],
        q3_vacuous=vacuous[0], q2_vacuous=vacuous[1],
        q1_vacuous=vacuous[2], q0_vacuous=vacuous[3])


def q_condition(p: ThreePointParams) -> int:
    """q3 - 3*q2 + 3*q1 - q0.  Only defined when all four types occur."""
    if p.any_vacuous():
        raise VacuousParameter(
            "q-condition needs all four triple types present; "
            f"vacuous flags: q3={p.q3_vacuous} q2={p.q2_vacuous} "
            f"q1={p.q1_vacuous} q0={p.q0_vacuous}")
    return p.q3 - 3 * p.q2 + 3 * p.q1 - p.q0
