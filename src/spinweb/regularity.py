"""Regularity, strong regularity and 3-point regularity.

Parameter conventions: a class with no pair (or triple) of the relevant
kind reports value 0 with its vacuity flag set, mirroring the usual habit
of writing srg(3,2,1,0) for the triangle while keeping vacuity detectable.

Common-neighbor counts are bitset ANDs plus popcounts.  The one triple
scan, ``three_point_params``, is an exact int64-popcount numpy kernel: it
histograms (edge count, common-neighbor count) over slabs of triple cells
and stops after the first slab in which one edge count shows two common
counts.  The complement's parameters are derived from the graph's by
inclusion-exclusion (``complement_three_point_params``), so the classifier
scans once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, fill_rows, pack_rows, window

_SLAB = 1 << 12      # (pair, c) cells per slab of the triple kernel
_E_BITS = 3          # low key bits: the cell's edge count, 4 + 2*AB when degenerate
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


class VacuousParameter(ValueError):
    """A formula was asked to use a parameter whose class is empty."""


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int
    lam_vacuous: bool = False
    mu_vacuous: bool = False

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)


@dataclass(frozen=True)
class ThreePointParams:
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


def _pair_slabs(n: int):
    """The pairs (a, b), a < b < n - 1, in slabs of at most _SLAB cells.

    Pairs run b-major (b ascending, then a).  A slab's cells are its pairs
    times the columns c in (c0, n), where c0 is the b of its first pair, so
    every triple a < b < c is a cell of exactly the slab holding (a, b).
    Yields (c0, pieces, pairs); a piece (b, a0, take) stands for the pairs
    (a0, b) .. (a0 + take - 1, b).  A slab holds one pair when n - 1 - c0
    columns alone exceed _SLAB.
    """
    pieces, pairs = [], 0
    for b in range(1, n - 1):
        a0 = 0
        while a0 < b:
            if not pieces:
                c0, height = b, max(1, _SLAB // (n - 1 - b))
            take = min(b - a0, height - pairs)
            pieces.append((b, a0, take))
            pairs += take
            a0 += take
            if pairs == height:
                yield c0, pieces, pairs
                pieces, pairs = [], 0
    if pieces:
        yield c0, pieces, pairs


def _and_bytes(x: bytes, y: bytes) -> bytes:
    """Bitwise AND of two byte strings of equal length."""
    return (int.from_bytes(x, "little") & int.from_bytes(y, "little")).to_bytes(len(x), "little")


def _common_counts_by_type(g: Graph, k: int) -> list[int | None] | None:
    """The common-neighbor count T of the distinct triples with e edges.

    Entry e is None when no triple has e edges; the result is None when
    some e shows two values of T.  k bounds the degrees, hence T.

    Before any array is built, the triples through vertex 0 and its first
    neighbor, and through vertex 0 and its first non-neighbor, are checked
    in Python: a numpy slab has a fixed cost of some tens of microseconds,
    while a graph that is not 3-point regular, such as Paley(13), Paley(17)
    or Petersen, often shows two values of T among these 2(n - 2) triples.

    The kernel is exact integer numpy.  For each slab of ``_pair_slabs``,
    T = |N_a & N_b & N_c| is the popcount, summed over the int64 words of
    ``graphs.pack_rows``, of a column of N_a & N_b AND-ed with a tile of the
    rows N_c.  The edge count e = AB + AC + BC comes from the adjacency
    matrix as bytes, laid out by bytes joins; the matrix carries 4 on its
    diagonal.  Each cell's key T << _E_BITS | e goes into a histogram by
    ``np.bincount``, whose bins of e = 0..3 are read off ``.tolist()``
    after each slab.  A slab's columns c <= b of its later pairs give cells
    that are either another ordering of a distinct triple, with its own
    (e, T), or degenerate (c = a or c = b): those have e = 4 + 2 * AB, so
    they land in bins of their own and need no correction.

    As in the oracle's triple kernel, arrays are views of preallocated
    buffers (``graphs.window``) or of bytes, and every operation is
    elementwise, broadcasts a column, or is ``np.bincount`` or
    ``.tolist()``: indexing and reductions such as ``.any()`` or
    ``np.unique`` run numpy code that nothing else on a large graph's path
    runs, and faulting it in raises the peak resident memory.
    """
    n, rows = g.n, g.adj
    r0, seen = rows[0], {}
    for others in (r0, ((1 << n) - 2) & ~r0):     # vertex 0's neighbors, non-neighbors
        if others:
            b = (others & -others).bit_length() - 1
            ab, rb = r0 >> b & 1, rows[b]
            for c in range(1, n):
                if c != b:
                    e = ab + (r0 >> c & 1) + (rb >> c & 1)
                    common = (r0 & rb & rows[c]).bit_count()
                    if seen.setdefault(e, common) != common:
                        return None
    words = pack_rows(rows, n)
    word_bytes = [memoryview(word).tobytes() for word in words]      # 8 bytes a vertex
    top = 1 << n           # bin(row | top)[:2:-1] is row's n bits, bit 0 first
    adj = bytearray("".join([bin(row | top)[:2:-1] for row in rows]).encode().translate(_DIGITS))
    adj[::n + 1] = b"\x04" * n
    size = max(_SLAB, n)
    key, tile = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    cnt = np.empty(size, dtype=np.uint8)
    bins = (k + 1) << _E_BITS
    hist = np.zeros(bins, dtype=np.int64)
    counts = [0] * bins
    for c0, pieces, m in _pair_slabs(n):
        width = n - 1 - c0
        cells = m * width
        key_2d, tile_2d = (window(array, 0, cells).reshape(m, width) for array in (key, tile))
        for w, (word, data) in enumerate(zip(words, word_bytes)):
            meet = np.frombuffer(_and_bytes(
                b"".join([data[8 * a0:8 * (a0 + take)] for _, a0, take in pieces]),
                b"".join([data[8 * b:8 * b + 8] * take for b, _, take in pieces])),
                dtype=np.int64).reshape(m, 1)                               # N_a & N_b
            fill_rows(tile, window(word, c0 + 1, width), width, m)          # N_c, c > c0
            if w == 0:
                np.bitwise_and(meet, tile_2d, out=key_2d)
                np.bitwise_count(key_2d, out=key_2d)
            else:
                np.bitwise_and(meet, tile_2d, out=tile_2d)
                key_2d += np.bitwise_count(tile_2d, out=window(cnt, 0, cells).reshape(m, width))
        lo = min(a0 for _, a0, _ in pieces)
        a_rows = b"".join([adj[a * n + c0 + 1:(a + 1) * n]                # AC, c > c0
                           for a in range(lo, max(a0 + take for _, a0, take in pieces))])
        # bytes are 0, 1 or 4, so adding AC and BC as integers never carries
        edges = (int.from_bytes(b"".join([a_rows[(a0 - lo) * width:(a0 + take - lo) * width]
                                          for _, a0, take in pieces]), "little")
                 + int.from_bytes(b"".join([adj[b * n + c0 + 1:(b + 1) * n] * take     # BC
                                            for b, _, take in pieces]), "little"))
        key_2d <<= _E_BITS
        key_2d += np.frombuffer(edges.to_bytes(cells, "little"), dtype=np.uint8).reshape(m, width)
        key_2d += np.frombuffer(b"".join([adj[b * n + a0:b * n + a0 + take]           # AB
                                          for b, a0, take in pieces]),
                                dtype=np.uint8).reshape(m, 1)
        hist += np.bincount(key_2d.reshape(cells), minlength=bins)
        counts = hist.tolist()
        if any(len(column) - column.count(0) > 1
               for column in (counts[e::1 << _E_BITS] for e in range(4))):
            return None
    return [next((t for t, hits in enumerate(counts[e::1 << _E_BITS]) if hits), None)
            for e in range(4)]


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
