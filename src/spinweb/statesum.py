"""Brute-force state-sum verification of the Yang-Baxter box relations.

The 2-box generator is the 0/1 weight matrix C_P (graph adjacency, or the
arc matrix of a tournament).  Together with One (all ones), Delta (equality)
and Q (the remaining class: complement adjacency, or the reversed arcs) it
induces two families of functions on ordered vertex triples:

    D[g1,g2,g3](a,b,c) = g1(a,b) * g2(b,c) * g3(c,a)
    S[g1,g2,g3](a,b,c) = sum_x g1(a,x) * g2(b,x) * g3(c,x)

Each box relation then becomes an exact question over the rationals:

    1b: the row sums of C_P (and, directed, the column sums) are constant;
    2b: (a,b) -> sum_x C_P(a,x) C_P(b,x) lies in span{Delta, P, Q};
    3a: S[P,P,P] lies in the span of the D family;
    3b: D[P,P,P] lies in the span of the S family;

and dim V3 is the rank of the combined D and S families as vectors in the
n^3-dimensional function space.

In the undirected case the spanning alphabet is {One, Delta, P}: both
families are multilinear in their slots and Q = One - Delta - P pointwise,
so adding Q never enlarges a span.  In the directed case Q is the
transpose of P, and the alphabet is {One, Delta, P, Q}: the 64 words
over which ``full_report`` and the ``check_*`` functions fit, and name,
their coefficients, which stay pinned in that alphabet.  The identity
One = Delta + P + Q holds there too, so any one letter can be left out
without changing a span or a rank.  The yes/no and rank questions read
no coefficient, and ``spin_model_verdict`` and ``dim_v3`` span a
tournament's families by the 27 words over the basis {Delta, P, Q}
(``_basis_rows``), and a graph's by its alphabet.

Rows of every linear system are deduplicated before elimination; duplicate
equations cannot change span membership or rank, and on the structured
graphs met in practice n^3 rows collapse to a few dozen.  The 3-box systems
take one representative triple per evaluation profile, found by an exact
numpy slab kernel (``_representative_triples``): rows packed into 62-bit
int64 words, 3-way intersections by AND plus ``np.bitwise_count``, and each
profile packed in mixed radix into one nonnegative int64 key below
I^3 (n + 1) for I pair ids, at most 2^63 on n <= 511 vertices.  The pair
ids come from the pair table (``_pair_table``), keyed by the same kind of
numpy in bands of rows.  The kernel keys every cell through one generator
of rectangles: the first vertices a0 .. a0 + k - 1 over the cells whose b
is below a bound and whose c is >= lo, a fixed number of b rows per first
vertex at a time.  Its slab walk calls it with every b and lo = 0, so each
rectangle is a slab, a run of consecutive cells in (a, b, c) order: whole
first vertices while n^2 <= 4096 (every n <= 16 is one slab), bands of b
rows within one first vertex beyond.  A slab is tested for a profile not
seen before by an ``np.bincount`` histogram of its keys when the key space
is at most two slabs' cells, as on the large strongly regular graphs; tiny
graphs and wide key spaces keep a Python set, since a histogram there costs
more to build and clear than the slab it tests.  Either way a slab's new
profiles are counted first, so its cell-by-cell scan stops at the last of
them.  Where a first vertex spans several slabs (n^2 > 4096) and vertex 0's
row holds every pair id, as on every vertex-transitive graph, the kernel
works in two exact phases.  Phase 1 counts the profiles, keying each
unordered triple once by its middle vertex: for each m it calls the same
generator with first vertex m, the b rows 0 .. m and lo = m, so it keys the
cells (m, b, c) with b <= m <= c, one (m + 1) x (n - m) rectangle per m and
n (n + 1) (n + 2) / 6 cells in all, and closes the keys found under the six
orders of a triple.  Every cell is a reordering of such a cell, and a
reordering maps a profile to a profile through the pair-id swap
id(u, v) -> id(v, u), so the closure is every profile there is.  Phase 2 is
the slab walk, which stops as soon as it has met that many profiles: on a
vertex-transitive graph, within vertex 0's slabs.

The row of a representative triple is built in one step over the bit
rows of the alphabet (``_d_row``, ``_s_row``): a D row is the product of
the letters' (a,b), (b,c) and (c,a) bits, an S row the popcounts of the
3-way ANDs of rows a, b and c, both in ``product(alphabet, repeat=3)``
order; a target is the same row over the one letter P.

Every entry point takes a Graph or a Tournament and reads its P rows,
the adjacency or arc rows it already holds (``_generator``); the other
letters' rows come from ``_letter_rows``: One and Delta shared per n, and
for a tournament Q, row by row One ^ Delta ^ P.  A graph has no Q rows,
since its alphabet does without them.

``spin_model_verdict`` is the yes/no question the census asks of every
regular graph and guard sample.  It runs the checks in the order 1b, 2b,
3a, 3b and stops at the first failure.  Of 1b it asks, on the P rows and
before any other row is built, only whether some row sum misses vertex
0's (``_first_1b_miss``), so an irregular graph costs one popcount per
row; constant row sums force constant column sums on a tournament, so no
column is read.  3a and 3b each have one equation generator
(``_span_equations``) that the verdict and ``full_report`` (``_span_check``)
share.  2b has one equation per pair (a, b), the (Delta, P, Q) row of
its class (``_2B_ROWS``) with target |P_a & P_b|, read two ways.  The
verdict streams it lazily over the n^2 pairs (``_2b_equations``);
``check_2b`` solves it at the first pair of each pair profile of the pair
table (``_pair_table``), which fixes the class and |P_a & P_b|, so its
distinct equations, their order and first sites, its fit and its witness
are those of the n^2 stream.  ``full_report`` builds the pair table once
for ``check_2b`` and the triple kernel, and the triples once for 3a and
3b.  The checks fit the deduplicated system and report the coefficients
or the first missed equation; the verdict asks only whether it is
consistent (``_consistent``): it reads the equations lazily, keyed by
row, answers no at the first row met again with another target, and
otherwise eliminates the distinct rows once (``linalg.is_consistent``),
building no fraction, fit or witness.  That rule reads no graph
structure, yet 1 050 of the 1 131 regular graphs on up to 7 vertices
fail 2b at a repeated row (2b has three distinct rows, so it can fail no
other way), after 5.2 of their n^2 equations on average; this is why the
verdict keeps the stream and builds the pair table only once 1b and 2b
hold.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple

from .graphs import WORD_BITS, Tournament, fill_rows, np, pack_rows, window
from .linalg import is_consistent, matrix_rank, solve_membership

ONE = "One"
DELTA = "Delta"
P = "P"
Q = "Q"

_SLAB = 1 << 12      # (b, c) cells per slab buffer of the triple kernel

_TARGET_WORD = (P, P, P)     # the word each 3-box relation asks to be spanned
_2B_ROWS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))   # (Delta, P, Q) row of pair class 0, 1, 2

UNDIRECTED_ALPHABET = (ONE, DELTA, P)
DIRECTED_ALPHABET = (ONE, DELTA, P, Q)


class ZeroGenerator(ValueError):
    """dim V3 is undefined when C_P = 0 (the generator maps to zero)."""


@functools.cache
def _constant_rows(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The One and Delta rows on n vertices, shared by every input of that size."""
    return tuple((1 << n) - 1 for _ in range(n)), tuple(1 << u for u in range(n))


def _generator(obj) -> tuple[tuple[int, ...], bool]:
    """The P rows of a Graph or Tournament, and whether it is directed."""
    if isinstance(obj, Tournament):
        return obj.arc, True
    return obj.adj, False


def _letter_rows(rows: tuple[int, ...], directed: bool) -> list[tuple[int, ...]]:
    """The bit rows of each letter of the alphabet, in alphabet order.

    ``rows`` are the P rows: row u has bit x set iff P(u, x) = 1.  One and
    Delta are shared per n; Q, a tournament's only, is the transpose of P,
    which on a validated tournament (no loop, one arc per pair) is every
    vertex but u outside P_u: Q_u = One_u ^ Delta_u ^ P_u.
    """
    one, delta = _constant_rows(len(rows))
    if directed:
        return [one, delta, rows, tuple(o ^ d ^ p for o, d, p in zip(one, delta, rows))]
    return [one, delta, rows]


def _basis_rows(rows: tuple[int, ...], directed: bool) -> list[tuple[int, ...]]:
    """The bit rows of a three-letter basis: its words span what the alphabet's span.

    One = Delta + P + Q pointwise and both families are multilinear, so
    leaving out any one letter changes no span and no rank: a graph's
    basis is its alphabet {One, Delta, P}, a tournament's is {Delta, P, Q},
    27 words instead of 64.  P is third in the alphabets but second in a
    tournament's basis, so the span systems take the P rows on their own.
    """
    letters = _letter_rows(rows, directed)
    return letters[1:] if directed else letters


def _d_row(letters, a: int, b: int, c: int) -> tuple[int, ...]:
    """D[g1,g2,g3](a,b,c) for every word over ``letters`` (bit rows), in product order.

    The value is the product of the letters' (a,b), (b,c) and (c,a) bits.
    """
    ab = [(rows[a] >> b) & 1 for rows in letters]
    bc = [(rows[b] >> c) & 1 for rows in letters]
    ca = [(rows[c] >> a) & 1 for rows in letters]
    return tuple([x * y * z for x in ab for y in bc for z in ca])


def _s_row(letters, a: int, b: int, c: int) -> tuple[int, ...]:
    """S[g1,g2,g3](a,b,c) for every word over ``letters`` (bit rows), in product order.

    The value is the popcount of the AND of the letters' rows a, b and c.
    """
    ra = [rows[a] for rows in letters]
    rb = [rows[b] for rows in letters]
    rc = [rows[c] for rows in letters]
    return tuple([(x & y & z).bit_count() for x in ra for y in rb for z in rc])


def triple_words(directed: bool) -> list[tuple[str, str, str]]:
    return list(product(DIRECTED_ALPHABET if directed else UNDIRECTED_ALPHABET, repeat=3))


def word_label(family: str, word) -> str:
    return f"{family}[{','.join(word)}]"


class Witness(NamedTuple):
    """A concrete violation: the two sides of a relation at one site."""

    site: tuple[int, ...]
    lhs: object
    rhs: object
    detail: str


class RelationCheck(NamedTuple):
    holds: bool
    coefficients: dict[str, Fraction] | None = None
    witness: Witness | None = None


class RelationReport(NamedTuple):
    n: int
    directed: bool
    r1b: RelationCheck
    r2b: RelationCheck
    r3a: RelationCheck
    r3b: RelationCheck
    nonsymmetric_premise: bool = True

    def checks(self) -> tuple[tuple[str, RelationCheck], ...]:
        """(relation name, check) pairs in the order 1b, 2b, 3a, 3b."""
        return (("1b", self.r1b), ("2b", self.r2b), ("3a", self.r3a), ("3b", self.r3b))

    def booleans(self) -> tuple[bool, bool, bool, bool]:
        return tuple(check.holds for _, check in self.checks())

    @property
    def is_spin_model(self) -> bool:
        return all(self.booleans()) and self.nonsymmetric_premise


def _first_1b_miss(rows: tuple[int, ...]) -> tuple[int, int, int] | None:
    """The first row sum of C_P that differs from vertex 0's row sum k, if any.

    ``rows`` are the P rows.  Returns None when every row sum is k, else
    (vertex, k, sum).  The column sums need no reading: a graph's are its
    row sums, and a tournament whose out-degrees are all k has nk =
    C(n, 2) arcs, so k = (n - 1)/2 and every in-degree is n - 1 - k = k.
    """
    k = rows[0].bit_count()
    for a, row in enumerate(rows):
        deg = row.bit_count()
        if deg != k:
            return a, k, deg
    return None


def check_1b(obj) -> RelationCheck:
    """Relation 1b: constant row sums of C_P (directed also column sums).

    Constant row sums force constant column sums on a Graph or Tournament
    (``_first_1b_miss``), so a witness is always a pair of row sums.
    """
    rows, _ = _generator(obj)
    miss = _first_1b_miss(rows)
    if miss is None:
        return RelationCheck(True, coefficients={"k": Fraction(rows[0].bit_count())})
    a, k, total = miss
    return RelationCheck(False, witness=Witness(
        site=(0, a), lhs=k, rhs=total,
        detail=f"row sums differ: vertex 0 has {k}, vertex {a} has {total}"))


def _fit_or_witness(equations, sites):
    """Solve sum_j c_j * row[j] = target over (row, target) equations.

    ``sites`` names each equation, in the same order.  Duplicate equations
    are dropped first, keeping the first site, and the rest are eliminated
    once.  Returns (coefficients, None) when the system is consistent;
    otherwise (None, (site, target, fitted)) for the first equation, in
    that order, that the fit of the largest consistent subsystem misses.
    """
    first_site: dict[tuple, tuple] = {}
    for equation, site in zip(equations, sites):
        first_site.setdefault(equation, site)
    fit, consistent = solve_membership([row for row, _ in first_site],
                                       [target for _, target in first_site])
    if consistent:
        return fit, None
    scale = lcm(*(f.denominator for f in fit))      # the fit as integers over one denominator
    scaled = [f.numerator * (scale // f.denominator) for f in fit]
    for (row, target), site in first_site.items():
        fitted = sum(c * v for c, v in zip(scaled, row))
        if fitted != target * scale:
            return None, (site, target, Fraction(fitted, scale))
    raise AssertionError("inconsistent system without a pointwise witness")


def _consistent(equations) -> bool:
    """Whether the (row, target) equations have a common solution.

    The equations are read lazily, keyed by row.  An equation whose row
    was already met with another target settles the question at once: no
    solution can meet both, so the rest of the generator is never built.
    Otherwise the distinct rows, in order of first appearance (the
    distinct equations ``_fit_or_witness`` eliminates), are eliminated
    once and only the consistency is read: no fit, no witness.
    """
    targets: dict[tuple, int] = {}
    for row, target in equations:
        if targets.setdefault(row, target) != target:
            return False
    return is_consistent(list(targets), list(targets.values()))


def _2b_equations(rows: tuple[int, ...]):
    """The 2b equation of each ordered pair (a, b), a then b ascending.

    Its row is the (Delta, P, Q) row of the pair's class (``_2B_ROWS``):
    0 for a = b, 1 for b in P_a, 2 otherwise, exactly one of the three
    since One = Delta + P + Q pointwise; its target is |P_a & P_b|, the
    common out-neighbors of a and b.
    """
    return ((_2B_ROWS[0 if a == b else 1 if (ra >> b) & 1 else 2], (ra & rb).bit_count())
            for a, ra in enumerate(rows) for b, rb in enumerate(rows))


def check_2b(obj, pairs=None) -> RelationCheck:
    """Relation 2b: sum_x C_P(a,x) C_P(b,x) in span{Delta, P, Q}.

    The system is the 2b equation (``_2B_ROWS``, as in ``_2b_equations``)
    of the first pair of each pair profile of ``pairs``, the pair table of
    the P rows (``_pair_table``, built here when not given).  A profile
    fixes the pair's class and |P_a & P_b|, so the first pair with a given
    equation is the first pair of its profile: these are the distinct
    equations of the n^2 pairs, at the same first sites and in the same
    order, and the fit and the witness are theirs.
    """
    rows, _ = _generator(obj)
    _, profiles = _pair_table(rows) if pairs is None else pairs
    solution, miss = _fit_or_witness([(_2B_ROWS[pair_class], common)
                                      for pair_class, common, _ in profiles],
                                     [site for _, _, site in profiles])
    if miss is not None:
        site, target, fitted = miss
        return RelationCheck(False, witness=Witness(
            site=site, lhs=target, rhs=fitted,
            detail=(f"pair {site}: common-neighbor count {target} vs "
                    f"{fitted} from coefficients fitted elsewhere")))
    kp, lam, mu = solution
    return RelationCheck(True, coefficients={"k": kp, "lambda": lam, "mu": mu})


class _FirstSeen(dict):
    """A dict that numbers each key it is asked for and lacks: 0, 1, 2, ..."""

    def __missing__(self, key):
        self[key] = number = len(self)
        return number


def _pair_table(rows: tuple[int, ...]) -> tuple[np.ndarray, list[tuple[int, int, tuple[int, int]]]]:
    """The pair id of every ordered pair (u, v), and the profile each id stands for.

    ``rows`` are the P rows.  The profile of (u, v) is its class (0 for
    u = v, 1 for v in P_u, 2 otherwise), |P_u|, |P_v| and |P_u & P_v|;
    ids number the profiles by first appearance in (u, v) order.  Returns
    the int32 ids, id(u, v) at u * n + v, and per id its (class,
    |P_u & P_v|, first pair (u, v)).

    Keys are exact int64, ((|P_v| * n + |P_u|) * n + |P_u & P_v|) * 3 +
    2 - class < 3n^3, built in bands of whole rows u of at most
    max(_SLAB, n) cells: the column of |P_u| added to a tile of n |P_v|
    laid out once, popcounts of the AND of the tiled words of P_v with the
    column of P_u, and the class from the AND of that column
    with tiled Delta bits 1 << (v mod WORD_BITS), one word's columns at a
    time, with the diagonal set through a window of pitch n + 1.  The ids
    are the only n x n array.  One C-level ``map`` of a ``_FirstSeen``
    dict over a band's keys numbers them; ids first appear in increasing
    order, so each new id's first pair is found by ``list.index`` on from
    the previous one's.  The array operations are of the kinds the triple
    kernel allows.
    """
    n = len(rows)
    pid = np.empty(n * n, dtype=np.int32)
    words = pack_rows(rows, n)
    height = max(1, min(n, _SLAB // n))         # rows u of a band
    size = height * n
    tiles = [np.empty(size, dtype=np.int64) for _ in words]   # `height` copies of a word
    for tile, word in zip(tiles, words):
        fill_rows(tile, word, n, height)
    delta = np.empty(size, dtype=np.int64)                     # `height` copies of the bits
    fill_rows(delta, np.fromiter((1 << (v % WORD_BITS) for v in range(n)),
                                 dtype=np.int64, count=n), n, height)
    degrees = np.fromiter((row.bit_count() for row in rows), dtype=np.int64, count=n)
    scaled = np.empty(size, dtype=np.int64)                    # `height` copies of n |P_v|
    fill_rows(scaled, degrees * n, n, height)
    keys, part = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    cells = memoryview(pid)
    ids = _FirstSeen()
    sites: list[tuple[int, int]] = []
    for u0 in range(0, n, height):
        m = min(height, n - u0)
        key, tmp = window(keys, 0, (m, n)), window(part, 0, (m, n))
        bits_v = [window(tile, 0, (m, n)) for tile in tiles]
        cols_u = [window(word, u0, (m, 1)) for word in words]
        np.add(window(scaled, 0, (m, n)), window(degrees, u0, (m, 1)), out=key)   # + |P_u|
        key *= n
        for col, bits in zip(cols_u, bits_v):       # |P_u & P_v|
            np.bitwise_and(col, bits, out=tmp)
            np.bitwise_count(tmp, out=tmp)
            key += tmp
        key *= 3
        for w, col in enumerate(cols_u):            # v in P_u, one word's columns each
            v0 = w * WORD_BITS
            shape = (m, min(WORD_BITS, n - v0))
            np.bitwise_and(col, window(delta, v0, shape, n), out=window(part, v0, shape, n))
        np.bitwise_count(tmp, out=tmp)
        key += tmp
        diagonal = window(keys, u0, (m, 1), n + 1)
        diagonal += 2
        fresh = len(ids)
        band = np.fromiter(map(ids.__getitem__, memoryview(window(keys, 0, m * n))),
                           dtype=np.int32, count=m * n)
        cells[u0 * n:(u0 + m) * n] = memoryview(band)
        if len(ids) > fresh:        # ids first appear in increasing order
            seen, at = band.tolist(), 0
            for i in range(fresh, len(ids)):
                at = seen.index(i, at)
                sites.append(divmod(u0 * n + at, n))
    return pid, [(2 - cell % 3, cell // 3 % n, site) for cell, site in zip(ids, sites)]


def _histogram_presence(bins: int, size: int) -> bool:
    """Whether the triple kernel tests a slab for new profiles by histogram.

    ``np.bincount`` over a slab of ``size`` cells costs O(size + bins), so
    the histogram pays only while it is about the size of a slab; it also
    stays within two slab buffers of memory.  Tiny graphs and wide key
    spaces (an irregular graph with a score of pair ids) keep the set.
    """
    return bins <= 2 * size


def _representative_triples(rows: tuple[int, ...], pairs=None) -> list[tuple[int, int, int]]:
    """One ordered triple per distinct evaluation profile, in (a, b, c) order.

    ``rows`` are the P rows of a graph or tournament.  The profile of
    (a, b, c) is the profile id of each of the pairs (a, b), (b, c) and
    (a, c) -- pair class, the two out-degrees and |P_u & P_v| -- plus
    T = |P_a & P_b & P_c|.  Since One = Delta + P + Q pointwise (Q is the
    complement of P for a graph and its transpose for a tournament, so Q_v
    is every vertex but v outside P_v), inclusion-exclusion turns these
    counts into every D- and S-family value of the triple.  Span membership
    and ranks computed on the first triple of each profile therefore agree
    with the full n^3 systems while touching far fewer rows.

    The pair ids are those of ``pairs``, the pair table of ``rows``
    (``_pair_table``), which is built here when not given: I ids, numbered
    in order of first appearance in (u, v) order, as one n x n int32 table,
    with each id's first pair (u, v).

    The kernel is exact integer numpy.  Rows are packed into int64 words of
    WORD_BITS bits (``graphs.pack_rows``).  Every cell the kernel keys, in
    either phase below, comes from one generator of rectangles
    (``rectangles(a0, k, rows, lo, tall)``): the first vertices a0 .. a0 +
    k - 1 over the cells with b < rows and c >= lo, ``tall`` b rows per
    first vertex at a time, each rectangle its (a, b) rows by the n - lo
    columns c >= lo.  Per call, P_a & P_b and the (a, b) and (a, c)
    pair-id terms of the k first vertices are laid out once; per
    rectangle, T comes from word-wise AND with a tile of the rows P_c plus
    popcount, and the bc ids are a window of the pair-id table with a
    pitch of n.  The tile of c rows is laid out again only when (rows, lo,
    tall) changes.  The walk calls it with rows = n and lo = 0, so its
    rectangles are slabs, runs of consecutive cells in
    (a, b, c) order of at most _SLAB cells each: while n^2 <= _SLAB a slab
    holds all cells of k = min(n, _SLAB // n^2) whole first vertices a
    (every n <= 16 is one slab), beyond that a band of max(1, _SLAB // n)
    b rows within one a (k = 1).  With I pair ids, the fields are packed in
    mixed radix into one nonnegative int64 key
    ((ab * I + ac) * (n + 1) + T) * I + bc,
    below bins = I^3 (n + 1) <= n^6 (n + 1), which is at most 2^63 for
    every n <= graphs.MAX_ORDER = 511; every partial sum of a key is
    below the key itself.

    Presence of a new key is tested per slab in one of two ways
    (``_histogram_presence``).  When the key space is at most two slabs'
    cells (the strongly regular graphs, from C5 to McLaughlin),
    ``np.bincount`` of the slab's keys is AND-ed with an int64 mask that
    is -1 at the keys not seen yet, and the slab's new keys are the
    nonzero bins of that masked histogram: bins minus the first bin of its
    own ``np.bincount``.  (Comparing its bytes with a zero buffer is a few
    microseconds faster per slab but holds two more histogram-sized
    buffers, which raised the heap peak of the oracle on Higman-Sims by a
    further 21 KB.)  Otherwise (tiny graphs, wide key spaces) a Python set
    over a memoryview of the slab finds the keys not seen before.  Either
    way only a slab holding a new key is scanned, cell by cell, for its
    first sites, and the scan stops at the last new key the slab holds
    (counted as the masked histogram's nonzero bins, or as the slab's keys
    missing from the set); the histogram path clears the mask there
    through a memoryview.  With whole first vertices in a
    slab, the first one of a vertex-transitive graph already shows every
    profile, so the scan rarely passes it.

    Where a first vertex spans several slabs (band < n), the walk would
    still key all n^3 cells to learn that none holds a new profile, so
    the profiles are counted first and the walk returns at the last one.
    Phase 1 keys each unordered triple once, at the cell (m, b, c) with
    b <= m <= c whose first vertex m is its middle one: for each m it calls
    the same generator with first vertex m (k = 1), rows = m + 1 and lo = m,
    one (m + 1) x (n - m) rectangle without a wasted cell, in chunks of as
    many b rows as keep a chunk within a slab.  That is n (n + 1) (n + 2) / 6
    cells (171 700 on Higman-Sims, 3.50 M on McLaughlin), where keying the
    cells with b, c >= a met each unordered triple twice.  The generator's
    terms are then the column id(m, b), the tile of id(m, c) laid out once
    per m and the pitched window of id(b, c), so the keys are those the
    walk gives the cell (m, b, c).  They are collected in the histogram
    (counted down from -1 in the mask, which is then reset) or in the set
    of the presence path chosen once per call.  Their closure under the six
    orders of a triple (``_closed_profile_count``) is exact: every cell is
    a reordering of one whose first vertex is its middle one, and
    reordering (a, b, c) permutes the pairs ab, ac, bc and reverses some,
    whose ids map through ``_reversed_ids``; T does not change.  Phase 2 is
    the slab walk above, which returns as soon as it holds that many
    representatives, so its triples and their order are those of the
    whole walk.  Phase 1 runs only where it can pay: a pair id first met
    in a row u > 0 puts the walk's last profile (the one of the cell
    (u, v, v)) in first vertex u or later, so it needs every pair id in
    vertex 0's row (an irregular graph never has them there); and while
    a slab holds whole first vertices its n rectangles would cost as
    many numpy passes as the walk itself.

    Every array operation is elementwise on equal shapes, broadcasts a
    column or is ``np.bincount``; rows are laid out by memoryview copies
    and windows (``graphs.window``; the bc ids with a pitch).  Indexing an
    array, ``len()`` of one and row broadcasts each run numpy code that
    nothing else on the oracle's path runs, and faulting that code in
    raised the process's peak resident memory by 64 KB per code region,
    more than the buffers themselves.
    """
    n = len(rows)
    pid, profiles = _pair_table(rows) if pairs is None else pairs
    n_ids = len(profiles)
    bins = n_ids ** 3 * (n + 1)
    assert bins <= 1 << 63, "profile keys overflow int64"     # n <= graphs.MAX_ORDER
    scale_ac = (n + 1) * n_ids
    scale_ab = scale_ac * n_ids

    band = max(1, min(n, _SLAB // n))          # b rows of one first vertex in a slab
    group = max(1, min(n, _SLAB // (n * n)))   # first vertices in a slab; > 1 only if band = n
    height = group * band                      # (a, b) rows of a slab
    size = height * n
    histogram = _histogram_presence(bins, size)
    words = pack_rows(rows, n)
    b_tiles = [np.empty(group * n, dtype=np.int64) for _ in words]   # `group` copies of a word
    c_tiles = [np.empty(size, dtype=np.int64) for _ in words]        # copies of a word from lo
    for b_tile, word in zip(b_tiles, words):
        fill_rows(b_tile, word, n, group)
    if group == 1:
        bc_cells = pid
    else:
        bc_cells = np.empty(size, dtype=np.int32)                   # `group` copies of pid
        fill_rows(bc_cells, pid, n * n, group)
    meets = [np.empty(group * n, dtype=np.int64) for _ in words]     # P_a & P_b of the group
    ab_rows, ac_rows = np.empty(group * n, dtype=np.int64), np.empty(group * n, dtype=np.int64)
    ac_tile = np.empty(size, dtype=np.int64)
    low = np.empty(size, dtype=np.int64)
    spare = low if len(words) == 1 else np.empty(size, dtype=np.int64)   # a later word's T
    seen: set = set()
    if histogram:
        unseen = np.frombuffer(bytearray(b"\xff") * (8 * bins), dtype=np.int64)  # all -1
        unseen_cells = memoryview(unseen)

    group_views = {k: ([window(b_tile, 0, (k, n)) for b_tile in b_tiles],
                       [window(meet, 0, (k, n)) for meet in meets],
                       window(ab_rows, 0, k * n), window(ac_rows, 0, k * n))
                   for k in {group, n % group or group}}      # views of a group's buffers
    laid_out = None         # the (rows, lo, tall) the c tiles hold

    def rectangles(a0, k, rows, lo, tall):
        """The keys of the cells (a, b, c) with a0 <= a < a0 + k, b < rows and c >= lo.

        Yields, per rectangle of ``tall`` b rows of each first vertex, the
        index of its first cell (a0, b, lo) and its keys as a flat view.  A
        rectangle's rows are its (a, b) pairs in order, so k > 1 needs whole
        b ranges (rows = n, tall = n).  The c rows are laid out again only
        when (rows, lo, tall) changes: per middle vertex in phase 1, once in
        the walk.
        """
        nonlocal laid_out
        width = n - lo
        if laid_out != (rows, lo, tall):
            laid_out = (rows, lo, tall)
            for c_tile, word in zip(c_tiles, words):    # group * tall copies of P_c from lo
                fill_rows(c_tile, memoryview(word)[lo:], width, group * tall)
        b_parts, meet_parts, ab_out, ac_out = group_views[k]
        for word, b_part, meet_part in zip(words, b_parts, meet_parts):
            np.bitwise_and(window(word, a0, (k, 1)), b_part, out=meet_part)   # P_a & P_b
        pid_a = window(pid, a0 * n, k * n)
        np.multiply(pid_a, scale_ab, out=ab_out, dtype=np.int64)
        np.multiply(pid_a, scale_ac, out=ac_out, dtype=np.int64)
        fill_rows(ac_tile, memoryview(ac_rows)[lo:lo + k * width], width, tall)
        for b0 in range(0, rows, tall):
            m = k * min(tall, rows - b0)           # (a, b) rows of the rectangle
            shape = (m, width)
            keys = window(low, 0, shape)
            tmp = keys if spare is low else window(spare, 0, shape)
            for w, (meet, c_tile) in enumerate(zip(meets, c_tiles)):
                part = tmp if w else keys           # T of word w, counted in place
                np.bitwise_and(window(meet, b0, (m, 1)), window(c_tile, 0, shape), out=part)
                np.bitwise_count(part, out=part)
                if w:
                    keys += tmp
            keys *= n_ids
            keys += window(bc_cells, b0 * n + lo, shape, n)
            keys += window(ac_tile, 0, shape)
            keys += window(ab_rows, b0, (m, 1))
            yield (a0 * n + b0) * n + lo, window(low, 0, m * width)

    def profile_count(reversed_ids):
        """Phase 1: the number of profiles among all n^3 cells."""
        for m in range(n):                         # the cells (m, b, c) with b <= m <= c
            for _, flat in rectangles(m, 1, m + 1, m, min(m + 1, size // (n - m))):
                if histogram:          # unseen counts down from -1 at each key met
                    np.subtract(unseen, np.bincount(flat, minlength=bins), out=unseen)
                else:
                    seen.update(memoryview(flat))
        if histogram:
            keys = [cell for cell, mark in enumerate(unseen_cells) if mark != -1]
            unseen_cells.cast("B")[:] = b"\xff" * (8 * bins)
        else:
            keys = list(seen)
            seen.clear()
        return _closed_profile_count(keys, reversed_ids, n_ids, n + 1)

    reversed_ids = _reversed_ids(pid, n, profiles) if band < n else None
    total = None if reversed_ids is None else profile_count(reversed_ids)   # None: no stop
    reps: list[tuple[int, int, int]] = []
    for a0 in range(0, n, group):
        for start, flat in rectangles(a0, min(group, n - a0), n, 0, band):
            if histogram:
                hits = np.bincount(flat, minlength=bins)
                np.bitwise_and(hits, unseen, out=hits)
                fresh = bins - np.bincount(hits).tolist()[0]      # new keys in the slab
                if fresh:
                    for i, cell in enumerate(memoryview(flat)):
                        if unseen_cells[cell]:
                            unseen_cells[cell] = 0
                            reps.append(_cell_triple(start + i, n))
                            fresh -= 1
                            if not fresh:
                                break
            elif not seen.issuperset(cells := memoryview(flat)):
                new_keys = set(cells).difference(seen)
                for i, cell in enumerate(cells):
                    if cell in new_keys:
                        new_keys.remove(cell)
                        seen.add(cell)
                        reps.append(_cell_triple(start + i, n))
                        if not new_keys:
                            break
            if len(reps) == total:
                return reps
    return reps


def _reversed_ids(pid: np.ndarray, n: int, profiles) -> list[int] | None:
    """The id of (v, u) for each pair id of (u, v), or None if vertex 0's row lacks an id.

    A pair id fixes the pair class, both out-degrees and |P_u & P_v|, and
    so the id of the reversed pair, read here at (v, 0) for an id whose
    first pair is (0, v).
    """
    if profiles[-1][2][0]:          # ids are numbered in order of first appearance
        return None
    cells = memoryview(pid)
    return [cells[v * n] for _, _, (_, v) in profiles]


def _closed_profile_count(keys, reversed_ids: list[int], n_ids: int, t_radix: int) -> int:
    """The number of profiles reached from ``keys`` by the six orders of a triple.

    A key packs the pair ids ab, ac, bc of (a, b, c) and T (below
    ``t_radix``) as ((ab * I + ac) * t_radix + T) * I + bc.  Reordering the
    triple permutes its three pairs and reverses some (``reversed_ids``);
    T stays.
    """
    closed = set()
    for key in keys:
        rest, bc = divmod(key, n_ids)
        rest, t = divmod(rest, t_radix)
        ab, ac = divmod(rest, n_ids)
        ba, ca, cb = reversed_ids[ab], reversed_ids[ac], reversed_ids[bc]
        # (a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)
        closed.update(((ab, ac, bc, t), (ac, ab, cb, t), (ba, bc, ac, t), (bc, ba, ca, t),
                       (ca, cb, ab, t), (cb, ca, ba, t)))
    return len(closed)


def _cell_triple(cell: int, n: int) -> tuple[int, int, int]:
    """The triple (a, b, c) at index a * n^2 + b * n + c of the n^3 cells."""
    ab, c = divmod(cell, n)
    a, b = divmod(ab, n)
    return a, b, c


def _span_equations(letters, rows, triples, span_family: str):
    """The equation of each representative triple (a, b, c), in their order.

    ``letters`` are the bit rows of the spanning letters, the alphabet
    (``_letter_rows``) or the basis (``_basis_rows``); ``rows`` are the P
    rows.  An equation's row holds the values of the span family's words
    at the triple ("D" for 3a, "S" for 3b); its target is the other
    family's word (P, P, P), the only word over the one letter P.
    """
    target = [rows]
    span_row, target_row = (_d_row, _s_row) if span_family == "D" else (_s_row, _d_row)
    return ((span_row(letters, a, b, c), target_row(target, a, b, c)[0])
            for a, b, c in triples)


def _span_check(letters, triples, span_family: str, target_family: str) -> RelationCheck:
    """Relation 3a (span family "D") or 3b ("S") on the given representative triples."""
    # P is third in both alphabets
    solution, miss = _fit_or_witness(_span_equations(letters, letters[2], triples, span_family),
                                     triples)
    if miss is not None:
        site, target, fitted = miss
        lhs_label = word_label(target_family, _TARGET_WORD)
        return RelationCheck(False, witness=Witness(
            site=site, lhs=target, rhs=fitted,
            detail=(f"triple {site}: {lhs_label} = {target} vs "
                    f"{fitted} from coefficients fitted elsewhere")))
    directed = len(letters) == len(DIRECTED_ALPHABET)
    coeffs = {word_label(span_family, w): v
              for w, v in zip(triple_words(directed), solution) if v != 0}
    return RelationCheck(True, coefficients=coeffs)


def dim_v3(obj) -> int:
    """Rank of the combined D and S families in the n^3 function space.

    With a nonzero generator this equals the dimension of the 3-box space
    of the planar algebra the graph gives a spin model for; the two
    families realize the 16 spanning diagrams of that space.  Their words
    run over the basis (``_basis_rows``): for a tournament the 27 over
    {Delta, P, Q}, whose span is that of the 64 over {One, Delta, P, Q},
    so each row has 54 entries instead of 128.
    """
    rows, directed = _generator(obj)
    if not any(rows):
        raise ZeroGenerator("edgeless input: C_P = 0 and the rank is not dim V3")
    letters = _basis_rows(rows, directed)
    system = dict.fromkeys(_d_row(letters, a, b, c) + _s_row(letters, a, b, c)
                           for a, b, c in _representative_triples(rows))
    return matrix_rank(system)


def full_report(obj) -> RelationReport:
    """Run the four relation checks on a Graph or Tournament.

    3a and 3b share one set of representative triples.  The overall
    verdict requires all four relations plus, in the directed case, at
    least one arc: a tournament with C_P symmetric (only possible with no
    arcs at all) cannot carry a *non-symmetric* spin model because its
    generator and the rotated generator coincide.
    """
    rows, directed = _generator(obj)
    pairs = _pair_table(rows)
    letters, triples = _letter_rows(rows, directed), _representative_triples(rows, pairs)
    return RelationReport(
        n=len(rows), directed=directed,
        r1b=check_1b(obj), r2b=check_2b(obj, pairs),
        r3a=_span_check(letters, triples, "D", "S"),
        r3b=_span_check(letters, triples, "S", "D"),
        nonsymmetric_premise=not directed or any(rows))


def spin_model_verdict(obj) -> bool:
    """The oracle's overall verdict, short-circuiting cheap checks first.

    Equivalent to ``full_report(obj).is_spin_model``.  It asks 1b for the
    first miss on the P rows before any other row is built, so an
    irregular graph costs one popcount per row; it skips the span systems
    when an earlier relation already fails; and of 2b, 3a and 3b it asks
    only whether each system is consistent (``_consistent``, which stops
    at the first row met again with another target), over the basis
    (``_basis_rows``), so it builds no fit, coefficient or witness.  These
    are what make census-scale scans affordable.
    """
    rows, directed = _generator(obj)
    if directed and not any(rows):
        return False
    if _first_1b_miss(rows) is not None or not _consistent(_2b_equations(rows)):
        return False
    letters, triples = _basis_rows(rows, directed), _representative_triples(rows)
    return (_consistent(_span_equations(letters, rows, triples, "D"))
            and _consistent(_span_equations(letters, rows, triples, "S")))
