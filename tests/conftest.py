import enum
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from spinweb.census import _BLOCK, pair_positions
from spinweb.graph6 import parse_graph6
from spinweb.graphs import Graph, Tournament, _checked_square, complement, matrix_stride
from spinweb.linalg import is_consistent
from spinweb.statesum import (DIRECTED_ALPHABET, UNDIRECTED_ALPHABET, RelationCheck,
                              _generator, _letter_rows, _representative_triples,
                              _span_check)

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    return parse_graph6((FIXTURE_DIR / f"{name}.g6").read_bytes())


# ---------------------------------------------------------------------------
# reference helpers: plain readings of a graph that the program does not need
# ---------------------------------------------------------------------------

def has_edge(g: Graph, a: int, b: int) -> bool:
    return bool((g.adj[a] >> b) & 1)


def edges(g: Graph) -> list[tuple[int, int]]:
    return [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
            if (g.adj[a] >> b) & 1]


def edge_count(g: Graph) -> int:
    return sum(g.degrees()) // 2


def has_arc(t: Tournament, a: int, b: int) -> bool:
    return bool((t.arc[a] >> b) & 1)


def out_degree(t: Tournament, a: int) -> int:
    return t.arc[a].bit_count()


def in_degree(t: Tournament, a: int) -> int:
    return sum((t.arc[b] >> a) & 1 for b in range(t.n))


def transpose_rows(rows, n: int) -> tuple[int, ...]:
    """Rows of the transpose of the n x n bit matrix with rows ``rows`` (< 2^n),
    by the packed delta-swap transpose that validation uses.  The diagonal,
    which a transpose keeps and validation refuses, is set aside around it."""
    diagonal = [row & (1 << a) for a, row in enumerate(rows)]
    _, transposed, _ = _checked_square([row ^ d for row, d in zip(rows, diagonal)], n)
    stride, mask = matrix_stride(n), (1 << n) - 1
    return tuple((transposed >> (a * stride)) & mask | d for a, d in enumerate(diagonal))


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


def random_regular_graph(n, k, rng):
    """A k-regular graph on n vertices (n * k even, k < n): a circulant, then
    degree-preserving swaps of two edges ab, cd for ac, bd."""
    offsets = list(range(1, k // 2 + 1)) + ([n // 2] if k % 2 else [])
    pairs = sorted({tuple(sorted((v, (v + s) % n))) for v in range(n) for s in offsets})
    present = set(pairs)
    for _ in range(n * k if len(pairs) > 1 else 0):
        i, j = rng.sample(range(len(pairs)), 2)
        (a, b), (c, d) = pairs[i], pairs[j]
        ac, bd = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) == 4 and ac not in present and bd not in present:
            present -= {pairs[i], pairs[j]}
            present |= {ac, bd}
            pairs[i], pairs[j] = ac, bd
    return Graph.from_edges(n, pairs)


@st.composite
def regular_graphs(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.sampled_from([k for k in range(n) if n * k % 2 == 0]))
    return random_regular_graph(n, k, draw(st.randoms(use_true_random=False)))


class TripleType(enum.Enum):
    """Induced subgraph on three distinct vertices, by edge count 3..0."""

    TRIANGLE = 3
    LAMBDA = 2
    ANTI_LAMBDA = 1
    ANTI_TRIANGLE = 0
    DEGENERATE = -1


@dataclass(frozen=True)
class Freeness:
    triangle_free: bool
    lambda_free: bool
    anti_lambda_free: bool
    anti_triangle_free: bool

    def none_free(self) -> bool:
        return not (self.triangle_free or self.lambda_free
                    or self.anti_lambda_free or self.anti_triangle_free)


def freeness(g: Graph) -> Freeness:
    """Which of the four induced triple types never occur."""
    present = [False, False, False, False]
    for a, b, c in combinations(range(g.n), 3):
        edges = (((g.adj[a] >> b) & 1) + ((g.adj[b] >> c) & 1) + ((g.adj[a] >> c) & 1))
        present[edges] = True
    return Freeness(
        triangle_free=not present[TripleType.TRIANGLE.value],
        lambda_free=not present[TripleType.LAMBDA.value],
        anti_lambda_free=not present[TripleType.ANTI_LAMBDA.value],
        anti_triangle_free=not present[TripleType.ANTI_TRIANGLE.value],
    )


# ---------------------------------------------------------------------------
# pointwise values of the oracle's pair functions
# ---------------------------------------------------------------------------

def letter_rows(obj) -> dict[str, tuple[int, ...]]:
    """The oracle's bit rows of each letter of obj's alphabet, by letter name.

    ``letters[sym][u]`` has bit x set iff sym(u, x) = 1: One, Delta and P,
    plus Q for a tournament.
    """
    rows, directed = _generator(obj)
    alphabet = DIRECTED_ALPHABET if directed else UNDIRECTED_ALPHABET
    return dict(zip(alphabet, _letter_rows(rows, directed)))


def pair_value(letters, sym: str, u: int, v: int) -> int:
    """sym(u, v) as 0 or 1, read from the oracle's bit rows."""
    return (letters[sym][u] >> v) & 1


def d_value(letters, word, a: int, b: int, c: int) -> int:
    """D[g1,g2,g3](a,b,c) = g1(a,b) * g2(b,c) * g3(c,a), one triple and word at a time."""
    g1, g2, g3 = word
    return (pair_value(letters, g1, a, b) * pair_value(letters, g2, b, c)
            * pair_value(letters, g3, c, a))


def s_value(letters, word, a: int, b: int, c: int) -> int:
    """S[g1,g2,g3](a,b,c) = sum_x g1(a,x) g2(b,x) g3(c,x), one triple and word at a time."""
    g1, g2, g3 = word
    return (letters[g1][a] & letters[g2][b] & letters[g3][c]).bit_count()


def partition_identity_holds(obj) -> bool:
    """One = Delta + P + Q pointwise on a graph or tournament.

    The oracle's One, Delta and P rows are checked with a Q derived here:
    a tournament's Q rows are the oracle's transpose of its arcs; the
    oracle builds no Q rows for a graph, so its Q is ``complement(g)``.
    """
    letters = letter_rows(obj)
    q_rows = letters["Q"] if isinstance(obj, Tournament) else complement(obj).adj
    return all(
        pair_value(letters, "One", u, v) == pair_value(letters, "Delta", u, v)
        + pair_value(letters, "P", u, v) + ((q_rows[u] >> v) & 1)
        for u in range(obj.n) for v in range(obj.n))


def check_3a(obj) -> RelationCheck:
    """Relation 3a alone, as ``full_report`` checks it: S[P,P,P] in the
    rational span of the D family."""
    rows, directed = _generator(obj)
    return _span_check(_letter_rows(rows, directed), _representative_triples(rows), "D", "S")


def check_3b(obj) -> RelationCheck:
    """Relation 3b alone, as ``full_report`` checks it: D[P,P,P] in the
    rational span of the S family."""
    rows, directed = _generator(obj)
    return _span_check(_letter_rows(rows, directed), _representative_triples(rows), "S", "D")


def reference_consistent(equations) -> bool:
    """Whether (row, target) equations have a common solution, with no early exit.

    Every distinct equation is kept, in order of first appearance, and the
    whole system is eliminated once, even where one row has two targets.
    """
    distinct = dict.fromkeys(equations)
    return is_consistent([row for row, _ in distinct], [target for _, target in distinct])


# ---------------------------------------------------------------------------
# vectorized freeness-duality scan
# ---------------------------------------------------------------------------

def _triple_bit_masks(n: int) -> list[int]:
    position = {pair: b for b, pair in enumerate(pair_positions(n))}
    return [
        (1 << position[(a, b)]) | (1 << position[(b, c)]) | (1 << position[(a, c)])
        for a, b, c in combinations(range(n), 3)
    ]


def _type_presence(n: int, indices: np.ndarray) -> list[np.ndarray]:
    """For each graph index: does a triple with 0/1/2/3 induced edges occur."""
    present = [np.zeros(len(indices), dtype=bool) for _ in range(4)]
    for tmask in _triple_bit_masks(n):
        count = np.bitwise_count(indices & tmask)
        for edges in range(4):
            present[edges] |= count == edges
    return present


def _duality_block(args) -> int:
    n, start, stop = args
    indices = np.arange(start, stop, dtype=np.int64)
    full = (1 << (n * (n - 1) // 2)) - 1
    graph_flags = _type_presence(n, indices)
    comp_flags = _type_presence(n, full ^ indices)
    violations = 0
    # triangle-free(g) == anti-triangle-free(gc) and the three mirrors
    for edges in range(4):
        violations += int(np.sum(graph_flags[edges] != comp_flags[3 - edges]))
    return violations


def freeness_duality_violations(max_n: int, workers: int = 1) -> int:
    """Count freeness/complement-duality violations over all labeled graphs.

    The answer should always be 0; a nonzero count would falsify the
    complement-duality lemma (or this library's complement handling).
    """
    tasks = []
    for n in range(3, max_n + 1):
        total = 1 << (n * (n - 1) // 2)
        for start in range(0, total, _BLOCK):
            tasks.append((n, start, min(start + _BLOCK, total)))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return sum(pool.map(_duality_block, tasks))
    return sum(_duality_block(task) for task in tasks)


@pytest.fixture
def schlafli_graph():
    return load_fixture("schlafli")


@pytest.fixture
def higman_sims_graph():
    return load_fixture("higman_sims")


@pytest.fixture
def fixture_env(monkeypatch):
    monkeypatch.setenv("SPINWEB_FIXTURES", str(FIXTURE_DIR))
    return FIXTURE_DIR
