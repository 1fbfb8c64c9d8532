"""Seeded, deterministic inputs for the spinweb benchmark.

Everything the program receives is graph6 text built here.  The graph6
codec, the named-graph constructions, the relabelings and the reference
truths below are this module's own and share no code with spinweb, so a
defect in the program's codec or generators cannot hide itself.

Graphs are lists of adjacency bitmasks: bit v of ``adj[u]`` is set iff u
and v are adjacent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The shapes of the random stream graphs are drawn once from this constant
# seed; the workload seed only relabels and orders them.  The exact oracle
# takes from 0.05 s to 1.3 s on one random irregular 6- or 7-vertex graph, and
# from 0.06 s to 0.3 s on one random regular graph on 7-8 vertices, so shapes
# drawn afresh per seed would make the pass time a property of the seed
# rather than of the program.
SHAPE_SEED = 20190227
IRREGULAR_SHAPES = ((6, 1),)             # (vertex count, how many)
REGULAR_SHAPES = ((7, 2), (7, 4), (8, 3), (8, 5))    # (vertex count, degree)
MALFORMED = (b"D?!", b"G??", b"A__")     # invalid byte, truncated, trailing bytes
MALFORMED_LINES = 2
FIXTURES = ("schlafli", "higman_sims")


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------

def encode_graph6(adj: list[int]) -> bytes:
    n = len(adj)
    if n < 63:
        head = bytes([n + 63])
    else:
        head = bytes([126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    bits = [(adj[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = bytes(63 + int("".join(map(str, bits[k:k + 6])), 2)
                 for k in range(0, len(bits), 6))
    return head + body


def decode_graph6(data: bytes) -> list[int]:
    data = data.strip()
    if data[0] == 126:
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    bits = "".join(format(byte - 63, "06b") for byte in body)
    adj = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k] == "1":
                adj[i] |= 1 << j
                adj[j] |= 1 << i
            k += 1
    return adj


# ---------------------------------------------------------------------------
# graphs and their reference truths
# ---------------------------------------------------------------------------

def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~row & ~(1 << v) for v, row in enumerate(adj)]


def relabel(adj: list[int], perm: list[int]) -> list[int]:
    """Vertex v of the input becomes vertex perm[v] of the output."""
    out = [0] * len(adj)
    for u, row in enumerate(adj):
        pu = perm[u]
        while row:
            low = row & -row
            out[pu] |= 1 << perm[low.bit_length() - 1]
            row ^= low
    return out


def is_regular(adj: list[int]) -> bool:
    return len({row.bit_count() for row in adj}) == 1


def is_union_of_equal_cliques(adj: list[int]) -> bool:
    closed = [row | (1 << v) for v, row in enumerate(adj)]
    for v, ball in enumerate(closed):
        rest = ball
        while rest:
            low = rest & -rest
            if closed[low.bit_length() - 1] != ball:
                return False
            rest ^= low
    return len({ball.bit_count() for ball in closed}) == 1


def regular_is_spin_model(adj: list[int]) -> bool:
    """Truth for a regular graph on at most 8 vertices.

    Every strongly regular graph on at most 8 vertices is imprimitive, so
    the only spin models there are unions of equal cliques and their
    complements (the pentagon needs exactly 5 vertices).
    """
    assert len(adj) <= 8 and is_regular(adj)
    return is_union_of_equal_cliques(adj) or is_union_of_equal_cliques(complement(adj))


def _paley(q: int) -> list[int]:
    squares = {(x * x) % q for x in range(1, q)}
    return from_edges(q, [(a, b) for a in range(q) for b in range(a + 1, q)
                          if (b - a) % q in squares])


def _union_complete(m: int, size: int) -> list[int]:
    return from_edges(m * size, [(b * size + i, b * size + j) for b in range(m)
                                 for i in range(size) for j in range(i + 1, size)])


def _kneser_5_2() -> list[int]:
    """Petersen graph: the 2-subsets of a 5-set, adjacent when disjoint."""
    pairs = [p for p in range(32) if p.bit_count() == 2]
    return from_edges(10, [(i, j) for i in range(10) for j in range(i + 1, 10)
                           if not pairs[i] & pairs[j]])


@dataclass(frozen=True)
class Named:
    """A named graph and its known verdict (None when it is not a spin model).

    ``hit`` is the case, family and dims columns the stream census prints.
    """

    name: str
    adj: list[int]
    hit: tuple[str, str, str] | None


NAMED = (
    Named("pentagon", from_edges(5, [(i, (i + 1) % 5) for i in range(5)]),
          ("pentagon", "Kauffman", "13")),
    Named("paley9", from_edges(9, [(a, b) for a in range(9) for b in range(a + 1, 9)
                                   if (a // 3 == b // 3) != (a % 3 == b % 3)]),
          ("q-condition holds", "Kauffman", "14,15")),
    Named("paley13", _paley(13), None),
    Named("paley17", _paley(17), None),
    Named("clebsch", from_edges(16, [(u, v) for u in range(16) for v in range(u + 1, 16)
                                     if (u ^ v).bit_count() in (1, 4)]),
          ("q-condition holds", "Kauffman", "14,15")),
    Named("petersen", _kneser_5_2(), None),
    Named("3K3", _union_complete(3, 3), ("union of completes", "Bisch-Jones", "12")),
    Named("2K4", _union_complete(2, 4), ("union of completes", "Bisch-Jones", "11")),
    Named("K6", _union_complete(1, 6), ("union of completes", "TLJ", "5")),
)


def _random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def random_regular(rng: random.Random, n: int, k: int) -> list[int]:
    """Uniform pairing-model k-regular graph on n vertices (rejection)."""
    while True:
        points = [v for v in range(n) for _ in range(k)]
        rng.shuffle(points)
        adj = [0] * n
        for a, b in zip(points[::2], points[1::2]):
            if a == b or (adj[a] >> b) & 1:
                break
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        else:
            return adj


def regular_shapes() -> list[list[int]]:
    """The fixed regular graphs of the stream, one per (n, k) of REGULAR_SHAPES."""
    rng = random.Random(f"regular:{SHAPE_SEED}")
    return [random_regular(rng, n, k) for n, k in REGULAR_SHAPES]


def irregular_shapes() -> list[list[int]]:
    """The fixed pool of random irregular graphs, G(n, 1/2) by rejection."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for n, count in IRREGULAR_SHAPES:
        while sum(len(s) == n for s in shapes) < count:
            adj = from_edges(n, [(i, j) for j in range(1, n) for i in range(j)
                                 if rng.random() < 0.5])
            if not is_regular(adj):
                shapes.append(adj)
    return shapes


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StreamLine:
    """One line of the stream and what the census must say about it.

    ``expect`` is None for a malformed line, else the hit columns (case,
    family, dims) for a spin model, with family and dims None when only the
    case is known, or () for a graph that is not a spin model.
    """

    text: bytes
    kind: str
    expect: tuple | None


def stream_lines(seed: int, index: int = 0) -> list[StreamLine]:
    """The stream of pass ``index``: each pass relabels and reorders afresh,
    because the oracle's cost on a graph depends on its labeling."""
    rng = random.Random(f"stream_mix:{seed}:{index}")
    lines = []
    for named in NAMED:
        adj = relabel(named.adj, _random_perm(rng, len(named.adj)))
        lines.append(StreamLine(encode_graph6(adj), named.name, named.hit or ()))
    for shape in regular_shapes():
        adj = relabel(shape, _random_perm(rng, len(shape)))
        n, k = len(adj), adj[0].bit_count()
        expect = ("union of completes", None, None) if regular_is_spin_model(adj) else ()
        lines.append(StreamLine(encode_graph6(adj), f"regular:{n},{k}", expect))
    for shape in irregular_shapes():
        adj = relabel(shape, _random_perm(rng, len(shape)))
        lines.append(StreamLine(encode_graph6(adj), f"irregular:{len(adj)}", ()))
    rng.shuffle(lines)
    for text in rng.sample(MALFORMED, MALFORMED_LINES):
        lines.insert(rng.randrange(len(lines) + 1), StreamLine(text, "malformed", None))
    return lines


def stream_bytes(lines: list[StreamLine]) -> bytes:
    return b"".join(line.text + b"\n" for line in lines)


def load_fixtures(root: Path) -> dict[str, list[int]]:
    return {name: decode_graph6((root / "fixtures" / f"{name}.g6").read_bytes())
            for name in FIXTURES}


def fixture_relabelings(fixtures: dict[str, list[int]], seed: int):
    """Yield, per pass, one seeded relabeling of each fixture as graph6."""
    rng = random.Random(f"large_srg:{seed}")
    while True:
        yield {name: encode_graph6(relabel(adj, _random_perm(rng, len(adj))))
               for name, adj in fixtures.items()}
