from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from spinweb.census import _BLOCK, pair_positions
from spinweb.graph6 import parse_graph6
from spinweb.graphs import Tournament, complement
from spinweb.statesum import PairFunctions

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    return parse_graph6((FIXTURE_DIR / f"{name}.g6").read_bytes())


def pair_value(pf: PairFunctions, sym: str, u: int, v: int) -> int:
    """sym(u, v) as 0 or 1, read from the oracle's bit rows."""
    return (pf.rows[sym][u] >> v) & 1


def d_value(pf: PairFunctions, word, a: int, b: int, c: int) -> int:
    """D[g1,g2,g3](a,b,c) = g1(a,b) * g2(b,c) * g3(c,a), one triple and word at a time."""
    g1, g2, g3 = word
    return pair_value(pf, g1, a, b) * pair_value(pf, g2, b, c) * pair_value(pf, g3, c, a)


def s_value(pf: PairFunctions, word, a: int, b: int, c: int) -> int:
    """S[g1,g2,g3](a,b,c) = sum_x g1(a,x) g2(b,x) g3(c,x), one triple and word at a time."""
    g1, g2, g3 = word
    return (pf.rows[g1][a] & pf.rows[g2][b] & pf.rows[g3][c]).bit_count()


def partition_identity_holds(obj) -> bool:
    """One = Delta + P + Q pointwise on a graph or tournament.

    The oracle's One, Delta and P rows are checked with a Q derived here:
    a tournament's Q rows are the oracle's transpose of its arcs; the
    oracle builds no Q rows for a graph, so its Q is ``complement(g)``.
    """
    if isinstance(obj, Tournament):
        pf = PairFunctions.from_tournament(obj)
        q_rows = pf.rows["Q"]
    else:
        pf = PairFunctions.from_graph(obj)
        q_rows = complement(obj).adj
    return all(
        pair_value(pf, "One", u, v) == pair_value(pf, "Delta", u, v)
        + pair_value(pf, "P", u, v) + ((q_rows[u] >> v) & 1)
        for u in range(pf.n) for v in range(pf.n))


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
