"""Exhaustive labeled-graph censuses and graph6 stream scanning.

The built-in census enumerates every labeled graph on 1..max_n vertices
(max_n <= 8; 2^28 graphs at n = 8 is the accepted ceiling) and runs the
closed-form classifier against the state-sum oracle.  A numpy degree
pre-filter rejects non-regular graphs before any oracle linear algebra:
a non-regular graph cannot pass Relation 1b nor be strongly regular, so
both paths say "not a spin model" without further work.  To guard the
pre-filter itself, every guard_stride-th rejected graph still runs both
full paths.

Enumeration order is fixed (n ascending, edge-bit index ascending, bits
in graph6 pair order), and the guard sample is a deterministic function
of the index, so results do not depend on the worker count or the block
size.  A task is one block of at most 2^16 indices of one n: n <= 7
makes 38 tasks, 32 of them the n = 7 blocks of a few hundredths of a
second each, so a pool's workers finish within one small block of each
other and each worker's numpy pre-filter arrays stay small.  Blocks are
merged in task order; the first disagreement in enumeration order stops
the census and cancels the blocks not yet started.

A graph is built from its index one byte at a time: each byte of the
index selects a precomputed n x n bit matrix of its pairs, packed with one
row per byte (stride 8, the layout ``graphs`` validates in), and the rows
are the bytes of the OR of one matrix per index byte.  The ``Graph`` or
``Tournament`` made from them is validated like any other, by one packed
transpose.
"""

from __future__ import annotations

import enum
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .classifier import (Verdict, VerdictCase, classify_symmetric,
                         classify_tournament)
from .graph6 import read_graph6_lines, write_graph6
from .graphs import (Graph, Tournament, circulant_tournament, matrix_stride,
                     unpack_rows)
from .regularity import three_point_params
from .statesum import full_report, spin_model_verdict

MAX_BUILTIN_N = 8
_BLOCK = 1 << 16


class CensusMode(enum.Enum):
    ASSERT_EQUIVALENCE = "assert_equivalence"
    LIST_SPIN_MODELS = "list_spin_models"
    LIST_3PT_REGULAR = "list_3pt_regular"


class CounterexampleFound(RuntimeError):
    def __init__(self, disagreement: "Disagreement"):
        self.disagreement = disagreement
        super().__init__(
            f"classifier/oracle disagreement on {disagreement.graph6!r} "
            f"(n={disagreement.n}, index={disagreement.index}): "
            f"classifier={disagreement.classifier}, oracle={disagreement.oracle}")


@dataclass(frozen=True)
class CensusConfig:
    max_n: int = 7
    input: str | None = None
    mode: CensusMode = CensusMode.ASSERT_EQUIVALENCE
    workers: int = 1
    guard_stride: int = 100

    def __post_init__(self):
        if self.input is None and not 1 <= self.max_n <= MAX_BUILTIN_N:
            raise ValueError(f"built-in enumeration supports 1 <= max_n <= {MAX_BUILTIN_N}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.guard_stride < 1:
            raise ValueError(f"guard_stride must be >= 1, got {self.guard_stride}")
        if isinstance(self.mode, str):
            object.__setattr__(self, "mode", CensusMode(self.mode))


@dataclass(frozen=True)
class Hit:
    n: int
    index: int
    graph6: str
    verdict: Verdict
    report: object


@dataclass(frozen=True)
class Disagreement:
    n: int
    index: int
    graph6: str
    classifier: bool
    oracle: bool


@dataclass
class CensusResult:
    graphs_seen: int = 0
    counts: dict[str, int] = field(default_factory=dict)
    hits: list[Hit] = field(default_factory=list)
    disagreement: Disagreement | None = None
    guarded: int = 0
    line_errors: list[tuple[int, str]] = field(default_factory=list)

    def bump(self, case: str, amount: int = 1):
        self.counts[case] = self.counts.get(case, 0) + amount


# ---------------------------------------------------------------------------
# labeled enumeration
# ---------------------------------------------------------------------------

@functools.cache
def pair_positions(n: int) -> tuple[tuple[int, int], ...]:
    """Edge-bit order: pair (i, j), i < j, sorted by j then i (graph6 order)."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


@functools.cache
def _byte_tables(n: int, directed: bool) -> tuple[tuple[int, ...], ...]:
    """Per index byte, the packed n x n bit matrix of each of its 256 values.

    The layout is that of ``graphs``' packed matrices: row i at bits
    i * stride .. of the entry, with stride = ``matrix_stride(n)``, which is
    8 for every n <= MAX_BUILTIN_N, so that the OR of one entry per byte,
    read as n little-endian bytes, is the tuple of rows.  Bit
    ``i * stride + j`` of an entry is set iff the byte's pairs put j in row
    i: both (i, j) and (j, i) for a set bit of a graph index; i -> j for a
    set bit of a tournament index and j -> i for a clear one.  Bits of the
    last byte past the n(n-1)/2 pairs select nothing, as in the per-bit
    reading of an index.  The tables of one n hold 256 entries of up to
    n * stride bits per index byte: about 40 KB at n = 8.
    """
    pairs = pair_positions(n)
    stride = matrix_stride(n)
    tables = []
    for first in range(0, len(pairs), 8):
        cells = [(1 << (i * stride + j), 1 << (j * stride + i))
                 for i, j in pairs[first:first + 8]]
        table = []
        for value in range(256):
            packed = 0
            for b, (forward, backward) in enumerate(cells):
                if (value >> b) & 1:
                    packed |= forward | (0 if directed else backward)
                elif directed:
                    packed |= backward
            table.append(packed)
        tables.append(tuple(table))
    return tuple(tables)


def _rows_from_index(n: int, index: int, directed: bool) -> tuple[int, ...]:
    packed = 0
    for table in _byte_tables(n, directed):
        packed |= table[index & 0xFF]
        index >>= 8
    return unpack_rows(packed, n)


def graph_from_index(n: int, index: int) -> Graph:
    return Graph(n, _rows_from_index(n, index, False))


def tournament_from_index(n: int, index: int) -> Tournament:
    return Tournament(n, _rows_from_index(n, index, True))


def _degree_bit_masks(n: int) -> list[int]:
    masks = [0] * n
    for b, (i, j) in enumerate(pair_positions(n)):
        masks[i] |= 1 << b
        masks[j] |= 1 << b
    return masks


def _regular_mask(n: int, indices: np.ndarray) -> np.ndarray:
    """Boolean mask of indices whose graphs have all degrees equal."""
    masks = _degree_bit_masks(n)
    deg0 = np.bitwise_count(indices & masks[0])
    ok = np.ones(len(indices), dtype=bool)
    for v in range(1, n):
        ok &= np.bitwise_count(indices & masks[v]) == deg0
    return ok


def _census_block(args) -> CensusResult:
    """Census of the graphs with index in [start, stop) on n vertices.

    The regular graphs and the guard samples run both full paths in index
    order, so the disagreement a block reports is its first one.
    """
    n, start, stop, mode_value, guard_stride = args
    mode = CensusMode(mode_value)
    out = CensusResult()
    indices = np.arange(start, stop, dtype=np.int64)
    if n == 1:
        regular = np.ones(1, dtype=bool)
    else:
        regular = _regular_mask(n, indices)
    out.graphs_seen = stop - start
    out.bump(VerdictCase.NOT_SPIN_MODEL.value, out.graphs_seen - int(np.count_nonzero(regular)))

    checked = regular | (indices % guard_stride == 0)
    for index, is_regular in zip(indices[checked].tolist(), regular[checked].tolist()):
        g = graph_from_index(n, index)
        verdict = classify_symmetric(g)
        oracle = spin_model_verdict(g)
        if is_regular:
            out.bump(verdict.case.value)
        else:
            out.guarded += 1
        # the pre-filter has already said "not a spin model" for an irregular graph
        if verdict.is_spin_model != oracle or (oracle and not is_regular):
            out.disagreement = Disagreement(
                n, index, write_graph6(g).decode(), verdict.is_spin_model, oracle)
            return out
        if not is_regular:
            continue
        if mode is CensusMode.LIST_SPIN_MODELS and verdict.is_spin_model:
            out.hits.append(Hit(n, index, write_graph6(g).decode(),
                                verdict, full_report(g)))
        elif mode is CensusMode.LIST_3PT_REGULAR and three_point_params(g) is not None:
            out.hits.append(Hit(n, index, write_graph6(g).decode(),
                                verdict, full_report(g)))
    return out


def _merge(total: CensusResult, part: CensusResult):
    total.graphs_seen += part.graphs_seen
    total.guarded += part.guarded
    for case, count in part.counts.items():
        total.bump(case, count)
    total.hits.extend(part.hits)
    if total.disagreement is None:
        total.disagreement = part.disagreement


def run_census(cfg: CensusConfig) -> CensusResult:
    """Run the configured census; see scan_stream for the stream variant."""
    if cfg.input is not None:
        return scan_stream(cfg.input, cfg.mode)
    tasks = []
    for n in range(1, cfg.max_n + 1):
        total = 1 << (n * (n - 1) // 2)
        for start in range(0, total, _BLOCK):
            tasks.append((n, start, min(start + _BLOCK, total),
                          cfg.mode.value, cfg.guard_stride))
    result = CensusResult()
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_census_block, task) for task in tasks]
            for future in futures:
                _merge(result, future.result())
                if result.disagreement is not None:
                    pool.shutdown(cancel_futures=True)
                    break
    else:
        for task in tasks:
            _merge(result, _census_block(task))
            if result.disagreement is not None:
                break
    if cfg.mode is CensusMode.ASSERT_EQUIVALENCE and result.disagreement is not None:
        raise CounterexampleFound(result.disagreement)
    result.hits.sort(key=lambda h: (h.n, h.index))
    return result


def scan_stream(path, mode: CensusMode = CensusMode.LIST_SPIN_MODELS) -> CensusResult:
    """Process a file of graph6 lines; malformed lines are recorded and skipped."""
    if isinstance(mode, str):
        mode = CensusMode(mode)
    result = CensusResult()
    if hasattr(path, "read"):
        lines = path.read().splitlines()
    else:
        with open(path, "rb") as handle:
            lines = handle.read().splitlines()
    for lineno, text, g in read_graph6_lines(lines, result.line_errors):
        result.graphs_seen += 1
        verdict = classify_symmetric(g)
        report = full_report(g)
        result.bump(verdict.case.value)
        if verdict.is_spin_model != report.is_spin_model and result.disagreement is None:
            result.disagreement = Disagreement(
                g.n, lineno, text, verdict.is_spin_model, report.is_spin_model)
            if mode is CensusMode.ASSERT_EQUIVALENCE:
                raise CounterexampleFound(result.disagreement)
        keep = (mode is not CensusMode.LIST_3PT_REGULAR and
                (mode is not CensusMode.LIST_SPIN_MODELS or verdict.is_spin_model))
        if mode is CensusMode.LIST_3PT_REGULAR:
            keep = three_point_params(g) is not None
        if keep:
            result.hits.append(Hit(g.n, lineno, text, verdict, report))
    return result


# ---------------------------------------------------------------------------
# tournaments
# ---------------------------------------------------------------------------

def iter_circulant_tournaments(n: int):
    """All circulant tournaments on Z_n (one representative per outset).

    n must be odd: ``circulant_tournament`` raises ``BadOrder`` otherwise.
    """
    halves = [(d, n - d) for d in range(1, (n + 1) // 2)]
    for choice in product(*halves):
        yield circulant_tournament(n, choice)


def run_tournament_census(ns=(3, 5), exhaustive_limit: int = 5,
                          assert_equivalence: bool = True) -> CensusResult:
    """Classifier-vs-oracle census over tournaments.

    Exhaustive labeled enumeration up to exhaustive_limit vertices; the
    circulant family only for larger (odd) n.
    """
    for n in ns:
        if n < 1:
            raise ValueError(f"tournament census needs n >= 1, got {n}")
    result = CensusResult()
    for n in ns:
        if n <= exhaustive_limit:
            tournaments = (tournament_from_index(n, index)
                           for index in range(1 << (n * (n - 1) // 2)))
        else:
            tournaments = iter_circulant_tournaments(n)
        for index, t in enumerate(tournaments):
            result.graphs_seen += 1
            verdict = classify_tournament(t)
            oracle = spin_model_verdict(t)
            result.bump(verdict.case.value)
            if verdict.is_spin_model != oracle and result.disagreement is None:
                result.disagreement = Disagreement(n, index, "", verdict.is_spin_model, oracle)
                if assert_equivalence:
                    raise CounterexampleFound(result.disagreement)
            if verdict.is_spin_model:
                result.hits.append(Hit(n, index, "", verdict, full_report(t)))
    return result


# ---------------------------------------------------------------------------
# regular-graph enumeration (structural-lemma scans)
# ---------------------------------------------------------------------------

def iter_regular_labeled_graphs(n: int, k: int):
    """Yield every labeled k-regular graph on n vertices by backtracking."""
    if k >= n or (n * k) % 2 == 1:
        return
    rows = [0] * n
    residual = [k] * n

    def extend(v: int):
        if v == n:
            yield Graph(n, tuple(rows))
            return
        need = residual[v]
        if need == 0:
            yield from extend(v + 1)
            return
        candidates = [u for u in range(v + 1, n) if residual[u] > 0]
        if len(candidates) < need:
            return
        for chosen in combinations(candidates, need):
            for u in chosen:
                rows[v] |= 1 << u
                rows[u] |= 1 << v
                residual[u] -= 1
            residual[v] = 0
            yield from extend(v + 1)
            residual[v] = need
            for u in chosen:
                rows[v] &= ~(1 << u)
                rows[u] &= ~(1 << v)
                residual[u] += 1

    yield from extend(0)


def iter_all_regular_labeled_graphs(n: int):
    for k in range(n):
        yield from iter_regular_labeled_graphs(n, k)


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

