"""Exhaustive labeled-graph censuses and graph6 stream scanning.

Every census source (the built-in graph enumeration, a graph6 stream and
the tournament census) only builds a list of tasks; one driver
(``_run_tasks``) runs them, in this process or in a pool of worker
processes, and merges their results in task order.  The pool (and with
it ``multiprocessing``) is imported only where the driver starts one, so
a run in one process, and every command that runs no census, never loads
it.  numpy, which ``graphs`` loads at its first use, is loaded before the
pool forks, so that the workers inherit it instead of each importing it.
Each task hands its objects to one compare step, which runs the
closed-form classifier and the state-sum oracle on each, compares their
answers and records the outcome.  The sources differ only in how they
produce objects, what they pre-filter and which objects they list.  A
listed object (a ``Hit``) gets the oracle's full report, whose verdict is
the oracle's answer; every other object, a stream line that is not listed
included, gets only the oracle's yes/no verdict.

Every source stops at its first disagreement, in every mode: the compare
step returns there, the driver merges no later task and cancels the pool
tasks not yet started, and in ``assert_equivalence`` mode it raises
``CounterexampleFound``.  ``graphs_seen`` then counts the objects up to
and including the disagreeing one, and no object after it is listed.

The built-in census enumerates every labeled graph on 1..max_n vertices
(max_n <= 8; 2^28 graphs at n = 8 is the accepted ceiling).  A numpy degree
pre-filter rejects non-regular graphs before any oracle linear algebra:
a non-regular graph cannot pass Relation 1b nor be strongly regular, so
both paths say "not a spin model" without further work.  To guard the
pre-filter itself, every rejected graph whose index is a multiple of
_GUARD_STRIDE (100) still runs both full paths.  The pre-filter reads no
index: a table per index byte (``_degree_tables``, 4 KB at n = 8) holds
what each of its 256 values adds to every vertex's degree, less vertex
0's, as one int32, and since a block is aligned and of a power-of-two
size, its sums are the outer sum of one table slice per index byte, zero
exactly at the regular graphs.

Enumeration order is fixed (n ascending, edge-bit index ascending, bits
in graph6 pair order), and the guard sample is a deterministic function
of the index, so results do not depend on the worker count or the block
size.  A task is one block of at most 2^16 indices of one n: n <= 7
makes 38 tasks, 32 of them the n = 7 blocks of 1.2-2.1 ms each, at most
0.06 ms of it the pre-filter (in one process, steady state, on a shared
2-vCPU Xeon whose speed varies between runs), so a pool's workers finish
within one small block of each other.
A block's pre-filter makes one int32 sum and one boolean per index
(320 KB for 2^16 indices) from slices of its tables.

A graph6 stream is one task, its lines.  The tournament census is one
task per n: every labeled tournament on up to _EXHAUSTIVE_TOURNAMENTS (5)
vertices and only the circulant ones on more.

A block marks its guard samples with a strided slice of its mask, and
builds the matrices of all its chosen graphs in one numpy pass
(``_packed_words``): each byte of the indices gathers, from a precomputed
table per index byte, the n x n bit matrix of that byte's pairs, packed
with one row per byte (stride 8, the layout ``graphs`` validates in), and
the OR of one matrix per index byte is each graph's matrix.
``graphs_from_words`` then checks the whole array in one numpy pass and
makes each ``Graph`` from the bytes of its matrix, its rows; if any
matrix fails, every graph is made by its constructor, which raises at the
first bad one.  ``graph_from_index``, ``tournament_from_index`` and the
tournament task read their rows from the same matrices, and make each
object by its constructor.  The tables serve only the census's own sizes,
1 <= n <= MAX_BUILTIN_N, so an index is one int64 and a matrix one 64-bit
word.
"""
from __future__ import annotations

import contextlib
import enum
import functools
from collections.abc import Iterator
from itertools import combinations, count, product, repeat

from .classifier import (Verdict, VerdictCase, classify_symmetric,
                         classify_tournament)
from .graph6 import read_graph6_lines, write_graph6
from .graphs import (Graph, Record, Tournament, circulant_tournament, graphs_from_words, np,
                     rows_of_words)
from .regularity import three_point_params
from .statesum import full_report, spin_model_verdict

MAX_BUILTIN_N = 8
MAX_WORKERS = 64               # a pool forks all its workers at its first task
_BLOCK = 1 << 16
_GUARD_STRIDE = 100            # a rejected index that is a multiple of it is still checked
_EXHAUSTIVE_TOURNAMENTS = 5    # largest tournament size enumerated in full; circulants beyond
MAX_TOURNAMENT_N = 31          # 2^15 circulant outsets: 4.2 s on a 2-vCPU Xeon; +2 costs 2.2x


class CensusMode(enum.Enum):
    ASSERT_EQUIVALENCE = "assert_equivalence"
    LIST_SPIN_MODELS = "list_spin_models"
    LIST_3PT_REGULAR = "list_3pt_regular"


class CounterexampleFound(RuntimeError):
    def __init__(self, disagreement: "Disagreement"):
        self.disagreement = disagreement
        super().__init__(
            f"classifier/oracle disagreement on {disagreement.name!r} "
            f"(n={disagreement.n}, index={disagreement.index}): "
            f"classifier={disagreement.classifier}, oracle={disagreement.oracle}")


class CensusConfig(Record):
    """The built-in census: its largest order, its mode and its worker processes."""

    __slots__ = ("max_n", "mode", "workers")

    def __init__(self, max_n: int = 7, mode: CensusMode | str = CensusMode.ASSERT_EQUIVALENCE,
                 workers: int = 1):
        if not 1 <= max_n <= MAX_BUILTIN_N:
            raise ValueError(f"built-in enumeration supports 1 <= max_n <= {MAX_BUILTIN_N}, "
                             f"got {max_n}")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if workers > MAX_WORKERS:
            raise ValueError(f"workers must be <= {MAX_WORKERS}, got {workers}")
        object.__setattr__(self, "max_n", max_n)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "workers", workers)


class _CensusObject(Record):
    __slots__ = ("n", "index", "graph6")

    def __init__(self, n: int, index: int, graph6: str):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "graph6", graph6)

    @property
    def name(self) -> str:
        """The graph6 text, else ``n=N#I`` (a tournament has no graph6)."""
        return self.graph6 or f"n={self.n}#{self.index}"


class Hit(_CensusObject):
    """A listed object, with the classifier's verdict and the oracle's full report."""

    __slots__ = ("verdict", "report")

    def __init__(self, n: int, index: int, graph6: str, verdict: Verdict, report):
        super().__init__(n, index, graph6)
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "report", report)


class Disagreement(_CensusObject):
    """An object on which the classifier and the oracle answer differently."""

    __slots__ = ("classifier", "oracle")

    def __init__(self, n: int, index: int, graph6: str, classifier: bool, oracle: bool):
        super().__init__(n, index, graph6)
        object.__setattr__(self, "classifier", classifier)
        object.__setattr__(self, "oracle", oracle)


class CensusResult:
    """What a census task, or a whole census, saw; the driver merges them in task order."""

    __slots__ = ("graphs_seen", "counts", "hits", "disagreement", "guarded", "line_errors")

    def __init__(self, graphs_seen: int = 0, counts: dict[str, int] | None = None,
                 hits: list[Hit] | None = None, disagreement: Disagreement | None = None,
                 guarded: int = 0, line_errors: list[tuple[int, str]] | None = None):
        self.graphs_seen = graphs_seen
        self.counts = {} if counts is None else counts
        self.hits = [] if hits is None else hits
        self.disagreement = disagreement
        self.guarded = guarded
        self.line_errors = [] if line_errors is None else line_errors

    def bump(self, case: str, amount: int = 1):
        self.counts[case] = self.counts.get(case, 0) + amount


# ---------------------------------------------------------------------------
# the compare step
# ---------------------------------------------------------------------------

def _lists_every(obj, verdict: Verdict) -> bool:
    return True


def _lists_spin_models(obj, verdict: Verdict) -> bool:
    return verdict.is_spin_model


def _lists_3pt_regular(obj, verdict: Verdict) -> bool:
    return three_point_params(obj) is not None


# the objects each list mode records; assert_equivalence is the source's choice
_LISTED = {CensusMode.LIST_SPIN_MODELS: _lists_spin_models,
           CensusMode.LIST_3PT_REGULAR: _lists_3pt_regular}


def _compare(result: CensusResult, items, classify, listed) -> int:
    """Run both routes on each object, compare them and record into result.

    ``items`` yields (index, graph6, obj, rejected); a graph6 of None is
    written from obj when a hit or a disagreement needs it, and one of ""
    (a tournament's) names the object by n and index.  ``listed(obj,
    verdict)`` (or None: nothing is listed) picks the objects recorded as a
    ``Hit``: only they get the oracle's ``full_report``, whose
    ``is_spin_model`` is the oracle's answer; every other object gets
    ``spin_model_verdict`` alone.  A rejected object is a guard sample that
    the pre-filter has already called "not a spin model": it is counted in
    ``guarded``, not in the case tallies, is never listed, and disagrees
    when either route says "spin model".  The first disagreement is kept in
    ``result.disagreement`` and ends the step, unlisted.  Returns the number
    of objects taken from items.
    """
    seen = 0
    for index, text, obj, rejected in items:
        seen += 1
        verdict = classify(obj)
        if rejected:
            result.guarded += 1
            listing = False
        else:
            result.bump(verdict.case.value)
            listing = listed is not None and listed(obj, verdict)
        if listing:
            report = full_report(obj)
            oracle = report.is_spin_model
        else:
            oracle = spin_model_verdict(obj)
        if verdict.is_spin_model != oracle or (rejected and oracle):
            result.disagreement = Disagreement(
                obj.n, index, _graph6_text(text, obj), verdict.is_spin_model, oracle)
            return seen
        if listing:
            result.hits.append(Hit(obj.n, index, _graph6_text(text, obj), verdict, report))
    return seen


def _graph6_text(text: str | None, obj) -> str:
    return write_graph6(obj).decode() if text is None else text


# ---------------------------------------------------------------------------
# labeled enumeration
# ---------------------------------------------------------------------------

@functools.cache
def pair_positions(n: int) -> tuple[tuple[int, int], ...]:
    """Edge-bit order: pair (i, j), i < j, sorted by j then i (graph6 order)."""
    return tuple((i, j) for j in range(1, n) for i in range(j))


def _pair_tables(n: int, cell_of, dtype) -> np.ndarray:
    """Per index byte, the sum over its pairs of the cell each of its 256 values selects.

    ``cell_of(i, j)`` gives pair (i, j)'s cell with its index bit clear, and
    set; entry v of table k is ``tables[k, v]``.  Bits of the last byte past
    the n(n-1)/2 pairs select nothing, as in the per-bit reading of an
    index.  Only the census's own sizes, 1 <= n <= MAX_BUILTIN_N, have
    tables.
    """
    if not 1 <= n <= MAX_BUILTIN_N:
        raise ValueError(f"a graph built from its index needs 1 <= n <= {MAX_BUILTIN_N}, got {n}")
    cells = [cell for i, j in pair_positions(n) for cell in cell_of(i, j)]
    cells += [0] * (-len(cells) % 16)               # pairs padded to whole bytes
    cells = np.array(cells, dtype).reshape(-1, 8, 2)
    tables = np.zeros((len(cells), 256), dtype)
    for b in range(8):          # the cell of pair b that each value selects
        tables += cells[:, b, (np.arange(256) >> b) & 1]
    tables.setflags(write=False)
    return tables


@functools.cache
def _byte_tables(n: int, directed: bool) -> np.ndarray:
    """Per index byte, the packed n x n bit matrix of each of its 256 values.

    Entry v of table k is ``tables[k, v]``, one little-endian '<u8' word
    whose byte i is row i (stride 8, the layout ``graphs`` validates in for
    n <= 8), so that the bytes of the OR of one entry per index byte are the
    rows.  Bit ``8 * i + j`` of an entry is set iff the byte's pairs put j
    in row i: both (i, j) and (j, i) for a set bit of a graph index; i -> j
    for a set bit of a tournament index and j -> i for a clear one.  The
    cells are distinct bits, so an entry, their sum, is their OR: 8 KB of
    tables at n = 8.
    """
    def cells(i, j):
        forward, backward = 1 << (8 * i + j), 1 << (8 * j + i)
        return (backward, forward) if directed else (0, forward | backward)
    return _pair_tables(n, cells, "<u8")


def _packed_words(n: int, indices, directed: bool) -> np.ndarray:
    """The packed n x n matrix of the graph (or tournament) of each index, in order.

    ``indices`` is an int64 array or a sequence of ints; the result is a
    '<u8' array in the stride-8 layout, byte i row i.  Each byte of the
    indices gathers its ``_byte_tables`` entries at once, and their OR is
    each index's matrix.
    """
    tables = _byte_tables(n, directed)
    indices = np.asarray(indices, np.int64)
    packed = np.zeros(len(indices), "<u8")
    for table in tables:        # each byte's pairs have cells of their own: a sum is an OR
        packed += table[indices & 0xFF]
        indices = indices >> 8
    return packed


def _rows_from_indices(n: int, indices, directed: bool) -> Iterator[tuple[int, ...]]:
    """The rows of the graph (or tournament) of each index, in order."""
    return rows_of_words(n, _packed_words(n, indices, directed))


def graph_from_index(n: int, index: int) -> Graph:
    return Graph(n, next(_rows_from_indices(n, [index], False)))


def tournament_from_index(n: int, index: int) -> Tournament:
    return Tournament(n, next(_rows_from_indices(n, [index], True)))


@functools.cache
def _degree_tables(n: int) -> np.ndarray:
    """Per index byte, the degrees that each of its 256 values adds, less vertex 0's.

    Entry v of table k is ``tables[k, v]``, the int32 sum over the vertices
    u of (d_u - d_0) * 16^u, where d_u counts the pairs at u among the
    byte's set bits.  Summed over the bytes of an index, the entries give
    sum_u (deg_u - deg_0) * 16^u for the graph's degrees, a base-16 number
    whose digits lie in [-7, 7]: it is 0 iff the graph is regular.  A
    degree is at most 7, so every value fits in 32 bits.
    """
    ones = sum(1 << 4 * u for u in range(n))        # a 1 in every vertex's field
    def cells(i, j):            # (i, j) adds 1 to the fields of i and j, less field 0 from each
        degrees = (1 << 4 * i) + (1 << 4 * j)
        return 0, degrees - (degrees & 0xF) * ones
    return _pair_tables(n, cells, np.int32)


def _regular_mask(n: int, start: int, stop: int) -> np.ndarray:
    """Boolean mask, over the indices in [start, stop), of the graphs with all degrees equal.

    The block's size must be a power of two and start a multiple of it, as
    every census block is: then each index byte either stays fixed over the
    block or runs over an aligned slice of its 256 values, and the block's
    ``_degree_tables`` sums are the outer sum of one table slice per byte,
    the highest byte outermost, in index order.
    """
    size = stop - start
    if size < 1 or size & (size - 1) or start % size:
        raise ValueError(f"not an aligned block of a power-of-two size: [{start}, {stop})")
    tables = _degree_tables(n)
    spread = np.zeros(1, np.int32)
    for k in reversed(range(len(tables))):
        first = (start >> 8 * k) & 0xFF
        spread = np.add.outer(spread, tables[k, first:first + min(256, max(1, size >> 8 * k))])
    return spread.ravel() == 0


def _census_block(args) -> CensusResult:
    """Census of the graphs with index in [start, stop) on n vertices.

    The pre-filter's mask and the guard samples' slice are over offsets
    from start, so the block makes no array of all its indices: only the
    indices it checks, start plus the offsets marked, are materialised.
    The regular graphs and the guard samples go through the compare step
    in index order, so the disagreement a block reports is its first one.
    A block stopped by a disagreement has seen the graphs up to and
    including the disagreeing index: ``graphs_seen`` and the pre-filter's
    tally count those only, so the case tallies still sum to it.
    """
    n, start, stop, mode = args
    out = CensusResult(counts={VerdictCase.NOT_SPIN_MODEL.value: 0})   # the pre-filter's, first
    regular = _regular_mask(n, start, stop)
    checked = regular.copy()
    checked[-start % _GUARD_STRIDE::_GUARD_STRIDE] = True     # the multiples of the stride
    offsets = np.flatnonzero(checked)
    chosen = start + offsets
    graphs = graphs_from_words(n, _packed_words(n, chosen, False))
    rejected = (~regular[offsets]).tolist()
    checked_seen = _compare(out, zip(chosen.tolist(), repeat(None), graphs, rejected),
                            classify_symmetric, _LISTED.get(mode))
    last = stop if out.disagreement is None else out.disagreement.index + 1
    out.graphs_seen = last - start
    # every regular graph up to the last index seen went through the compare step
    out.bump(VerdictCase.NOT_SPIN_MODEL.value, out.graphs_seen - (checked_seen - out.guarded))
    return out


def _merge(total: CensusResult, part: CensusResult):
    total.graphs_seen += part.graphs_seen
    total.guarded += part.guarded
    for case, count in part.counts.items():
        total.bump(case, count)
    total.hits.extend(part.hits)
    total.line_errors.extend(part.line_errors)
    total.disagreement = part.disagreement


def _run_tasks(tasks, run_task, mode, workers: int = 1) -> CensusResult:
    """Run a census source's tasks and merge their results in task order.

    Each task is a tuple of ``run_task``'s arguments, to which the census
    mode is appended; ``run_task`` returns the task's ``CensusResult``.  The
    tasks run in this process, one at a time, or in a pool of ``workers``
    processes, all submitted at once.  The first task with a disagreement
    is the last one merged: the tasks not yet run are skipped or cancelled,
    and in ``assert_equivalence`` mode ``CounterexampleFound`` is raised.
    """
    mode = CensusMode(mode)
    tasks = [(*task, mode) for task in tasks]
    result = CensusResult()
    with contextlib.ExitStack() as stack:
        if workers > 1:
            # imported here, so that a run in one process never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            np.ndarray      # loads numpy now, if nothing has, so that the workers fork with it
            pool = ProcessPoolExecutor(max_workers=workers)
            stack.callback(pool.shutdown, cancel_futures=True)
            parts = pool.map(run_task, tasks)
        else:
            parts = map(run_task, tasks)
        for part in parts:
            _merge(result, part)
            if result.disagreement is not None:
                break
    if mode is CensusMode.ASSERT_EQUIVALENCE and result.disagreement is not None:
        raise CounterexampleFound(result.disagreement)
    return result


def run_census(cfg: CensusConfig) -> CensusResult:
    """Run the configured built-in census, one task per block of indices."""
    tasks = []
    for n in range(1, cfg.max_n + 1):
        total = 1 << (n * (n - 1) // 2)
        for start in range(0, total, _BLOCK):
            tasks.append((n, start, min(start + _BLOCK, total)))
    return _run_tasks(tasks, _census_block, cfg.mode, cfg.workers)


def _stream_task(args) -> CensusResult:
    """Census of the graph6 lines of a stream; malformed lines are recorded and skipped."""
    lines, mode = args
    out = CensusResult()
    items = ((lineno, text, g, False)
             for lineno, text, g in read_graph6_lines(lines, out.line_errors))
    out.graphs_seen = _compare(
        out, items, classify_symmetric,
        _lists_every if mode is CensusMode.ASSERT_EQUIVALENCE else _LISTED[mode])
    return out


def scan_stream(path, mode: CensusMode | str = CensusMode.LIST_SPIN_MODELS) -> CensusResult:
    """Process a file of graph6 lines as one task.

    ``assert_equivalence`` lists every line; the list modes list the lines
    they print, and only those get the oracle's full report.
    """
    with contextlib.nullcontext(path) if hasattr(path, "read") else open(path, "rb") as handle:
        lines = handle.read().splitlines()
    return _run_tasks([(lines,)], _stream_task, mode)


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


def _tournament_task(args) -> CensusResult:
    """Census of the tournaments on n vertices; it lists the spin models in every mode."""
    n, _ = args
    if n <= _EXHAUSTIVE_TOURNAMENTS:
        tournaments = map(Tournament, repeat(n), _rows_from_indices(
            n, np.arange(1 << (n * (n - 1) // 2)), True))
    else:
        tournaments = iter_circulant_tournaments(n)
    out = CensusResult()
    out.graphs_seen = _compare(out, zip(count(), repeat(""), tournaments, repeat(False)),
                               classify_tournament, _lists_spin_models)
    return out


def run_tournament_census(ns=(3, 5), mode=CensusMode.ASSERT_EQUIVALENCE) -> CensusResult:
    """Classifier-vs-oracle census over tournaments, one task per n.

    Exhaustive labeled enumeration up to _EXHAUSTIVE_TOURNAMENTS vertices;
    the circulant family only for larger (odd) n, up to MAX_TOURNAMENT_N:
    n has 2^((n - 1)/2) outsets, and every size is checked before any runs.
    """
    for n in ns:
        if n < 1:
            raise ValueError(f"tournament census needs n >= 1, got {n}")
        if n > MAX_TOURNAMENT_N:
            raise ValueError(f"tournament census needs n <= {MAX_TOURNAMENT_N}, got {n}")
        if n > _EXHAUSTIVE_TOURNAMENTS and n % 2 == 0:
            raise ValueError(f"circulant tournament needs odd n, got {n}")
    return _run_tasks([(n,) for n in ns], _tournament_task, mode)


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
