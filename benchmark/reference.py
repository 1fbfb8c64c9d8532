"""A fixed reference computation that measures how fast the host is right now.

The benchmark runs on a few cores of a shared host that flips between a
fast and a slow state (up to 1.8x apart) many times a minute, so the raw
pass times of ten runs of one commit spread by 20-45 %.  The reference is
timed between passes; it slows with the host, and the mean pass divided by
the mean reference sample does not.  It shares no code with spinweb, so a
change to the program never moves it.  It mixes the kinds of work spinweb
does: exact ``Fraction`` elimination, tuple keys of bitset intersection
counts over vertex triples gathered in a dict, and small numpy bit counts.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# The unit of normalised times: seconds on a host where one reference
# computation takes NOMINAL_S.  On 2 vCPUs of an Intel Xeon with Python
# 3.11.7 it takes 0.022-0.045 s, depending on the host's state.
NOMINAL_S = 0.04
BLOCK_SAMPLES = 3

# The reference for set-up time: a fresh interpreter times the import of a
# fixed set of standard-library modules, as the set-up probe times the
# import of spinweb.  Process start and module loading slow with the host
# differently from computation, so the in-process reference does not track
# them.  Normalised set-up times are seconds on a host where this import
# takes IMPORTS_NOMINAL_S (about its time on the host named above).
IMPORTS_PROBE = """
import time
start = time.perf_counter()
import argparse, csv, dataclasses, decimal, email.parser, fractions, gzip, http.client, json, statistics
print(repr(time.perf_counter() - start))
"""
IMPORTS_NOMINAL_S = 0.06

_rng = random.Random(20190227)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(9)]
           for _ in range(9)]
_ROWS = [_rng.getrandbits(32) for _ in range(32)]
_INDICES = np.arange(1 << 14, dtype=np.int64)


def _eliminate(matrix: list[list[Fraction]]) -> int:
    rows = [row[:] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _triple_profiles(rows: list[int]) -> int:
    """Distinct (order, degree, intersection count) keys over all triples.

    The keys are reduced mod 4 so that the dict stays small and the
    reference does not raise the run's peak memory.
    """
    degrees = [row.bit_count() & 3 for row in rows]
    seen: dict[tuple, tuple[int, int, int]] = {}
    for u, a in enumerate(rows):
        for v, b in enumerate(rows):
            ab = a & b
            pair = ab.bit_count() & 3
            for w, c in enumerate(rows):
                key = (u < v, v < w, degrees[u], degrees[v], degrees[w], pair,
                       (ab & c).bit_count() & 3)
                if key not in seen:
                    seen[key] = (u, v, w)
    return len(seen)


def _bit_counts() -> int:
    return sum(int(np.bitwise_count(_INDICES & mask).sum()) for mask in range(1, 17))


def work() -> tuple[int, int, int]:
    return (sum(_eliminate(_MATRIX) for _ in range(10)), _triple_profiles(_ROWS), _bit_counts())


def seconds() -> float:
    """Time one reference computation."""
    start = perf_counter()
    work()
    return perf_counter() - start


def block() -> list[float]:
    """BLOCK_SAMPLES reference timings in a row."""
    return [seconds() for _ in range(BLOCK_SAMPLES)]


def normalise(pass_seconds: list[float], reference_seconds: list[float]) -> float:
    """NOMINAL_S times the mean pass over the mean reference sample of a run.

    The host flips between a fast and a slow state, often within a pass, so
    the share of a run spent in the slow state moves raw pass times by tens
    of percent.  Reference samples taken between passes see the same share;
    a ratio of means, not of medians, keeps it in proportion.
    """
    return NOMINAL_S * statistics.fmean(pass_seconds) / statistics.fmean(reference_seconds)


def normalise_each(timings: list[float], references: list[float],
                   nominal: float) -> list[float]:
    """Each timing times ``nominal`` over the mean of the reference timings
    taken just before and just after it (``references[i]`` and
    ``references[i + 1]``)."""
    return [nominal * timing / ((before + after) / 2)
            for timing, before, after in zip(timings, references, references[1:])]
