"""Exact linear algebra over the integers for small dense systems.

Everything the state-sum oracle solves arrives as integer matrices whose
duplicate rows have already been collapsed.  One fraction-free
Gauss-Jordan pass (in the spirit of Bareiss, Math. Comp. 22, 1968) settles
rank, span membership and the fitted coefficients exactly: rows are only
ever scaled by nonzero integers and divided by their gcd, so no rational
arithmetic happens until a coefficient is read out.  ``is_consistent``
reads only the consistency of the same elimination, for callers that need
a yes/no answer and no coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _eliminate(rows: list[list[int]], ncols: int) -> list[int]:
    """Row-reduce the first ncols columns in place, return pivot columns.

    The pivot of column c is the first row at or below the current one with
    a nonzero entry there; it is swapped into place and the column cleared
    above and below it.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                new = [p * a - f * b for a, b in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [v // g for v in new] if g > 1 else new
        pivots.append(c)
        r += 1
    return pivots


def matrix_rank(rows) -> int:
    """Rank of an integer matrix given as an iterable of equal-length rows."""
    work = [list(row) for row in rows]
    if not work:
        return 0
    return len(_eliminate(work, len(work[0])))


def _eliminate_augmented(rows, targets) -> tuple[list[list[int]], list[int], bool]:
    """Eliminate [rows | targets] on the row columns; (work, pivots, consistent).

    The system is consistent when no row past the pivots keeps a nonzero
    target, that is when the target lies in the column span.
    """
    work = [list(row) + [t] for row, t in zip(rows, targets)]
    if not work:
        return work, [], True
    ncols = len(work[0]) - 1
    pivots = _eliminate(work, ncols)
    return work, pivots, not any(row[ncols] for row in work[len(pivots):])


def solve_membership(rows, targets) -> tuple[list[Fraction], bool]:
    """Fit sum_j c_j * rows[i][j] = targets[i] with one elimination pass.

    Returns (fit, consistent).  The fit solves the largest consistent
    subsystem the pivots select, with free variables 0; consistent is False
    when the target lies outside the column span, in which case some
    original equation disagrees with the fit.
    """
    work, pivots, consistent = _eliminate_augmented(rows, targets)
    if not work:
        return [], True
    ncols = len(work[0]) - 1
    fit = [Fraction(0)] * ncols
    for row, c in zip(work, pivots):
        fit[c] = Fraction(row[ncols], row[c])
    return fit, consistent


def is_consistent(rows, targets) -> bool:
    """Whether sum_j c_j * rows[i][j] = targets[i] has a solution.

    The consistent flag of ``solve_membership`` from the same elimination,
    without reading a fit out as fractions.
    """
    return _eliminate_augmented(rows, targets)[2]
