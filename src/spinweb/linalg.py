"""Exact linear algebra over the integers for small dense systems.

Everything the state-sum oracle solves arrives as integer matrices whose
duplicate rows have already been collapsed.  One fraction-free forward
elimination (in the spirit of Bareiss, Math. Comp. 22, 1968) settles rank
and span membership exactly: rows are only ever scaled by nonzero integers
and divided by their gcd, and a row below a pivot is updated only from
the pivot's column on, since it is already zero left of it.
``solve_membership`` then clears above each pivot by the same integer
step, over the pivot rows restricted to the pivot columns and the target,
so no rational arithmetic happens until a coefficient is read out.
``is_consistent`` reads only the consistency of the forward pass, for
callers that need a yes/no answer and no coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _cleared(row: list[int], prow: list[int], p: int, f: int) -> list[int]:
    """p * row - f * prow, divided by the gcd of its entries."""
    new = [p * a - f * b for a, b in zip(row, prow)]
    g = gcd(*new)
    return [v // g for v in new] if g > 1 else new


def _eliminate(rows: list[list[int]], ncols: int) -> list[int]:
    """Forward-eliminate the first ncols columns in place, return pivot columns.

    The pivot of column c is the first row at or below the current one with
    a nonzero entry there; it is swapped into place and the column cleared
    below it.  Rows below it are zero left of c, so only their columns c..
    are rewritten.
    """
    pivots = []
    r = 0
    height = len(rows)
    for c in range(ncols):
        if r == height:
            break
        pivot = next((i for i in range(r, height) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        tail = rows[r][c:]
        p = tail[0]
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                row[c:] = _cleared(row[c:], tail, p, f)
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
    original equation disagrees with the fit.  After the forward pass, the
    pivot rows, cut down to the pivot columns and the target, are cleared
    above each pivot from the last one up; a free column's coefficient is
    0, so the columns left out cannot change the fit.
    """
    work, pivots, consistent = _eliminate_augmented(rows, targets)
    if not work:
        return [], True
    ncols = len(work[0]) - 1
    # pivot row r as [target, its entries in pivot columns r, r + 1, ...]
    upper = [[row[ncols]] + [row[c] for c in pivots[r:]]
             for r, row in enumerate(work[:len(pivots)])]
    for r in range(len(pivots) - 1, 0, -1):
        target, p = upper[r]          # cleared right of its pivot already
        for i in range(r):
            row = upper[i]
            f = row.pop()             # its entry in column r, the last one left
            if f:
                upper[i] = _cleared(row, [target] + [0] * (len(row) - 1), p, f)
    fit = [Fraction(0)] * ncols
    for (target, p), c in zip(upper, pivots):
        fit[c] = Fraction(target, p)
    return fit, consistent


def is_consistent(rows, targets) -> bool:
    """Whether sum_j c_j * rows[i][j] = targets[i] has a solution.

    The consistent flag of ``solve_membership`` from the same forward pass,
    without the back pass or a fit read out as fractions.
    """
    return _eliminate_augmented(rows, targets)[2]
