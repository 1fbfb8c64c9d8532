import random
from fractions import Fraction

import pytest

from spinweb.linalg import _eliminate_augmented, is_consistent, matrix_rank, solve_membership


def reference_elimination(rows, targets):
    """Fraction Gauss-Jordan with the same pivot rule, target column excluded.

    Returns (fit, consistent, pivot columns).
    """
    work = [[Fraction(v) for v in row] + [Fraction(t)] for row, t in zip(rows, targets)]
    ncols = len(rows[0])
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        work[r] = [v / work[r][c] for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    fit = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        fit[c] = work[i][ncols]
    consistent = all(row[ncols] == 0 for row in work[len(pivots):])
    return fit, consistent, pivots


def reference_fit(rows, targets):
    """(fit, consistent, rank) of the Fraction reference."""
    fit, consistent, pivots = reference_elimination(rows, targets)
    return fit, consistent, len(pivots)


def oracle_shaped_system(rng, nrows, ncols, rank, consistent):
    """A seeded integer system shaped like the oracle's span systems.

    Entries are 0..20.  ``rank`` basis rows (entries 0..10) are followed by
    sums of two of them, so the rank is at most ``rank``; some columns are
    then zeroed and some copied over others.  The target is an integer
    combination of the columns when ``consistent``, else drawn from 0..20.
    """
    basis = [[rng.randint(0, 10) for _ in range(ncols)] for _ in range(rank)]
    rows = basis + [[x + y for x, y in zip(*rng.choices(basis, k=2))]
                    for _ in range(nrows - rank)]
    rng.shuffle(rows)
    columns = list(range(ncols))
    for c in rng.sample(columns, ncols // 8):                 # zero columns
        for row in rows:
            row[c] = 0
    for c, d in zip(rng.sample(columns, ncols // 8), rng.sample(columns, ncols // 8)):
        for row in rows:                                      # duplicate columns
            row[d] = row[c]
    if consistent:
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        targets = [sum(a * b for a, b in zip(row, x)) for row in rows]
    else:
        targets = [rng.randint(0, 20) for _ in rows]
    return [tuple(row) for row in rows], targets


class TestRank:
    def test_small_matrices(self):
        assert matrix_rank([]) == 0
        assert matrix_rank([[0, 0], [0, 0]]) == 0
        assert matrix_rank([[1, 2], [2, 4]]) == 1
        assert matrix_rank([[0, 1], [1, 0], [1, 1]]) == 2
        assert matrix_rank(((2, 0, 0), (0, 3, 0), (0, 0, -5))) == 3


class TestSolveMembership:
    def test_consistent_fit_is_exact(self):
        fit, consistent = solve_membership([(2, 1), (1, 3)], [5, 5])
        assert consistent and fit == [Fraction(2), Fraction(1)]

    def test_free_variables_are_zero(self):
        fit, consistent = solve_membership([(1, 1), (2, 2)], [3, 6])
        assert consistent and fit == [Fraction(3), Fraction(0)]

    def test_inconsistent_returns_the_consistent_part(self):
        fit, consistent = solve_membership([(1, 0), (0, 1), (1, 1)], [1, 2, 4])
        assert not consistent
        assert fit == [Fraction(1), Fraction(2)]  # misses only the last row

    def test_empty_system(self):
        assert solve_membership([], []) == ([], True)

    def test_matches_fraction_elimination(self):
        rng = random.Random(2024)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 7)
            rows = [tuple(rng.choice((0, 0, 1, 2, -1, 3)) for _ in range(ncols))
                    for _ in range(nrows)]
            targets = [rng.randint(-4, 4) for _ in range(nrows)]
            fit, consistent = solve_membership(rows, targets)
            ref_fit, ref_consistent, rank = reference_fit(rows, targets)
            assert (fit, consistent) == (ref_fit, ref_consistent)
            assert matrix_rank(rows) == rank


# (rows, columns, rank bound): tall as the oracle's graph and 5-tournament
# systems, wide, square and rank-deficient
ORACLE_SHAPES = [(21, 27, 21), (28, 27, 27), (100, 27, 27), (99, 64, 12), (100, 64, 16),
                 (10, 64, 10), (30, 64, 30), (40, 40, 9), (64, 64, 16), (6, 20, 1)]


class TestOracleShapedSystems:
    @pytest.mark.parametrize("shape", ORACLE_SHAPES, ids="{0[0]}x{0[1]}-rank{0[2]}".format)
    def test_matches_fraction_elimination(self, shape):
        nrows, ncols, rank = shape
        rng = random.Random(repr(shape))
        for consistent in (True, False):
            rows, targets = oracle_shaped_system(rng, nrows, ncols, rank, consistent)
            ref_fit, ref_consistent, ref_pivots = reference_elimination(rows, targets)
            fit, flag = solve_membership(rows, targets)
            assert (fit, flag) == (ref_fit, ref_consistent)
            assert _eliminate_augmented(rows, targets)[1] == ref_pivots
            assert matrix_rank(rows) == len(ref_pivots) <= rank
            assert is_consistent(rows, targets) == flag
            # a drawn target misses the span of rows of lower rank than their number
            assert flag == (consistent or len(ref_pivots) == nrows)


class TestIsConsistent:
    def test_matches_solve_membership(self):
        rng = random.Random(2025)
        systems = [([], []), ([()], [0]), ([(), ()], [0, 3])]
        for _ in range(300):
            nrows, ncols = rng.randint(0, 9), rng.randint(1, 7)
            rows = [tuple(rng.choice((0, 0, 1, 2, -1, 3)) for _ in range(ncols))
                    for _ in range(nrows)]
            systems.append((rows, [rng.randint(-4, 4) for _ in range(nrows)]))
        for rows, targets in systems:
            assert is_consistent(rows, targets) == solve_membership(rows, targets)[1]
        assert {is_consistent(*system) for system in systems} == {True, False}
