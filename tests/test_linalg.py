import random
from fractions import Fraction

from spinweb.linalg import is_consistent, matrix_rank, solve_membership


def reference_fit(rows, targets):
    """Fraction Gauss-Jordan with the same pivot rule, target column excluded."""
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
    return fit, consistent, len(pivots)


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
