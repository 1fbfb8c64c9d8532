import random
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb import statesum
from spinweb.census import (graph_from_index, iter_all_regular_labeled_graphs,
                            iter_circulant_tournaments, iter_regular_labeled_graphs,
                            tournament_from_index)
from spinweb.graphs import (Graph, Tournament, circulant_tournament, clebsch, complement,
                            complete, cycle, paley, petersen, union_complete)
from spinweb.regularity import srg_params, three_point_params
from spinweb.statesum import (RelationCheck, Witness, ZeroGenerator, _d_row, _pair_table,
                              _representative_triples, _s_row, check_1b, check_2b, dim_v3,
                              full_report, spin_model_verdict, triple_words)
from tests.conftest import (check_3a, check_3b, d_value, has_edge, letter_rows,
                            load_fixture, partition_identity_holds,
                            reference_consistent, reference_tournament_rows,
                            regular_graphs, s_value, transpose_rows)


def path3():
    return Graph.from_edges(3, [(0, 1), (1, 2)])


def p_rows(obj):
    """The P rows of a graph or tournament: its adjacency or arc rows."""
    return obj.arc if isinstance(obj, Tournament) else obj.adj


def reference_1b(t: Tournament):
    """Relation 1b read off every row and column sum of C_P.

    (holds, k) when all row and column sums are k, else (False, site, lhs,
    rhs, detail) for the first row sum that differs from vertex 0's, or,
    with the row sums equal, the first column sum that does.
    """
    n = t.n
    row_sums = [sum((t.arc[a] >> x) & 1 for x in range(n)) for a in range(n)]
    column_sums = [sum((t.arc[x] >> a) & 1 for x in range(n)) for a in range(n)]
    k = row_sums[0]
    for a, total in enumerate(row_sums):
        if total != k:
            return (False, (0, a), k, total,
                    f"row sums differ: vertex 0 has {k}, vertex {a} has {total}")
    for a, total in enumerate(column_sums):
        if total != k:
            return (False, (a,), k, total,
                    f"column sum at vertex {a} is {total}, row sums are {k}")
    return (True, k)


class TestCheck1b:
    def test_pentagon(self):
        check = check_1b(cycle(5))
        assert check.holds and check.coefficients["k"] == 2

    def test_path_fails_with_degree_witness(self):
        check = check_1b(path3())
        assert not check.holds
        assert {check.witness.lhs, check.witness.rhs} == {1, 2}

    def test_3cycle_tournament(self):
        check = check_1b(circulant_tournament(3, {1}))
        assert check.holds and check.coefficients["k"] == 1

    def test_directed_needs_constant_in_degrees_too(self):
        # out-degrees (1, 1, 1, 0) fail even before in-degrees are reached
        t = Tournament.from_arcs(4, [(0, 1), (1, 2), (2, 3), (0, 2), (3, 0), (1, 3)])
        assert not check_1b(t).holds

    def test_path_witness_is_pinned(self):
        witness = check_1b(path3()).witness
        assert (witness.site, witness.lhs, witness.rhs, witness.detail) == \
            ((0, 1), 1, 2, "row sums differ: vertex 0 has 1, vertex 1 has 2")

    def test_even_tournament_witness_is_pinned(self):
        # no tournament on an even number of vertices has constant out-degrees
        t = Tournament.from_arcs(4, [(0, 1), (0, 2), (3, 0), (1, 2), (1, 3), (2, 3)])
        witness = check_1b(t).witness
        assert (witness.site, witness.lhs, witness.rhs, witness.detail) == \
            ((0, 2), 2, 1, "row sums differ: vertex 0 has 2, vertex 2 has 1")
        assert not spin_model_verdict(t)

    def test_row_and_column_sum_reference_on_every_tournament_up_to_5(self):
        # constant out-degrees force constant in-degrees on a tournament,
        # so the reference never reaches a column witness
        checked = 0
        for n in range(1, 6):
            for idx in range(1 << (n * (n - 1) // 2)):
                t = tournament_from_index(n, idx)
                check = check_1b(t)
                if check.holds:
                    got = (True, check.coefficients["k"])
                else:
                    w = check.witness
                    got = (False, w.site, w.lhs, w.rhs, w.detail)
                assert got == reference_1b(t)
                checked += 1
        assert checked == 1 + 2 + 8 + 64 + 1024


class TestCheck2b:
    def test_paley9(self):
        check = check_2b(paley(9))
        assert check.holds
        assert (check.coefficients["k"], check.coefficients["lambda"],
                check.coefficients["mu"]) == (4, 1, 2)

    def test_c6_fails_with_pair_witness(self):
        check = check_2b(cycle(6))
        assert not check.holds and check.witness is not None
        a, b = check.witness.site
        assert a != b

    def test_3cycle_tournament_lambda_equals_mu(self):
        check = check_2b(circulant_tournament(3, {1}))
        assert check.holds
        assert check.coefficients["lambda"] == check.coefficients["mu"]
        assert check.coefficients["k"] == 1

    def test_agrees_with_srg_params_on_regular_graphs(self):
        for n in range(2, 7):
            for g in iter_all_regular_labeled_graphs(n):
                check = check_2b(g)
                params = srg_params(g)
                assert check.holds == (params is not None)
                if check.holds and not params.lam_vacuous and not params.mu_vacuous:
                    assert (check.coefficients["k"], check.coefficients["lambda"],
                            check.coefficients["mu"]) == \
                        (params.k, params.lam, params.mu)


def reference_2b_check(obj) -> RelationCheck:
    """check_2b's result from the fit of all n^2 pair equations, in (a, b) order."""
    rows = p_rows(obj)
    solution, miss = statesum._fit_or_witness(statesum._2b_equations(rows),
                                              product(range(obj.n), repeat=2))
    if miss is not None:
        site, target, fitted = miss
        return RelationCheck(False, witness=Witness(
            site=site, lhs=target, rhs=fitted,
            detail=(f"pair {site}: common-neighbor count {target} vs "
                    f"{fitted} from coefficients fitted elsewhere")))
    return RelationCheck(True, coefficients=dict(zip(("k", "lambda", "mu"), solution)))


class TestCheck2bMatchesPairStream:
    """check_2b, solved at each pair profile's first pair, gives the fit of all n^2 pairs."""

    def test_irregular_graphs_and_sampled_tournaments(self):
        rng = random.Random(39)
        subjects = [Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                         if rng.random() < density])
                    for n, density in ((rng.randint(1, 14), rng.random()) for _ in range(200))]
        subjects += [tournament_from_index(5, idx) for idx in rng.sample(range(1 << 10), 160)]
        held = 0
        for obj in subjects:
            check = check_2b(obj)
            assert check == reference_2b_check(obj)
            held += check.holds
        assert 0 < held < len(subjects)

    @pytest.mark.parametrize("name", ["C5", "Petersen", "Clebsch", "Paley9", "Paley13", "3K3",
                                      "C6", "schlafli", "higman_sims", "mclaughlin"])
    def test_named_graphs_and_fixtures(self, name):
        named = {**NAMED_GRAPHS, "C6": lambda: cycle(6)}
        obj = named[name]() if name in named else load_fixture(name)
        check = check_2b(obj)
        assert check == reference_2b_check(obj)
        assert full_report(obj).r2b == check


class TestCheck3a:
    def test_clebsch_holds_and_solution_reproduces_target(self):
        g = clebsch()
        check = check_3a(g)
        assert check.holds
        assert three_point_params(g).q0 == 1
        letters = letter_rows(g)
        words = triple_words(False)
        coeffs = [check.coefficients.get(f"D[{','.join(w)}]", Fraction(0))
                  for w in words]
        for a, b, c in product(range(g.n), repeat=3):
            combo = sum(f * d_value(letters, w, a, b, c)
                        for f, w in zip(coeffs, words) if f)
            assert combo == s_value(letters, ("P", "P", "P"), a, b, c)

    def test_petersen_fails(self):
        assert not check_3a(petersen()).holds

    def test_schlafli_holds(self):
        assert check_3a(load_fixture("schlafli")).holds

    def test_equivalent_to_three_point_regularity(self):
        # exhaustive on n <= 5, all regular graphs on 6 and 7
        seen_irregular = 0
        for n in range(1, 6):
            for idx in range(1 << (n * (n - 1) // 2)):
                g = graph_from_index(n, idx)
                assert check_3a(g).holds == (three_point_params(g) is not None)
                seen_irregular += 1
        for n in (6, 7):
            for g in iter_all_regular_labeled_graphs(n):
                assert check_3a(g).holds == (three_point_params(g) is not None)


class TestCheck3b:
    def test_petersen_triangle_free_holds(self):
        g = petersen()
        letters = letter_rows(g)
        assert all(d_value(letters, ("P", "P", "P"), a, b, c) == 0
                   for a, b, c in product(range(10), repeat=3))
        assert check_3b(g).holds

    def test_schlafli_fails(self):
        assert not check_3b(load_fixture("schlafli")).holds

    def test_2k3_holds_with_triangles_present(self):
        g = union_complete(2, 3)
        letters = letter_rows(g)
        assert any(d_value(letters, ("P", "P", "P"), a, b, c) == 1
                   for a, b, c in product(range(6), repeat=3))
        check = check_3b(g)
        assert check.holds
        # solution really does reproduce the triangle function
        words = triple_words(False)
        coeffs = [check.coefficients.get(f"S[{','.join(w)}]", Fraction(0))
                  for w in words]
        for a, b, c in product(range(6), repeat=3):
            combo = sum(f * s_value(letters, w, a, b, c)
                        for f, w in zip(coeffs, words) if f)
            assert combo == d_value(letters, ("P", "P", "P"), a, b, c)

    def test_regular_5_tournaments_fail(self):
        count = 0
        for outset in ({1, 2}, {1, 3}, {2, 4}, {3, 4}):
            t = circulant_tournament(5, outset)
            assert not check_3b(t).holds
            count += 1
        assert count == 4


def row_builder_corpus():
    rng = random.Random(34)
    yield from (cycle(5), petersen(), paley(9), union_complete(3, 3), complete(1))
    for n in range(1, 5):
        for index in range(1 << (n * (n - 1) // 2)):
            yield tournament_from_index(n, index)
    for index in rng.sample(range(1 << 10), 64):
        yield tournament_from_index(5, index)
    yield from iter_circulant_tournaments(7)


class TestRowBuilders:
    """The one-step D and S rows equal the pointwise values at every triple."""

    def test_match_pointwise_reference_at_every_triple(self):
        checked = 0
        for obj in row_builder_corpus():
            by_name = letter_rows(obj)
            words = triple_words(isinstance(obj, Tournament))
            letters = list(by_name.values())
            target = [by_name["P"]]
            ppp = ("P", "P", "P")
            for a, b, c in product(range(obj.n), repeat=3):
                assert _d_row(letters, a, b, c) == \
                    tuple(d_value(by_name, w, a, b, c) for w in words)
                assert _s_row(letters, a, b, c) == \
                    tuple(s_value(by_name, w, a, b, c) for w in words)
                assert _d_row(target, a, b, c) == (d_value(by_name, ppp, a, b, c),)
                assert _s_row(target, a, b, c) == (s_value(by_name, ppp, a, b, c),)
            checked += 1
        assert checked == 5 + 75 + 64 + 8

    def test_q_rows_are_the_transpose_of_p(self):
        rng = random.Random(20261019)
        tournaments = [tournament_from_index(n, index) for n in range(1, 6)
                       for index in range(1 << (n * (n - 1) // 2))]
        tournaments += list(iter_circulant_tournaments(9))
        for n in (8, 17, 64, 65, 130):
            rows = [0] * n
            for a in range(n):
                for b in range(a + 1, n):
                    if rng.getrandbits(1):
                        rows[a] |= 1 << b
                    else:
                        rows[b] |= 1 << a
            tournaments.append(Tournament(n, tuple(rows)))
        for t in tournaments:
            assert letter_rows(t)["Q"] == transpose_rows(t.arc, t.n)


# dim V3 of the circulant tournament on Z_n with each outset, as
# (the value of every outset not listed, {value: outsets}); the outsets with
# dim 16 on 7 and 11 vertices are the quadratic residues and non-residues
CIRCULANT_DIM_V3 = {
    3: (9, {}),
    5: (18, {}),
    7: (18, {16: [(1, 2, 4), (3, 5, 6)]}),
    9: (19, {18: [(1, 2, 3, 4), (1, 2, 5, 6), (1, 3, 5, 7), (2, 4, 6, 8), (3, 4, 7, 8),
                  (5, 6, 7, 8)]}),
    11: (19, {16: [(1, 3, 4, 5, 9), (2, 6, 7, 8, 10)],
              18: [(1, 2, 3, 4, 5), (1, 2, 6, 7, 8), (1, 3, 4, 6, 9), (1, 3, 5, 7, 9),
                   (1, 4, 5, 8, 9), (2, 3, 6, 7, 10), (2, 4, 6, 8, 10), (2, 5, 7, 8, 10),
                   (3, 4, 5, 9, 10), (6, 7, 8, 9, 10)]}),
    13: (19, {18: [(1, 2, 3, 4, 5, 6), (1, 2, 3, 7, 8, 9), (1, 2, 5, 6, 9, 10),
                   (1, 3, 5, 7, 9, 11), (1, 3, 6, 8, 9, 11), (1, 4, 7, 8, 10, 11),
                   (2, 3, 5, 6, 9, 12), (2, 4, 5, 7, 10, 12), (2, 4, 6, 8, 10, 12),
                   (3, 4, 7, 8, 11, 12), (4, 5, 6, 10, 11, 12), (7, 8, 9, 10, 11, 12)]}),
}


class TestDimV3:
    @pytest.mark.parametrize("maker,expected", [
        (lambda: complete(4), 5),
        (lambda: union_complete(2, 2), 10),
        (lambda: union_complete(2, 3), 11),
        (lambda: union_complete(3, 3), 12),
        (lambda: cycle(5), 13),
        (lambda: circulant_tournament(3, {1}), 9),
    ])
    def test_table(self, maker, expected):
        assert dim_v3(maker()) == expected

    def test_derived_values(self):
        # computed once by this rank and frozen
        assert dim_v3(paley(9)) == 15
        assert dim_v3(clebsch()) == 14
        assert dim_v3(union_complete(3, 2)) == 11  # the untabulated cell

    def test_bounded_by_16(self):
        for g in (cycle(5), paley(9), clebsch(), complete(6),
                  union_complete(3, 3), petersen()):
            assert dim_v3(g) <= 16

    def test_circulant_tournaments_pinned_per_outset(self):
        # one outset per choice of d or n - d, for d = 1 .. (n - 1)/2
        dims = {}
        for n, (usual, listed) in CIRCULANT_DIM_V3.items():
            for outset in product(*[(d, n - d) for d in range(1, (n + 1) // 2)]):
                t = circulant_tournament(n, outset)
                expected = next((dim for dim, outsets in listed.items()
                                 if tuple(sorted(outset)) in outsets), usual)
                assert dim_v3(t) == expected, (n, outset)
                assert spin_model_verdict(t) == (n == 3), (n, outset)
                dims.setdefault(n, []).append(expected)
        assert sum(map(len, dims.values())) == 126
        assert {n: sorted(set(d)) for n, d in dims.items()} == {
            3: [9], 5: [18], 7: [16, 18], 9: [18, 19], 11: [16, 18, 19], 13: [18, 19]}

    def test_zero_generator(self):
        with pytest.raises(ZeroGenerator):
            dim_v3(Graph(4, (0, 0, 0, 0)))
        with pytest.raises(ZeroGenerator):
            dim_v3(Tournament(1, (0,)))


class TestFullReport:
    def test_pentagon_all_hold(self):
        report = full_report(cycle(5))
        assert report.booleans() == (True, True, True, True)
        assert report.is_spin_model

    def test_petersen(self):
        assert full_report(petersen()).booleans() == (True, True, False, True)

    def test_schlafli(self):
        assert full_report(load_fixture("schlafli")).booleans() == \
            (True, True, True, False)

    def test_trivial_tournament_is_not_nonsymmetric(self):
        report = full_report(Tournament(1, (0,)))
        assert report.booleans() == (True, True, True, True)
        assert not report.is_spin_model  # no arc: generator equals its rotation

    def test_checks_name_the_relations_in_order(self):
        report = full_report(petersen())
        assert [rel for rel, _ in report.checks()] == ["1b", "2b", "3a", "3b"]
        assert tuple(check.holds for _, check in report.checks()) == report.booleans()


class TestInvariants:
    def test_partition_of_one_pointwise(self):
        for obj in (paley(9), complete(5), Graph(3, (0, 0, 0)),
                    circulant_tournament(5, {1, 2})):
            assert partition_identity_holds(obj)

    def test_triangle_free_iff_dppp_zero(self):
        for n in range(3, 6):
            for idx in range(1 << (n * (n - 1) // 2)):
                g = graph_from_index(n, idx)
                letters = letter_rows(g)
                zero = all(d_value(letters, ("P", "P", "P"), a, b, c) == 0
                           for a, b, c in product(range(n), repeat=3))
                has_triangle = any(
                    has_edge(g, a, b) and has_edge(g, b, c) and has_edge(g, a, c)
                    for a in range(n) for b in range(a + 1, n)
                    for c in range(b + 1, n))
                assert zero == (not has_triangle)

    def test_3a_3b_solutions_roundtrip_on_paley9(self):
        # both directions solvable on a graph with all four triple types
        g = paley(9)
        assert check_3a(g).holds and check_3b(g).holds

    def test_smith_graph_dichotomy(self):
        # strongly regular, none-free graphs: 3b iff q-condition nonzero
        for g, expected in ((paley(9), True), (load_fixture("schlafli"), False)):
            assert check_3b(g).holds == expected

    def test_verdict_shortcut_matches_full_report(self):
        for n in range(1, 5):
            for idx in range(1 << (n * (n - 1) // 2)):
                for obj in (graph_from_index(n, idx), tournament_from_index(n, idx)):
                    assert spin_model_verdict(obj) == full_report(obj).is_spin_model
        for n in range(5, 8):
            for g in iter_all_regular_labeled_graphs(n):
                assert spin_model_verdict(g) == full_report(g).is_spin_model
        # each fails a span system only: Petersen 3a, Schlafli 3b
        for g, fails in ((petersen(), 2), (load_fixture("schlafli"), 3)):
            report = full_report(g)
            assert report.booleans() == tuple(i != fails for i in range(4))
            assert not spin_model_verdict(g)

    def test_verdict_shortcut_matches_full_report_on_5_tournaments(self):
        # full_report runs both span systems of all 1 024 (about 13 ms each)
        for idx in range(1 << 10):
            t = tournament_from_index(5, idx)
            assert spin_model_verdict(t) == full_report(t).is_spin_model


def random_equations(rng) -> list[tuple[tuple[int, ...], int]]:
    """A seeded (row, target) stream in which a row always has the same target.

    Rows come from a small pool, so many recur; a target is a hidden
    integer fit of its row, except that one pool row may be given another
    target, which makes some streams inconsistent without an equal row.
    """
    width = rng.randint(1, 6)
    pool = [tuple(rng.randint(0, 3) for _ in range(width)) for _ in range(rng.randint(1, 12))]
    fit = [rng.randint(-3, 3) for _ in range(width)]
    target = {row: sum(c * v for c, v in zip(fit, row)) for row in pool}
    if rng.random() < 0.5:
        target[pool[0]] += rng.randint(1, 3)
    return [(row, target[row]) for row in (rng.choice(pool) for _ in range(rng.randint(2, 40)))]


def plant_conflict(equations, position, rng):
    """The stream with the equation at ``position`` replaced by an earlier row, another target.

    Rows keep one target in ``random_equations``, so this is the stream's
    first equal-row conflict.
    """
    row, target = equations[rng.randrange(position)]
    return equations[:position] + [(row, target + rng.randint(1, 3))] + equations[position + 1:]


def read_up_to(equations, last):
    """Yield equations[0..last], then fail the test if read once more."""
    yield from equations[:last + 1]
    raise AssertionError(f"equations read past position {last}")


class TestConsistent:
    """The equal-row early exit answers as eliminating every distinct equation does."""

    def test_empty_stream(self):
        assert statesum._consistent(iter(())) is reference_consistent([]) is True

    def test_seeded_streams_with_and_without_a_planted_conflict(self):
        rng = random.Random(36)
        consistent = 0
        for _ in range(300):
            equations = random_equations(rng)
            expected = reference_consistent(equations)
            assert statesum._consistent(iter(equations)) == expected
            consistent += expected
            for position in (1, len(equations) // 2, len(equations) - 1):
                planted = plant_conflict(equations, position, rng)
                assert statesum._consistent(iter(planted)) is reference_consistent(planted) \
                    is False
        assert 0 < consistent < 300

    def test_stops_reading_at_the_first_conflict(self):
        rng = random.Random(37)
        for _ in range(100):
            equations = random_equations(rng)
            for position in (1, len(equations) // 2, len(equations) - 1):
                planted = plant_conflict(equations, position, rng)
                assert not statesum._consistent(read_up_to(planted, position))

    def test_every_system_the_verdict_asks(self, monkeypatch):
        # 2b on the regular graphs with n <= 7 and the 1 024 five-vertex
        # tournaments, and 3a and 3b where the verdict gets that far
        asked = {}
        early_exit = statesum._consistent

        def compare(equations):
            equations = list(equations)
            got = early_exit(iter(equations))
            assert got == reference_consistent(equations)
            width = len(equations[0][0]) if equations else 0
            asked[width, got] = asked.get((width, got), 0) + 1
            return got

        monkeypatch.setattr(statesum, "_consistent", compare)
        graphs = [g for n in range(1, 8) for g in iter_all_regular_labeled_graphs(n)]
        tournaments = [tournament_from_index(5, idx) for idx in range(1 << 10)]
        hits = sum(spin_model_verdict(obj) for obj in graphs + tournaments)
        assert (len(graphs), hits) == (1131, 81)
        # (row width, consistent): 2b rows have 3 entries, 3a and 3b rows 27;
        # every regular tournament on 5 vertices fails 2b, and every graph here
        # that passes 2b passes 3a and 3b
        assert asked == {(3, False): 1050 + 24, (3, True): 81, (27, True): 2 * 81}

    def test_all_three_systems_of_sampled_tournaments_and_named_graphs(self):
        # 2b, 3a and 3b asked of every input, whatever its 1b and 2b: the
        # tournaments' 27-word basis systems and inconsistent span systems
        rng = random.Random(38)
        tournaments = [tournament_from_index(5, idx) for idx in rng.sample(range(1 << 10), 160)]
        systems = {}
        for obj in tournaments + [circulant_tournament(5, {1, 2}), petersen(),
                                  load_fixture("schlafli"), clebsch(), paley(9), cycle(6)]:
            rows, directed = statesum._generator(obj)
            letters = statesum._basis_rows(rows, directed)
            triples = _representative_triples(rows)
            for name, equations in (
                    ("2b", statesum._2b_equations(rows)),
                    ("3a", statesum._span_equations(letters, rows, triples, "D")),
                    ("3b", statesum._span_equations(letters, rows, triples, "S"))):
                equations = list(equations)
                got = statesum._consistent(iter(equations))
                assert got == reference_consistent(equations)
                systems[name, got] = systems.get((name, got), 0) + 1
        # 2b holds on the four srgs only; 3a on Clebsch, Paley(9) and Schlafli
        assert systems == {("2b", False): 162, ("2b", True): 4, ("3a", False): 163,
                           ("3a", True): 3, ("3b", False): 146, ("3b", True): 20}


def reference_representative_triples(obj) -> list[tuple[int, int, int]]:
    """The pure-Python n^3 profile scan the numpy kernel replaced.

    Graphs key a triple on pair classes, degrees, pairwise and 3-way
    intersection counts; tournaments on classes, out- and in-degrees, the
    four P/Q pairwise counts of each pair and all eight P/Q 3-way counts.
    The fields are grouped into tuples, which keeps equal keys equal: a
    tournament's four pairwise counts are one tuple per ordered pair, and
    the 2-way ANDs of rows a and b are taken once per (a, b).
    """
    n = obj.n
    letters = letter_rows(obj)
    rows_p = letters["P"]

    def pair_class(u, v):
        if u == v:
            return 0
        return 1 if (rows_p[u] >> v) & 1 else 2

    classes = [[pair_class(u, v) for v in range(n)] for u in range(n)]
    reps = {}
    if isinstance(obj, Graph):
        deg = [row.bit_count() for row in rows_p]
        common = [[(rows_p[u] & rows_p[v]).bit_count() for v in range(n)]
                  for u in range(n)]
        for a, b in product(range(n), repeat=2):
            meet = rows_p[a] & rows_p[b]
            head = (classes[a][b], deg[a], deg[b], common[a][b])
            for c, row_c in enumerate(rows_p):
                key = (head, classes[b][c], classes[a][c], deg[c], common[b][c], common[a][c],
                       (meet & row_c).bit_count())
                reps.setdefault(key, (a, b, c))
    else:
        both = (rows_p, letters["Q"])
        degs = [(p.bit_count(), q.bit_count()) for p, q in zip(*both)]
        # the (P, P), (P, Q), (Q, P) and (Q, Q) counts |g_u & h_v| of each (u, v)
        counts = [[tuple((g[u] & h[v]).bit_count() for g in both for h in both)
                   for v in range(n)] for u in range(n)]
        for a, b in product(range(n), repeat=2):
            pp, pq, qp, qq = (g[a] & h[b] for g in both for h in both)
            head = (classes[a][b], degs[a], degs[b], counts[a][b])
            for c, (p, q) in enumerate(zip(*both)):
                pop3 = ((pp & p).bit_count(), (pp & q).bit_count(), (pq & p).bit_count(),
                        (pq & q).bit_count(), (qp & p).bit_count(), (qp & q).bit_count(),
                        (qq & p).bit_count(), (qq & q).bit_count())
                key = (head, classes[b][c], classes[a][c], degs[c],
                       counts[a][c], counts[b][c], pop3)
                reps.setdefault(key, (a, b, c))
    return list(reps.values())


_REFERENCE_TRIPLES: dict = {}


def cached_reference_triples(subject) -> list[tuple[int, int, int]]:
    """``reference_representative_triples``, computed once per subject per session."""
    key = (subject.n, type(subject), p_rows(subject))
    if key not in _REFERENCE_TRIPLES:
        _REFERENCE_TRIPLES[key] = reference_representative_triples(subject)
    return _REFERENCE_TRIPLES[key]


def relabel(obj, rng):
    perm = list(range(obj.n))
    rng.shuffle(perm)
    return permuted(obj, perm)


def permuted(obj, perm):
    """The Graph or Tournament with vertex u renamed perm[u]."""
    rows = [0] * obj.n
    for u, row in enumerate(obj.adj if isinstance(obj, Graph) else obj.arc):
        for v in range(obj.n):
            if (row >> v) & 1:
                rows[perm[u]] |= 1 << perm[v]
    return type(obj)(obj.n, tuple(rows))


def triple_kernel_corpus():
    rng = random.Random(31)
    for _ in range(320):
        n, density = rng.randint(1, 14), rng.random()
        yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < density])
    for n in range(1, 5):
        for index in range(1 << (n * (n - 1) // 2)):
            yield tournament_from_index(n, index)
    for _ in range(40):
        yield tournament_from_index(5, rng.getrandbits(10))
    for n in (7, 9):
        yield from iter_circulant_tournaments(n)
    yield load_fixture("schlafli")
    yield load_fixture("higman_sims")


# presence rules that force one path of the triple kernel; the forced
# histogram stays at most 2^18 bins (2 MB), which covers 353 of the 461 inputs
PRESENCE_PATHS = {
    "histogram": lambda bins, size: bins <= 1 << 18,
    "set": lambda bins, size: False,
}


def record_presence(monkeypatch, rule) -> list[tuple[int, bool]]:
    """Make the triple kernel decide by ``rule``; returns its (bins, decision) list."""
    taken = []

    def decide(bins, size):
        taken.append((bins, rule(bins, size)))
        return taken[-1][1]

    monkeypatch.setattr("spinweb.statesum._histogram_presence", decide)
    return taken


def slab_boundary_corpus():
    """Graphs and tournaments with n^2 on both sides of the kernel's 4096-cell slab.

    n = 16 is one slab of all 16 first vertices, n = 17 slabs of 14 and 3;
    n = 63 and 64 take one first vertex per slab (n^2 = 3969 and 4096),
    n = 65 bands of 63 and 2 b rows within one first vertex.  The graphs
    are structured (few pair ids, so a forced histogram can take them) and
    random; the tournaments circulant for odd n and random for even n.
    """
    rng = random.Random(35)
    structured = {16: clebsch(), 17: paley(17), 63: cycle(63), 64: union_complete(8, 8),
                  65: cycle(65)}
    for n, g in structured.items():
        yield g
        yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < 0.5])
        yield (circulant_tournament(n, range(1, n // 2 + 1)) if n % 2 else Tournament(
            n, reference_tournament_rows(n, rng.getrandbits(n * (n - 1) // 2))))


def two_phase_corpus():
    """The kernel corpus and sampled regular labeled graphs on 8-10 vertices."""
    yield from triple_kernel_corpus()
    for n, k in ((8, 3), (9, 4), (10, 3), (10, 4)):
        yield from islice(iter_regular_labeled_graphs(n, k), 0, 2000, 80)


def record_counts(monkeypatch) -> list[int]:
    """Record each profile count the triple kernel's first phase returns."""
    counts = []
    count = statesum._closed_profile_count

    def spy(*args):
        counts.append(count(*args))
        return counts[-1]

    monkeypatch.setattr("spinweb.statesum._closed_profile_count", spy)
    return counts


def reference_pair_table(rows) -> tuple[list[int], list[tuple[int, int, tuple[int, int]]]]:
    """The Python pair-id generator the numpy pair table replaced.

    A pair's profile is its class (0 for u = v, 1 for v in P_u, 2
    otherwise), both out-degrees and |P_u & P_v|; ids number the profiles
    in order of first appearance in (u, v) order.  Returns the ids in
    (u, v) order and each id's (class, |P_u & P_v|, first pair).
    """
    n = len(rows)
    deg = [row.bit_count() for row in rows]
    ids: dict = {}
    pid = [ids.setdefault((0 if u == v else 1 if (ru >> v) & 1 else 2,
                           deg[u], deg[v], (ru & rv).bit_count()), len(ids))
           for u, ru in enumerate(rows) for v, rv in enumerate(rows)]
    first: dict = {}
    for cell, i in enumerate(pid):
        first.setdefault(i, divmod(cell, n))
    return pid, [(pair_class, common, first[i])
                 for i, (pair_class, _, _, common) in enumerate(ids)]


def word_and_band_edge_corpus():
    """Graphs and tournaments on n = 62 .. 65, 124 and 125 vertices.

    62 is the last n with one packed word per row, 124 the last with two;
    a band of the pair table holds 4096 // n rows u: one band of 62, 63 and
    64 rows, bands of 63 and 2 rows for 65, of 33 for 124 and of 32 for 125.
    """
    rng = random.Random(40)
    for n in (62, 63, 64, 65, 124, 125):
        yield cycle(n)
        yield Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                   if rng.random() < 0.5])
        yield Tournament.from_arcs(n, [(u, v) if rng.random() < 0.5 else (v, u)
                                       for u in range(n) for v in range(u + 1, n)])
        if n % 2:
            yield circulant_tournament(n, range(1, n // 2 + 1))


class TestPairTable:
    """The numpy pair table gives the reference generator's ids and profiles."""

    @pytest.mark.parametrize("slab", [4096, 36])
    def test_matches_reference_on_the_kernel_corpora(self, monkeypatch, slab):
        # 36-cell bands cut every n >= 7 into several bands of rows
        monkeypatch.setattr("spinweb.statesum._SLAB", slab)
        rng = random.Random(32)
        checked = 0
        for obj in triple_kernel_corpus():
            for subject in (obj, relabel(obj, rng)):
                self.check(subject)
                checked += 1
        for subject in slab_boundary_corpus():
            self.check(subject)
            checked += 1
        assert checked == 2 * (320 + 75 + 40 + 24 + 2) + 15

    def test_matches_reference_at_word_and_band_edges(self):
        assert statesum._SLAB == 4096
        subjects = list(word_and_band_edge_corpus())
        for subject in subjects:
            self.check(subject)
        assert len(subjects) == 21

    @staticmethod
    def check(subject):
        rows = p_rows(subject)
        pid, profiles = _pair_table(rows)
        assert pid.dtype == np.int32 and pid.shape == (subject.n ** 2,)
        assert (pid.tolist(), profiles) == reference_pair_table(rows)


class TestRepresentativeTriples:
    """The numpy slab kernel returns the reference's triples in its order."""

    def test_matches_reference_and_relabelings(self):
        rng = random.Random(32)
        checked = 0
        for obj in triple_kernel_corpus():
            for subject in (obj, relabel(obj, rng)):
                got = _representative_triples(p_rows(subject))
                assert got == cached_reference_triples(subject)
                checked += 1
        assert checked == 2 * (320 + 75 + 40 + 24 + 2)

    @pytest.mark.parametrize("path", sorted(PRESENCE_PATHS))
    def test_forced_presence_path_matches_reference(self, monkeypatch, path):
        taken = record_presence(monkeypatch, PRESENCE_PATHS[path])
        rng = random.Random(32)
        for obj in triple_kernel_corpus():
            for subject in (obj, relabel(obj, rng)):
                got = _representative_triples(p_rows(subject))
                assert got == cached_reference_triples(subject)
        assert len(taken) == 2 * (320 + 75 + 40 + 24 + 2)
        assert sum(hist for _, hist in taken) == (2 * 353 if path == "histogram" else 0)

    @pytest.mark.parametrize("path", sorted(PRESENCE_PATHS))
    def test_slab_layout_boundaries(self, monkeypatch, path):
        assert statesum._SLAB == 4096
        taken = record_presence(monkeypatch, PRESENCE_PATHS[path])
        for subject in slab_boundary_corpus():
            got = _representative_triples(p_rows(subject))
            assert got == cached_reference_triples(subject)
        assert len(taken) == 15
        # the five structured graphs and the circulant tournament on 17 vertices
        # (17 pair ids) fit a forced histogram
        assert sum(hist for _, hist in taken) == (6 if path == "histogram" else 0)

    def test_presence_rule_follows_key_space(self, monkeypatch):
        taken = record_presence(monkeypatch, statesum._histogram_presence)
        # 3 pair ids: 3^3 * 101 bins against slabs of 40 x 100 cells
        _representative_triples(p_rows(load_fixture("higman_sims")))
        # the stream workload's irregular 6-vertex graph: 22 pair ids, 36 cells
        irregular = Graph.from_edges(6, [(0, 1), (0, 2), (0, 5), (1, 5), (3, 4), (3, 5),
                                         (4, 5)])
        _representative_triples(p_rows(irregular))
        assert taken == [(2727, True), (22 ** 3 * 7, False)]

    def test_both_presence_paths_from_edgeless_to_complete(self, monkeypatch):
        # random graphs of every density from edgeless to complete, and the
        # circulant tournaments on 9 vertices, through each forced presence path
        for path, rule in PRESENCE_PATHS.items():
            taken = record_presence(monkeypatch, rule)
            rng = random.Random(33)
            for n in (1, 2, 5, 9, 13):
                for density in (0.0, 0.3, 0.7, 1.0):
                    g = Graph.from_edges(n, [(u, v) for u in range(n)
                                             for v in range(u + 1, n) if rng.random() < density])
                    assert _representative_triples(p_rows(g)) == \
                        reference_representative_triples(g)
            for t in iter_circulant_tournaments(9):
                assert _representative_triples(p_rows(t)) == \
                    reference_representative_triples(t)
            assert len(taken) == 5 * 4 + 16
            assert any(hist for _, hist in taken) == (path == "histogram")

    @pytest.mark.parametrize("path", sorted(PRESENCE_PATHS))
    def test_two_phase_walk_matches_reference(self, monkeypatch, path):
        # 36-cell slabs split the first vertices of every n >= 7 into bands, so
        # each such input whose vertex 0 row holds every pair id counts its
        # profiles first and stops its walk at the last one
        monkeypatch.setattr("spinweb.statesum._SLAB", 36)
        taken = record_presence(monkeypatch, PRESENCE_PATHS[path])
        counts = record_counts(monkeypatch)
        rng = random.Random(32)         # the relabelings of the corpus tests
        calls = 0
        for obj in two_phase_corpus():
            for subject in (obj, relabel(obj, rng)):
                counted = len(counts)
                got = _representative_triples(p_rows(subject))
                assert got == cached_reference_triples(subject)
                if len(counts) > counted:
                    assert counts[-1] == len(got)
                calls += 1
        assert calls == len(taken) == 2 * (320 + 75 + 40 + 24 + 2 + 100)
        assert len(counts) == 112
        assert sum(hist for _, hist in taken) == (906 if path == "histogram" else 0)

    def test_phase_one_count_is_the_brute_force_profile_count(self, monkeypatch):
        # an overcount would only make the walk run to its end, with the same
        # triples, so the count is compared with all n^3 cells' profiles
        assert statesum._SLAB == 4096
        counts = record_counts(monkeypatch)
        residues = {x * x % 67 for x in range(1, 67)}
        for subject in (cycle(65), paley(73), circulant_tournament(67, residues)):
            rows, n = p_rows(subject), subject.n
            matrix = np.array([[(row >> v) & 1 for v in range(n)] for row in rows],
                              dtype=np.int64)
            meets = np.einsum("ai,bi,ci->abc", matrix, matrix, matrix)
            pid = np.array(reference_pair_table(rows)[0], dtype=np.int64).reshape(n, n)
            ids = int(pid.max()) + 1
            keys = ((pid[:, :, None] * ids + pid[:, None, :]) * ids + pid[None, :, :]) \
                * (n + 1) + meets
            expected = len(np.unique(keys))
            called = len(counts)
            got = _representative_triples(rows)
            assert len(counts) == called + 1
            assert counts[-1] == len(got) == expected

    def test_phase_one_gate(self, monkeypatch):
        # at most 64 vertices a slab holds whole first vertices, so the walk
        # runs alone: the census and stream inputs never count first
        assert statesum._SLAB == 4096
        counts = record_counts(monkeypatch)
        for g in (cycle(5), petersen(), clebsch(), paley(17), load_fixture("schlafli"),
                  cycle(64), union_complete(8, 8)):
            _representative_triples(p_rows(g))
        assert counts == []

    def test_walk_lays_out_the_c_rows_once(self, monkeypatch):
        # Schlafli (n = 27, one word per row) walks 6 groups of at most 5 whole
        # first vertices, each with rows = tall = n and lo = 0: the tile of c
        # rows (5 * 27 copies of P_c) is laid out once, the ac rows per group
        assert statesum._SLAB == 4096
        schlafli = load_fixture("schlafli")
        rows = p_rows(schlafli)
        pairs = _pair_table(rows)
        heights = []
        fill_rows = statesum.fill_rows

        def spy(tile, source, n, height):
            heights.append(height)
            fill_rows(tile, source, n, height)

        monkeypatch.setattr("spinweb.statesum.fill_rows", spy)
        assert _representative_triples(rows, pairs) == cached_reference_triples(schlafli)
        assert heights.count(5 * 27) == 1
        assert heights.count(27) == 6

    def test_slabs_smaller_than_a_row(self, monkeypatch):
        # n > _SLAB: one b row per slab
        monkeypatch.setattr("spinweb.statesum._SLAB", 4)
        for path, rule in PRESENCE_PATHS.items():
            taken = record_presence(monkeypatch, rule)
            for g in (petersen(), paley(13), union_complete(3, 2)):
                assert _representative_triples(p_rows(g)) == \
                    reference_representative_triples(g)
            assert [hist for _, hist in taken] == [path == "histogram"] * 3


NAMED_GRAPHS = {
    "C5": lambda: cycle(5), "Petersen": petersen, "Clebsch": clebsch,
    "Paley9": lambda: paley(9), "Paley13": lambda: paley(13),
    "3K3": lambda: union_complete(3, 3), "Schlafli": lambda: load_fixture("schlafli"),
    "Higman-Sims": lambda: load_fixture("higman_sims"),
}


class TestComplementInvariance:
    """The oracle's verdict and dim V3 are the same on g and its complement.

    Checked on the oracle alone: no classifier or regularity function is
    called, so the route is tested against itself only.
    """

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_verdict_and_dim_v3(self, name):
        g = NAMED_GRAPHS[name]()
        h = complement(g)
        assert full_report(h).is_spin_model == full_report(g).is_spin_model
        assert dim_v3(h) == dim_v3(g)

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(regular_graphs())
    def test_random_regular_graph_and_complement(self, g):
        h = complement(g)
        assert full_report(h).is_spin_model == full_report(g).is_spin_model
        if any(g.adj) and any(h.adj):       # an edgeless side raises ZeroGenerator
            assert dim_v3(h) == dim_v3(g)


def oracle_invariants(g):
    """full_report's four truth values, its 1b and 2b coefficients, and dim V3."""
    report = full_report(g)
    try:
        dim = dim_v3(g)
    except ZeroGenerator:
        dim = None
    return report.booleans(), report.r1b.coefficients, report.r2b.coefficients, dim


@st.composite
def oracle_relabelings(draw):
    names = sorted(set(NAMED_GRAPHS) - {"Higman-Sims"})
    g = draw(st.one_of(regular_graphs(), st.sampled_from(names).map(
        lambda name: NAMED_GRAPHS[name]())))
    return g, permuted(g, draw(st.permutations(range(g.n))))


class TestRelabelingInvariance:
    """The oracle's answers do not depend on the vertex labeling.

    Checked on the oracle alone, against itself: no classifier or
    regularity function is called.
    """

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(oracle_relabelings())
    def test_regular_and_named_graphs(self, pair):
        g, h = pair
        assert oracle_invariants(h) == oracle_invariants(g)

    def test_higman_sims(self):
        g = load_fixture("higman_sims")
        assert oracle_invariants(relabel(g, random.Random(36))) == oracle_invariants(g)
