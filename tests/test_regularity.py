import random
import sys
from itertools import combinations

import numpy as np
import pytest

from spinweb.census import graph_from_index, iter_all_regular_labeled_graphs
from spinweb.classifier import (AppliedTo, Family, FamilyKind, VerdictCase,
                                _family_for_union, classify_symmetric)
from spinweb.graphs import (Graph, clebsch, complement, complete, cycle, paley,
                            petersen, union_complete)
from spinweb.regularity import (ThreePointParams, VacuousParameter,
                                complement_srg_params, complement_three_point_params,
                                q_condition, regularity, srg_params, three_point_params)
from tests.conftest import connected_components, edges, freeness, load_fixture

# the package attribute spinweb.regularity is a function: patch the module
regularity_module = sys.modules["spinweb.regularity"]


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def reference_counts(g):
    """The pure-Python scan over the C(n, 3) triples that the kernel replaced:
    the common-neighbor count of the triples with e edges, by e, or None."""
    counts = [None, None, None, None]  # index = edge count
    for a, b, c in combinations(range(g.n), 3):
        edges = (((g.adj[a] >> b) & 1) + ((g.adj[b] >> c) & 1) + ((g.adj[a] >> c) & 1))
        common = (g.adj[a] & g.adj[b] & g.adj[c]).bit_count()
        if counts[edges] is None:
            counts[edges] = common
        elif counts[edges] != common:
            return None
    return counts


def counts_by_type(g):
    """The program's triple scan alone, with k the largest degree."""
    return regularity_module._common_counts_by_type(g, max(g.degrees()))


def random_graph(n, rng):
    density = rng.random()
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2)
                                if rng.random() < density])


def cliques(n, *blocks):
    """n vertices with a clique on each block and no other edge."""
    return Graph.from_edges(n, [pair for block in blocks for pair in combinations(block, 2)])


def reference_three_point_params(g):
    srg = srg_params(g)
    counts = None if srg is None else reference_counts(g)
    if counts is None:
        return None
    return ThreePointParams(
        srg=srg,
        q3=counts[3] or 0, q2=counts[2] or 0, q1=counts[1] or 0, q0=counts[0] or 0,
        q3_vacuous=counts[3] is None, q2_vacuous=counts[2] is None,
        q1_vacuous=counts[1] is None, q0_vacuous=counts[0] is None,
    )


def as_union_of_equal_completes(g):
    """(m, size) if g is a disjoint union of m equal complete graphs, read off
    its connected components."""
    comps = connected_components(g)
    size = len(comps[0])
    for comp in comps:
        if len(comp) != size:
            return None
        for v in comp:
            if g.adj[v].bit_count() != size - 1:
                return None
    return (len(comps), size)


def reference_union_verdict(g):
    """(case, applied_to, family, reason) of the pentagon and union cases,
    found on g and then on its complement as graphs; None for neither."""
    sides = ((g, AppliedTo.GRAPH), (complement(g), AppliedTo.COMPLEMENT))
    for side, tag in sides:
        if side.n == 5 and all(row.bit_count() == 2 for row in side.adj):
            return (VerdictCase.PENTAGON, tag, Family(FamilyKind.KAUFFMAN, (13,)),
                    f"{tag.value} is the pentagon")
    for side, tag in sides:
        union = as_union_of_equal_completes(side)
        if union is not None:
            m, size = union
            return (VerdictCase.UNION_OF_COMPLETES, tag, _family_for_union(m, size),
                    f"{tag.value} is {m} disjoint K_{size}")
    return None


def relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in edges(g)])


def small_srg_corpus():
    """Every strongly regular labeled graph on at most 8 vertices (n = 1, 2
    give all-vacuous results), then the named ones up to Schlafli."""
    graphs = [g for n in range(1, 9) for g in iter_all_regular_labeled_graphs(n)
              if srg_params(g) is not None]
    return graphs + [paley(9), paley(13), paley(17), clebsch(), petersen(), cycle(5),
                     load_fixture("schlafli")]


class TestRegularity:
    def test_pentagon(self):
        assert regularity(cycle(5)) == 2

    def test_single_vertex(self):
        assert regularity(complete(1)) == 0

    def test_path_is_irregular(self):
        assert regularity(path(3)) is None


class TestSrgParams:
    def test_pentagon(self):
        p = srg_params(cycle(5))
        assert p.as_tuple() == (5, 2, 0, 1)
        assert not p.lam_vacuous and not p.mu_vacuous

    def test_paley9(self):
        assert srg_params(paley(9)).as_tuple() == (9, 4, 1, 2)

    def test_c6_not_srg(self):
        assert srg_params(cycle(6)) is None

    def test_3k3(self):
        p = srg_params(union_complete(3, 3))
        assert p.as_tuple() == (9, 2, 1, 0)
        assert not p.mu_vacuous

    def test_complete_graph_mu_vacuous(self):
        p = srg_params(complete(5))
        assert p.as_tuple() == (5, 4, 3, 0)
        assert p.mu_vacuous and not p.lam_vacuous

    def test_path_not_srg(self):
        assert srg_params(path(4)) is None

    def test_complement_identity_on_all_srg_graphs_up_to_7(self):
        # srg(n,k,l,m) complements to srg(n, n-k-1, n-2k+m-2, n-2k+l)
        checked = 0
        for n in range(2, 8):
            for g in iter_all_regular_labeled_graphs(n):
                p = srg_params(g)
                if p is None or p.lam_vacuous or p.mu_vacuous:
                    continue
                pc = srg_params(complement(g))
                assert pc is not None
                n_, k, lam, mu = p.as_tuple()
                assert pc.as_tuple() == (n_, n_ - k - 1, n_ - 2 * k + mu - 2,
                                         n_ - 2 * k + lam)
                checked += 1
        assert checked > 0


class TestThreePointParams:
    def test_clebsch(self):
        p = three_point_params(clebsch())
        assert p.q_vector() == (0, 0, 0, 1)
        assert p.q3_vacuous  # triangle-free
        assert not (p.q2_vacuous or p.q1_vacuous or p.q0_vacuous)

    def test_paley9(self):
        p = three_point_params(paley(9))
        assert p.q_vector() == (0, 0, 1, 0)
        assert not p.any_vacuous()

    def test_2k5(self):
        # mK_{k+1} with k = 4: q3 = k - 2, everything else 0
        p = three_point_params(union_complete(2, 5))
        assert (p.q3, p.q2, p.q1, p.q0) == (2, 0, 0, 0)
        assert not p.q3_vacuous and not p.q1_vacuous
        assert p.q2_vacuous and p.q0_vacuous  # no lambdas, no anti-triangles

    def test_3k5_anti_triangle_realized(self):
        p = three_point_params(union_complete(3, 5))
        assert (p.q3, p.q0) == (2, 0)
        assert not p.q0_vacuous

    def test_petersen_not_three_point_regular(self):
        assert three_point_params(petersen()) is None

    def test_embedded_srg(self):
        p = three_point_params(cycle(5))
        assert p.srg.as_tuple() == (5, 2, 0, 1)

    def test_implies_srg_by_construction(self):
        for n in range(2, 7):
            for g in iter_all_regular_labeled_graphs(n):
                p = three_point_params(g)
                if p is not None:
                    assert srg_params(g) is not None

    def test_complement_derived_by_inclusion_exclusion(self):
        # srg parameters, and 3-point values and vacuity flags, derived for
        # the complement equal a scan of the complement, on all 47 067
        # regular labeled graphs with n <= 8 and on the named graphs
        graphs = [g for n in range(1, 9) for g in iter_all_regular_labeled_graphs(n)]
        assert len(graphs) == 47067
        graphs += [paley(9), paley(13), paley(17), clebsch(), petersen(),
                   load_fixture("schlafli"), load_fixture("higman_sims")]
        srgs = three_point = 0
        for g in graphs:
            p = srg_params(g)
            if p is None:
                continue
            assert complement_srg_params(p) == srg_params(complement(g))
            srgs += 1
            q = three_point_params(g)
            if q is not None:
                assert complement_three_point_params(q) == three_point_params(complement(g))
                three_point += 1
        # the 363 srgs with n <= 8 are all 3-point regular; of the named
        # graphs Paley(13), Paley(17) and Petersen are not
        assert (srgs, three_point) == (363 + 7, 363 + 4)


class TestThreePointKernel:
    """The numpy kernel returns exactly what the pure-Python scan returned."""

    def test_matches_reference_and_relabelings(self):
        graphs = small_srg_corpus() + [load_fixture("higman_sims"),
                                       load_fixture("mclaughlin")]
        rng = random.Random(41)
        three_point = 0
        for g in graphs:
            for subject in (g, relabel(g, rng)):
                expected = reference_three_point_params(subject)
                assert three_point_params(subject) == expected
                assert three_point_params(subject, srg_params(subject)) == expected
                three_point += expected is not None
        assert len(graphs) == 372 and three_point == 2 * 369

    def test_one_and_two_vertices_are_all_vacuous(self):
        for g in (complete(1), complete(2), union_complete(2, 1)):
            p = three_point_params(g)
            assert p.q_vector() == (0, 0, 0, 0)
            assert p.q3_vacuous and p.q2_vacuous and p.q1_vacuous and p.q0_vacuous

    @pytest.mark.parametrize("bound", [1, 7, 100, 1 << 12])
    def test_slab_sizes_match_reference(self, monkeypatch, bound):
        # _LOOP_MAX_N is the largest order the plain loop scans as one slab
        # of triples; larger graphs are cut into one rectangle per middle
        # vertex.  At 1 every graph of two or more vertices takes the
        # rectangles, at 7 the corpus splits between the two paths, and at
        # 100 and 4096 all of it takes the loop
        monkeypatch.setattr(regularity_module, "_LOOP_MAX_N", bound)
        rng = random.Random(bound)
        for g in small_srg_corpus():
            subject = relabel(g, rng)
            assert three_point_params(subject) == reference_three_point_params(subject)
        # the scan alone, on any graph, with k its largest degree
        graphs = [graph_from_index(n, index) for n in range(1, 6)
                  for index in range(1 << (n * (n - 1) // 2))]
        graphs += [random_graph(rng.randint(6, 14), rng) for _ in range(300)]
        for g in graphs:
            assert counts_by_type(g) == reference_counts(g)

    def test_order_boundary(self, monkeypatch):
        # n = _LOOP_MAX_N is the last order the loop takes, and the next one
        # the first that the rectangles take
        bound = regularity_module._LOOP_MAX_N
        packed = []
        pack_rows = regularity_module.pack_rows
        monkeypatch.setattr(regularity_module, "pack_rows",
                            lambda rows, n: packed.append(n) or pack_rows(rows, n))
        rng = random.Random(bound)
        for n in (bound, bound + 1):
            graphs = [random_graph(n, rng) for _ in range(20)]
            graphs += [union_complete(m, n // m) for m in range(2, n) if n % m == 0]
            graphs += [complement(g) for g in graphs]
            for g in graphs:
                subject = relabel(g, rng)
                assert counts_by_type(subject) == reference_counts(subject)
            assert packed == ([n] * len(graphs) if n > bound else [])
            packed.clear()

    @pytest.mark.parametrize("n", [7, 30, 63, 70])
    def test_first_and_last_rectangle(self, monkeypatch, n):
        # a triple with a < b < c is a cell of the rectangle of b only; each
        # graph below changes its result if the first (b = 1) or the last
        # (b = n - 2) rectangle is left out
        monkeypatch.setattr(regularity_module, "_LOOP_MAX_N", 0)
        lone_first = cliques(n, (0, 1, n - 1))            # T = 0 on the one triangle
        lone_last = cliques(n, (0, n - 2, n - 1))
        k4_then_k3 = cliques(n, (0, 1, 2, 3), (n - 3, n - 2, n - 1))   # T = 1 and 0
        k3_then_k4 = cliques(n, (0, 1, n - 1), (2, 3, 4, 5))
        for g in (lone_first, lone_last):
            assert counts_by_type(g) == reference_counts(g) == [0, 0, None, 0]
        for g in (k4_then_k3, k3_then_k4):
            assert counts_by_type(g) is None and reference_counts(g) is None

    def test_rows_longer_than_one_word(self):
        # 63..70 vertices: two packed words of 62 bits a row, on both paths
        rng = random.Random(62)
        graphs = [random_graph(rng.randint(63, 70), rng) for _ in range(20)]
        graphs += [union_complete(9, 7), union_complete(5, 13), union_complete(2, 35)]
        graphs += [relabel(complement(g), rng) for g in graphs[-3:]]
        for g in graphs:
            expected = reference_counts(g)
            assert counts_by_type(g) == expected
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(regularity_module, "_LOOP_MAX_N", 1 << 30)
                assert counts_by_type(g) == expected
        assert sum(reference_counts(g) is not None for g in graphs) >= 6

    def test_stops_after_the_first_rectangle_showing_two_values(self, monkeypatch):
        monkeypatch.setattr(regularity_module, "_LOOP_MAX_N", 0)
        rectangles = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount",
                            lambda *args, **kwargs: rectangles.append(1) or bincount(*args, **kwargs))
        # K4 + K3 + K4: a triangle of a K4 has one common neighbor, the K3
        # has none; the K3 is the cell (4, 6) of the rectangle of b = 5
        g = cliques(11, (0, 1, 2, 3), (4, 5, 6), (7, 8, 9, 10))
        assert counts_by_type(g) is None
        assert len(rectangles) == 5 < 11 - 2
        # a 3-point regular graph is scanned to its last rectangle
        for g in (clebsch(), paley(9)):
            rectangles.clear()
            assert three_point_params(g) is not None
            assert len(rectangles) == g.n - 2


class TestFreeness:
    def test_petersen_triangle_free(self):
        f = freeness(petersen())
        assert f.triangle_free and not f.lambda_free

    def test_k4(self):
        f = freeness(complete(4))
        assert f.lambda_free and not f.triangle_free
        assert f.anti_lambda_free and f.anti_triangle_free

    def test_pentagon(self):
        f = freeness(cycle(5))
        assert f.triangle_free and not f.lambda_free
        assert f.anti_triangle_free and not f.anti_lambda_free

    def test_complement_duality_exhaustive_n6(self):
        from spinweb.census import graph_from_index
        for idx in range(1 << 15):
            g = graph_from_index(6, idx)
            f, fc = freeness(g), freeness(complement(g))
            assert f.triangle_free == fc.anti_triangle_free
            assert f.lambda_free == fc.anti_lambda_free
            assert f.anti_lambda_free == fc.lambda_free
            assert f.anti_triangle_free == fc.triangle_free


class TestQCondition:
    def test_paley9(self):
        assert q_condition(three_point_params(paley(9))) == 3

    def test_schlafli_is_smith(self):
        p = three_point_params(load_fixture("schlafli"))
        assert q_condition(p) == 0

    def test_vacuous_parameters_refused(self):
        with pytest.raises(VacuousParameter):
            q_condition(three_point_params(clebsch()))

    def test_vacuous_as_zero_arithmetic(self):
        # the usual table convention writes a vacuous q3 as 0:
        # Clebsch -> -1, Higman-Sims -> -2
        p = three_point_params(clebsch())
        assert p.q3 - 3 * p.q2 + 3 * p.q1 - p.q0 == -1
        p = three_point_params(load_fixture("higman_sims"))
        assert p.q3 - 3 * p.q2 + 3 * p.q1 - p.q0 == -2


class TestStructuralLemmas:
    def test_k2_srg_up_to_12_by_cycle_partition(self):
        # a 2-regular graph is a disjoint union of cycles; strong regularity
        # then allows only the pentagon, the square, or unions of triangles
        def partitions(n, smallest=3):
            if n == 0:
                yield ()
                return
            for first in range(smallest, n + 1):
                for rest in partitions(n - first, first):
                    yield (first,) + rest

        for n in range(3, 13):
            for part in partitions(n):
                offset, edges = 0, []
                for length in part:
                    edges += [(offset + i, offset + (i + 1) % length)
                              for i in range(length)]
                    offset += length
                g = Graph.from_edges(n, edges)
                expected = part in ((5,), (4,)) or set(part) == {3}
                assert (srg_params(g) is not None) == expected, part

    def test_lambda_free_srg_up_to_8_is_union_of_completes(self):
        # the classifier decides the pentagon and the unions from the srg
        # parameters alone; a component reading of g and of its complement
        # must give the same case, side, family and reason
        def agrees_with_components(g):
            v = classify_symmetric(g)
            expected = reference_union_verdict(g)
            if expected is None:
                assert v.case not in (VerdictCase.PENTAGON, VerdictCase.UNION_OF_COMPLETES)
                return False
            assert (v.case, v.applied_to, v.family, v.reason) == expected
            return v.case is VerdictCase.UNION_OF_COMPLETES

        hits = srgs = unions = 0
        for n in range(1, 9):
            for g in iter_all_regular_labeled_graphs(n):
                p = srg_params(g)
                if p is None:
                    continue
                srgs += 1
                unions += agrees_with_components(g)
                if not freeness(g).lambda_free:
                    continue
                comps = connected_components(g)
                size = p.k + 1
                assert all(len(c) == size for c in comps)
                assert all(g.adj[v].bit_count() == size - 1 for c in comps for v in c)
                hits += 1
        assert hits > 0 and srgs == 363 and 0 < unions < srgs
        for m in range(1, 7):
            for size in range(1, 7):
                g = union_complete(m, size)
                assert agrees_with_components(g) and agrees_with_components(complement(g))
