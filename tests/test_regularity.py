import pytest

from spinweb.census import iter_all_regular_labeled_graphs
from spinweb.graphs import (Graph, clebsch, complement, complete,
                            connected_components, cycle, paley, petersen,
                            union_complete)
from spinweb.regularity import (VacuousParameter, complement_three_point_params,
                                freeness, q_condition, regularity, srg_params,
                                three_point_params)
from tests.conftest import load_fixture


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


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
        # values, vacuity flags and srg parameters equal a scan of the complement
        graphs = [g for n in range(1, 8) for g in iter_all_regular_labeled_graphs(n)]
        graphs += [paley(9), paley(13), paley(17), clebsch(), petersen(),
                   load_fixture("schlafli"), load_fixture("higman_sims")]
        checked = 0
        for g in graphs:
            p = three_point_params(g)
            if p is not None:
                assert complement_three_point_params(p) == three_point_params(complement(g))
                checked += 1
        assert checked == 85


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
        hits = 0
        for n in range(1, 9):
            for g in iter_all_regular_labeled_graphs(n):
                p = srg_params(g)
                if p is None or not freeness(g).lambda_free:
                    continue
                comps = connected_components(g)
                size = p.k + 1
                assert all(len(c) == size for c in comps)
                assert all(g.degree(v) == size - 1 for c in comps for v in c)
                hits += 1
        assert hits > 0
