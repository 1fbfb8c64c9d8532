import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb.census import graph_from_index, iter_circulant_tournaments, tournament_from_index
from spinweb.classifier import (AppliedTo, FamilyKind, Verdict, VerdictCase,
                                classify_symmetric, classify_tournament,
                                is_regular_tournament)
from spinweb.graphs import (Graph, circulant_tournament, clebsch, complement,
                            complete, cycle, paley, petersen, union_complete)
from spinweb.statesum import spin_model_verdict
from spinweb.regularity import three_point_params
from tests.conftest import (edges, freeness, in_degree, load_fixture, out_degree,
                            reference_graph_rows, regular_graphs)

# fixed up front, so that every run draws the same examples and writes nothing
RELABELING = settings(max_examples=150, derandomize=True, database=None, deadline=None)
NAMED = (cycle(5), paley(9), paley(13), petersen(), clebsch(), complete(4),
         union_complete(3, 3), complement(union_complete(3, 3)), union_complete(4, 2),
         load_fixture("schlafli"))


@st.composite
def relabelings(draw):
    g = draw(st.one_of(st.sampled_from(NAMED), regular_graphs()))
    perm = draw(st.permutations(range(g.n)))
    return g, Graph.from_edges(g.n, [(perm[a], perm[b]) for a, b in edges(g)])


class TestClassifySymmetric:
    def test_pentagon(self):
        v = classify_symmetric(cycle(5))
        assert v.is_spin_model and v.case is VerdictCase.PENTAGON
        assert v.family.kind is FamilyKind.KAUFFMAN and v.family.dims == (13,)

    def test_k5(self):
        v = classify_symmetric(complete(5))
        assert v.case is VerdictCase.UNION_OF_COMPLETES
        assert v.family.kind is FamilyKind.TLJ and v.family.dims == (5,)

    def test_2k3(self):
        v = classify_symmetric(union_complete(2, 3))
        assert v.is_spin_model
        assert v.family.kind is FamilyKind.BISCH_JONES and v.family.dims == (11,)

    def test_paley9(self):
        v = classify_symmetric(paley(9))
        assert v.case is VerdictCase.Q_CONDITION_HOLDS and v.q_value == 3
        assert v.family.kind is FamilyKind.KAUFFMAN

    def test_petersen(self):
        v = classify_symmetric(petersen())
        assert not v.is_spin_model
        assert "not 3-point regular" in v.reason

    def test_schlafli_is_smith(self):
        g = load_fixture("schlafli")
        from spinweb.regularity import srg_params
        assert srg_params(g).as_tuple() == (27, 16, 10, 8)
        v = classify_symmetric(g)
        assert not v.is_spin_model and v.q_value == 0
        assert "Smith" in v.reason

    def test_clebsch_triangle_free_branch(self):
        v = classify_symmetric(clebsch())
        assert v.is_spin_model and v.case is VerdictCase.Q_CONDITION_HOLDS
        assert v.q_value == -1

    def test_clebsch_complement_matches_on_other_side(self):
        for g in (clebsch(), load_fixture("higman_sims")):
            own, v = classify_symmetric(g), classify_symmetric(complement(g))
            assert v.is_spin_model and v.applied_to is AppliedTo.COMPLEMENT
            assert v.reason.startswith("complement is triangle-free")
            assert (v.q_value, v.family) == (own.q_value, own.family)

    def test_k3_tie_resolves_to_union(self):
        assert classify_symmetric(complete(3)).case is VerdictCase.UNION_OF_COMPLETES

    def test_k1_accepted(self):
        v = classify_symmetric(complete(1))
        assert v.is_spin_model and v.family.kind is FamilyKind.TLJ

    def test_empty_graph_is_tlj(self):
        v = classify_symmetric(Graph(6, (0,) * 6))
        assert v.is_spin_model and v.family.kind is FamilyKind.TLJ

    def test_unequal_union_rejected(self):
        g = Graph.from_edges(3, [(0, 1)])  # K2 + K1
        assert not classify_symmetric(g).is_spin_model

    def test_complement_invariance_exhaustive_n6(self):
        for idx in range(1 << 15):
            g = graph_from_index(6, idx)
            assert classify_symmetric(g).is_spin_model == \
                classify_symmetric(complement(g)).is_spin_model

    def test_not_strongly_regular_rejected_before_complement(self, monkeypatch):
        # the complement's cases come from its srg parameters: no graph is
        # built for it, strongly regular or not
        inputs = (cycle(6), Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(0, 1), (1, 2)]),
                  complete(1), Graph(4, (0,) * 4), cycle(4), cycle(5), union_complete(3, 2),
                  complement(union_complete(3, 2)), paley(9), petersen(), clebsch(),
                  complement(clebsch()), load_fixture("schlafli"))
        expected = [classify_symmetric(g) for g in inputs]

        def refuse(g):
            raise AssertionError("classifier built a complement graph")

        monkeypatch.setattr("spinweb.graphs.complement", refuse)
        assert [classify_symmetric(g) for g in inputs] == expected
        assert [v.reason for v in expected[:3]] == ["not strongly regular"] * 3
        assert {v.applied_to for v in expected} >= {AppliedTo.GRAPH, AppliedTo.COMPLEMENT}

    def test_not_strongly_regular_verdict_is_shared(self):
        graphs = (cycle(6), Graph.from_edges(3, [(0, 1), (1, 2)]), graph_from_index(7, 5))
        verdicts = [classify_symmetric(g) for g in graphs]
        assert all(v is verdicts[0] for v in verdicts)
        assert verdicts[0] == Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None,
                                      "not strongly regular", None)

    def test_one_srg_scan_per_classification(self, monkeypatch):
        # the package attribute spinweb.regularity is a function: patch the module
        regularity_module = sys.modules["spinweb.regularity"]
        scan = regularity_module.srg_params
        calls = []

        def counted(g):
            calls.append(g)
            return scan(g)

        monkeypatch.setattr(regularity_module, "srg_params", counted)
        monkeypatch.setattr("spinweb.classifier.srg_params", counted)
        for g in (paley(9), clebsch(), petersen(), union_complete(2, 3), cycle(6)):
            calls.clear()
            classify_symmetric(g)
            assert calls == [g]

    def test_total_function_on_random_inputs(self):
        import random
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 9)
            g = Graph(n, reference_graph_rows(n, rng.getrandbits(n * (n - 1) // 2)))
            classify_symmetric(g)  # must not raise

    def test_pentagon_only_triangle_free_k2_spin_model_up_to_10(self):
        # 2-regular graphs are cycle unions; scan one representative per
        # cycle-length partition, which covers every isomorphism type
        def partitions(n, smallest=3):
            if n == 0:
                yield ()
                return
            for first in range(smallest, n + 1):
                for rest in partitions(n - first, first):
                    yield (first,) + rest

        pentagons = 0
        for n in range(3, 11):
            for part in partitions(n):
                offset, edges = 0, []
                for length in part:
                    edges += [(offset + i, offset + (i + 1) % length)
                              for i in range(length)]
                    offset += length
                g = Graph.from_edges(n, edges)
                v = classify_symmetric(g)
                if not v.is_spin_model:
                    continue
                # the square is a spin model as the complement of 2K2, so
                # union-of-completes verdicts never reach the classifier's
                # triangle-free branch; only the pentagon remains there
                if v.case is VerdictCase.UNION_OF_COMPLETES:
                    continue
                free = freeness(g)
                assert free.triangle_free and not free.lambda_free
                assert part == (5,) and v.case is VerdictCase.PENTAGON
                pentagons += 1
        assert pentagons == 1

    def test_triangle_free_3pt_regular_hits_have_positive_q0(self):
        from spinweb.census import CensusConfig, CensusMode, run_census
        from spinweb.regularity import three_point_params
        res = run_census(CensusConfig(max_n=6, mode=CensusMode.LIST_SPIN_MODELS))
        checked = 0
        for hit in res.hits:
            g = graph_from_index(hit.n, hit.index)
            p = three_point_params(g)
            if p is None or not freeness(g).triangle_free or p.srg.k < 3:
                continue
            assert p.q0 > 0
            checked += 1
        assert checked > 0  # K_{3,3} shows up at n = 6


class TestRelabelingInvariance:
    @RELABELING
    @given(relabelings())
    def test_verdict_and_three_point_params(self, pair):
        g, h = pair
        assert all(row.bit_count() == g.adj[0].bit_count() for row in g.adj)
        v, w = classify_symmetric(g), classify_symmetric(h)
        assert ((w.is_spin_model, w.case, w.applied_to, w.family, w.q_value)
                == (v.is_spin_model, v.case, v.applied_to, v.family, v.q_value))
        assert three_point_params(h) == three_point_params(g)


class TestComplementInvariance:
    """The classifier's verdict on g and on its complement, route against itself."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(regular_graphs())
    def test_random_regular_graph_and_complement(self, g):
        v, w = classify_symmetric(g), classify_symmetric(complement(g))
        assert (w.is_spin_model, w.case, w.family) == (v.is_spin_model, v.case, v.family)


class TestFamilyOf:
    def test_2k2(self):
        fam = classify_symmetric(union_complete(2, 2)).family
        assert fam.kind is FamilyKind.BISCH_JONES and fam.dims == (10,)

    def test_3k4(self):
        fam = classify_symmetric(union_complete(3, 4)).family
        assert fam.kind is FamilyKind.BISCH_JONES and fam.dims == (12,)

    def test_clebsch(self):
        fam = classify_symmetric(clebsch()).family
        assert fam.kind is FamilyKind.KAUFFMAN and fam.dims == (14, 15)

    def test_3k2_untabulated(self):
        fam = classify_symmetric(union_complete(3, 2)).family
        assert fam.kind is FamilyKind.BISCH_JONES
        assert fam.untabulated and fam.dims == ()

    def test_not_a_spin_model(self):
        v = classify_symmetric(petersen())
        assert not v.is_spin_model and v.family is None


class TestTournaments:
    def test_3cycle(self):
        v = classify_tournament(circulant_tournament(3, {1}))
        assert v.is_spin_model and v.case is VerdictCase.THREE_CYCLE
        assert v.family.kind is FamilyKind.BISCH_JONES and v.family.dims == (9,)

    def test_qr7_not_spin_model(self):
        v = classify_tournament(circulant_tournament(7, {1, 2, 4}))
        assert not v.is_spin_model
        assert "inconsistent" in v.reason
        assert not spin_model_verdict(circulant_tournament(7, {1, 2, 4}))

    def test_all_4_vertex_tournaments_rejected(self):
        for idx in range(1 << 6):
            v = classify_tournament(tournament_from_index(4, idx))
            assert not v.is_spin_model
            assert v.reason == "not a regular tournament"

    def test_not_regular_verdict_is_shared(self):
        verdicts = [classify_tournament(tournament_from_index(n, 0)) for n in (2, 4, 5)]
        assert all(v is verdicts[0] for v in verdicts)
        assert verdicts[0] == Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None,
                                      "not a regular tournament", None)

    def test_single_vertex(self):
        v = classify_tournament(tournament_from_index(1, 0))
        assert not v.is_spin_model

    def test_is_regular_tournament(self):
        assert is_regular_tournament(circulant_tournament(3, {1})) == 1
        assert is_regular_tournament(circulant_tournament(5, {1, 2})) == 2
        assert all(is_regular_tournament(tournament_from_index(4, idx)) is None
                   for idx in range(1 << 6))

    def test_is_regular_tournament_matches_two_sided_degree_scan(self):
        # the out-degrees alone decide: constant out-degrees force the in-degrees
        def two_sided(t):
            k = out_degree(t, 0)
            if all(out_degree(t, a) == k and in_degree(t, a) == k for a in range(t.n)):
                return k
            return None

        labeled = [tournament_from_index(n, idx) for n in range(1, 6)
                   for idx in range(1 << (n * (n - 1) // 2))]
        circulant = [t for n in range(1, 14, 2) for t in iter_circulant_tournaments(n)]
        for t in labeled + circulant:
            assert is_regular_tournament(t) == two_sided(t)
        assert sum(is_regular_tournament(t) is not None for t in labeled) == 1 + 2 + 24
        assert len(circulant) == 1 + 2 + 4 + 8 + 16 + 32 + 64
