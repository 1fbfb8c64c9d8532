"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; every tolerance here is exact unless a runtime bound is
stated explicitly.
"""

import sys
import time
from contextlib import contextmanager

from spinweb.census import (CensusConfig, CensusMode, iter_all_regular_labeled_graphs,
                            iter_regular_labeled_graphs, run_census,
                            run_tournament_census)
from spinweb.classifier import classify_symmetric
from spinweb.graphs import (circulant_tournament, clebsch, complete, cycle, paley,
                            union_complete)
from spinweb.regularity import q_condition, srg_params, three_point_params
from spinweb.statesum import check_2b, dim_v3, full_report
from tests.conftest import (connected_components, freeness,
                            freeness_duality_violations, load_fixture,
                            partition_identity_holds)

WORKERS = 2


@contextmanager
def criterion(number, description):
    started = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {description}", file=sys.stderr, flush=True)
        raise
    print(f"[criterion {number}] PASS: {description} "
          f"({time.time() - started:.1f}s)", flush=True)


def test_criterion_1_known_spin_model_table():
    with criterion(1, "known spin-model table: srg and q parameters, all classified"):
        started = time.time()
        table = [
            (cycle(5), (5, 2, 0, 1), None),
            (paley(9), (9, 4, 1, 2), (0, 0, 1, 0)),
            (clebsch(), (16, 5, 0, 2), (0, 0, 0, 1)),
            (load_fixture("higman_sims"), (100, 22, 0, 6), (0, 0, 0, 2)),
        ]
        for g, srg_expected, q_expected in table:
            assert srg_params(g).as_tuple() == srg_expected
            if q_expected is not None:
                assert three_point_params(g).q_vector() == q_expected
            assert classify_symmetric(g).is_spin_model
        assert time.time() - started < 60


def test_criterion_2_dim_v3_table():
    with criterion(2, "dim V3 table: K4=5 2K2=10 2K3=11 3K3=12 C5=13 3-cycle=9"):
        table = [
            (complete(4), 5),
            (union_complete(2, 2), 10),
            (union_complete(2, 3), 11),
            (union_complete(3, 3), 12),
            (cycle(5), 13),
            (circulant_tournament(3, {1}), 9),
        ]
        for obj, expected in table:
            started = time.time()
            assert dim_v3(obj) == expected
            assert time.time() - started < 1.0


def test_criterion_3_counterexample_pair():
    with criterion(3, "Petersen (1b,2b,-,3b) and Schlafli (1b,2b,3a,-) with q-condition 0"):
        from spinweb.graphs import petersen
        assert full_report(petersen()).booleans() == (True, True, False, True)
        schlafli = load_fixture("schlafli")
        assert full_report(schlafli).booleans() == (True, True, True, False)
        assert q_condition(three_point_params(schlafli)) == 0


def test_criterion_4_master_equivalence():
    with criterion(4, "classifier == oracle on all graphs n<=7 and tournaments n in {3,5}"):
        graphs = run_census(CensusConfig(
            max_n=7, mode=CensusMode.ASSERT_EQUIVALENCE, workers=WORKERS))
        assert graphs.disagreement is None
        assert graphs.graphs_seen == sum(1 << (n * (n - 1) // 2) for n in range(1, 8))
        tournaments = run_tournament_census(ns=(3, 5))
        assert tournaments.disagreement is None
        assert tournaments.graphs_seen == 8 + 1024


def test_criterion_5_structural_lemmas():
    with criterion(5, "k=2 srg shapes, lambda-free srg shapes, freeness duality on n<=8"):
        # every strongly regular graph with k = 2 is C5, C4, or triangles
        for n in range(3, 9):
            for g in iter_regular_labeled_graphs(n, 2):
                if srg_params(g) is None:
                    continue
                comps = connected_components(g)
                assert (len(comps) == 1 and g.n in (4, 5)) or \
                    all(len(c) == 3 for c in comps)
        # every lambda-free strongly regular graph is mK_{k+1}
        for n in range(1, 9):
            for g in iter_all_regular_labeled_graphs(n):
                p = srg_params(g)
                if p is None or not freeness(g).lambda_free:
                    continue
                assert all(len(c) == p.k + 1 and
                           all(g.adj[v].bit_count() == p.k for v in c)
                           for c in connected_components(g))
        # freeness complement-duality over every labeled graph on <= 8 vertices
        assert freeness_duality_violations(8, workers=WORKERS) == 0


def test_criterion_6_nonsymmetric_uniqueness():
    with criterion(6, "3-cycle is the only spin-model tournament on 3, 5, 7 vertices"):
        started = time.time()
        result = run_tournament_census(ns=(3, 5, 7))
        assert result.disagreement is None
        assert result.graphs_seen == 8 + 1024 + 8  # exhaustive 3,5; circulants on 7
        assert len(result.hits) == 2  # the two labelings of the 3-cycle
        assert all(hit.n == 3 for hit in result.hits)
        assert all(hit.verdict.reason == "the 3-cycle" for hit in result.hits)
        assert time.time() - started < 60


def test_criterion_7_oracle_internal_consistency():
    with criterion(7, "2b coefficients match (k,lambda,mu); One = Delta + P + Q"):
        spin_models = [
            cycle(5), paley(9), clebsch(), load_fixture("higman_sims"),
            complete(4), union_complete(2, 2), union_complete(2, 3),
            union_complete(3, 3),
        ]
        for g in spin_models:
            params = srg_params(g)
            check = check_2b(g)
            assert check.holds
            assert (check.coefficients["k"], check.coefficients["lambda"],
                    check.coefficients["mu"]) == (params.k, params.lam, params.mu)
            assert partition_identity_holds(g)
        t = circulant_tournament(3, {1})
        check = check_2b(t)
        assert check.holds and check.coefficients["k"] == 1
        assert check.coefficients["lambda"] == check.coefficients["mu"]
        assert partition_identity_holds(t)
