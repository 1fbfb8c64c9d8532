from collections import Counter

import pytest

from spinweb.census import (CensusConfig, CensusMode,
                            freeness_duality_violations, graph_from_index,
                            iter_circulant_tournaments,
                            iter_regular_labeled_graphs,
                            run_census, run_tournament_census, scan_stream,
                            tournament_from_index)
from spinweb.graph6 import write_graph6
from spinweb.graphs import clebsch, petersen
from tests.conftest import FIXTURE_DIR


class TestEnumeration:
    def test_pair_order_matches_graph6(self):
        # index bits are the graph6 payload bits, so index 1 on n=2 is K2
        assert write_graph6(graph_from_index(2, 1)) == b"A_"
        assert write_graph6(graph_from_index(5, 0b1010011)) is not None

    def test_every_graph_once(self):
        seen = {write_graph6(graph_from_index(4, idx)) for idx in range(64)}
        assert len(seen) == 64

    def test_tournament_from_index(self):
        t = tournament_from_index(3, 0)
        assert t.out_degree(2) == 2  # all pairs point high-to-low

    def test_regular_enumeration_counts(self):
        assert sum(1 for _ in iter_regular_labeled_graphs(8, 2)) == 3507
        assert sum(1 for _ in iter_regular_labeled_graphs(7, 3)) == 0  # odd sum
        assert sum(1 for _ in iter_regular_labeled_graphs(6, 1)) == 15

    def test_circulant_tournaments(self):
        assert sum(1 for _ in iter_circulant_tournaments(7)) == 8


class TestRunCensus:
    def test_config_rejects_large_n(self):
        with pytest.raises(ValueError):
            CensusConfig(max_n=9)

    def test_spin_model_hits_up_to_5(self):
        res = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS))
        by_case = Counter((h.n, h.verdict.case.value) for h in res.hits)
        # 12 labelings of the pentagon, unions of complete graphs and their
        # complements everywhere else; no other k = 2 graph shows up
        assert by_case[(5, "pentagon")] == 12
        assert by_case[(4, "union of completes")] == 8
        assert sum(by_case.values()) == 27
        assert all(h.report.is_spin_model for h in res.hits)

    def test_equivalence_n6(self):
        res = run_census(CensusConfig(max_n=6, mode=CensusMode.ASSERT_EQUIVALENCE))
        assert res.disagreement is None
        assert res.graphs_seen == 33867
        assert res.guarded > 0

    def test_worker_count_does_not_change_results(self):
        one = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS,
                                      workers=1))
        two = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS,
                                      workers=2))
        assert one.counts == two.counts
        assert [(h.n, h.index, h.graph6) for h in one.hits] == \
            [(h.n, h.index, h.graph6) for h in two.hits]

    def test_three_point_mode(self):
        res = run_census(CensusConfig(max_n=4, mode=CensusMode.LIST_3PT_REGULAR))
        assert all(h.verdict.case.value != "pentagon" for h in res.hits)
        assert {h.graph6 for h in res.hits} >= {"C~", "C?"}  # K4 and its complement


class TestScanStream:
    def test_named_graphs(self, tmp_path):
        stream = tmp_path / "named.g6"
        with open(FIXTURE_DIR / "schlafli.g6", "rb") as fh:
            schlafli_line = fh.read()
        with open(FIXTURE_DIR / "higman_sims.g6", "rb") as fh:
            hs_line = fh.read()
        stream.write_bytes(
            write_graph6(petersen()) + b"\n" + schlafli_line +
            write_graph6(clebsch()) + b"\n" + hs_line)
        res = scan_stream(str(stream), CensusMode.ASSERT_EQUIVALENCE)
        assert res.graphs_seen == 4
        booleans = [h.report.booleans() for h in res.hits]
        assert booleans == [
            (True, True, False, True),   # petersen
            (True, True, True, False),   # schlafli
            (True, True, True, True),    # clebsch
            (True, True, True, True),    # higman-sims
        ]

    def test_malformed_lines_reported_and_skipped(self, tmp_path):
        stream = tmp_path / "bad.g6"
        stream.write_bytes(b"A_\nnot graph6!!\nA?\n")
        res = scan_stream(str(stream), CensusMode.LIST_SPIN_MODELS)
        assert res.graphs_seen == 2
        assert len(res.line_errors) == 1 and res.line_errors[0][0] == 2

    def test_first_disagreement_is_kept(self, tmp_path, monkeypatch):
        from spinweb.classifier import Verdict, VerdictCase
        always = Verdict(True, VerdictCase.PENTAGON, None, None, "patched")
        monkeypatch.setattr("spinweb.census.classify_symmetric", lambda g: always)
        stream = tmp_path / "two.g6"
        stream.write_bytes(b"DJG\nFUmOo\n")  # neither is a spin model
        res = scan_stream(str(stream), CensusMode.LIST_SPIN_MODELS)
        assert res.disagreement is not None
        assert (res.disagreement.index, res.disagreement.graph6) == (1, "DJG")


class TestTournamentCensus:
    def test_only_the_3cycle_passes(self):
        res = run_tournament_census(ns=(3, 5))
        assert res.graphs_seen == 8 + 1024
        assert len(res.hits) == 2  # the two labeled 3-cycles
        assert all(h.n == 3 for h in res.hits)
        assert res.disagreement is None

    def test_first_disagreement_is_kept(self, monkeypatch):
        from spinweb.classifier import Verdict, VerdictCase
        always = Verdict(True, VerdictCase.THREE_CYCLE, None, None, "patched")
        monkeypatch.setattr("spinweb.census.classify_tournament", lambda t: always)
        res = run_tournament_census(ns=(3,), assert_equivalence=False)
        assert res.disagreement is not None and res.disagreement.index == 0

    def test_equivalence_on_every_tournament_up_to_5(self):
        res = run_tournament_census(ns=(1, 2, 3, 4, 5))
        assert res.disagreement is None
        assert res.graphs_seen == 1 + 2 + 8 + 64 + 1024

    def test_circulants_on_7(self):
        res = run_tournament_census(ns=(7,), exhaustive_limit=5)
        assert res.graphs_seen == 8
        assert not res.hits


class TestDualityScan:
    def test_no_violations_up_to_6(self):
        assert freeness_duality_violations(6) == 0
