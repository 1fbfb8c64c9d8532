import json
import os
import random
import re
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from spinweb import census
from spinweb.census import (_BLOCK, CensusConfig, CensusMode, CensusResult,
                            CounterexampleFound, Disagreement, graph_from_index,
                            iter_all_regular_labeled_graphs,
                            iter_circulant_tournaments,
                            iter_regular_labeled_graphs, pair_positions,
                            run_census, run_tournament_census, scan_stream,
                            tournament_from_index)
from spinweb.graph6 import parse_graph6, write_graph6
from spinweb.graphs import clebsch, cycle, paley, petersen
from tests.conftest import FIXTURE_DIR, freeness_duality_violations, out_degree


def reference_graph_rows(n, index):
    """The per-bit reading of a graph index, kept as the reference."""
    rows = [0] * n
    for b, (i, j) in enumerate(pair_positions(n)):
        if (index >> b) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return tuple(rows)


def reference_tournament_rows(n, index):
    """The per-bit reading of a tournament index, kept as the reference."""
    rows = [0] * n
    for b, (i, j) in enumerate(pair_positions(n)):
        if (index >> b) & 1:
            rows[i] |= 1 << j
        else:
            rows[j] |= 1 << i
    return tuple(rows)


def patch_table_entry(monkeypatch, n, directed, value, bit):
    """Make entry ``value`` of the first index byte's table of n also set ``bit``."""
    tables = census._byte_tables(n, directed).copy()
    tables[0, value, 0] |= np.uint64(1 << bit)
    real = census._byte_tables
    monkeypatch.setattr(census, "_byte_tables",
                        lambda m, d: tables if (m, d) == (n, directed) else real(m, d))


_real_census_block = census._census_block
_PLANTED = ((6, 5 << 10), (6, 6 << 10))   # (n, block start) with 2^10-index blocks


def _planted_block(args):
    """A census block that logs its (n, start) and fakes two disagreements.

    The first planted block answers late, so the second one is merged from a
    finished future while the first is still running; blocks after both
    are slow, so a census that does not cancel them keeps its workers busy.
    """
    n, start, stop = args[:3]
    with open(os.environ["SPINWEB_BLOCK_LOG"], "a") as log:
        log.write(f"{n} {start}\n")
    if (n, start) in _PLANTED:
        if (n, start) == _PLANTED[0]:
            time.sleep(0.2)
        out = CensusResult(graphs_seen=stop - start)
        out.disagreement = Disagreement(n, start + 1, "planted", True, False)
        return out
    if (n, start) > _PLANTED[-1]:
        time.sleep(0.1)
    return _real_census_block(args)


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
        assert out_degree(t, 2) == 2  # all pairs point high-to-low

    def test_regular_enumeration_counts(self):
        assert sum(1 for _ in iter_regular_labeled_graphs(8, 2)) == 3507
        assert sum(1 for _ in iter_regular_labeled_graphs(7, 3)) == 0  # odd sum
        assert sum(1 for _ in iter_regular_labeled_graphs(6, 1)) == 15

    def test_circulant_tournaments(self):
        assert sum(1 for _ in iter_circulant_tournaments(7)) == 8

    def test_table_constructors_match_per_bit_loops(self):
        rng = random.Random(20261018)
        cases = [(n, index) for n in range(1, 6)
                 for index in range(1 << (n * (n - 1) // 2))]
        for n in (6, 7, 8):
            top = (1 << (n * (n - 1) // 2)) - 1
            cases += [(n, 0), (n, top)]
            cases += [(n, rng.randint(1, top - 1)) for _ in range(1998)]
        for n, index in cases:
            assert graph_from_index(n, index).adj == reference_graph_rows(n, index)
            assert tournament_from_index(n, index).arc == \
                reference_tournament_rows(n, index)

    @pytest.mark.parametrize("directed", [False, True])
    def test_block_builder_matches_per_bit_loops(self, directed):
        reference = reference_tournament_rows if directed else reference_graph_rows
        rng = random.Random(20261020)
        cases = [(n, np.arange(1 << (n * (n - 1) // 2))) for n in range(1, 6)]
        for n in (6, 7, 8):      # n = 8 sets the high byte of the packed word
            top = (1 << (n * (n - 1) // 2)) - 1
            first = rng.randrange(top - 2000)
            cases.append((n, np.concatenate([[0, top], np.arange(_BLOCK - 3, _BLOCK + 3),
                                             np.arange(first, first + 2000)])))
        for n, indices in cases:
            assert list(census._rows_from_indices(n, indices, directed)) == \
                [reference(n, index) for index in indices.tolist()]

    def test_index_tables_need_rows_of_one_word(self):
        assert tournament_from_index(64, 1).arc[:3] == (2, 0, 3)    # 0 -> 1, else j -> i
        for n in (0, 65):
            with pytest.raises(ValueError, match=f"needs 1 <= n <= 64, got {n}"):
                graph_from_index(n, 1)


class TestRunCensus:
    def test_config_rejects_large_n(self):
        with pytest.raises(ValueError):
            CensusConfig(max_n=9)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_config_rejects_workers_below_1(self, workers):
        with pytest.raises(ValueError, match="workers"):
            CensusConfig(max_n=5, workers=workers)

    @pytest.mark.parametrize("workers", [65, 10 ** 6])
    def test_config_rejects_workers_above_the_bound(self, workers):
        with pytest.raises(ValueError, match=f"workers must be <= 64, got {workers}"):
            CensusConfig(max_n=5, workers=workers)

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

    def test_pool_is_imported_only_when_started(self):
        # a fresh interpreter: this one has the pool loaded by tests/conftest.py
        code = textwrap.dedent("""
            import sys
            sys.path.insert(0, sys.argv[1])
            import argparse, dataclasses, fractions, json, numpy
            before = set(sys.modules)
            import spinweb, spinweb.cli
            from spinweb.census import CensusConfig, run_census
            pool = {"multiprocessing", "concurrent.futures.process"}
            loaded_by_import = sorted(pool & (set(sys.modules) - before))
            results = [run_census(CensusConfig(max_n=4, mode="list_spin_models",
                                               workers=workers))
                       for workers in (1, 2)]
            print(json.dumps({
                "loaded_by_import": loaded_by_import,
                "loaded_by_pool": "concurrent.futures.process" in sys.modules,
                "results": [[r.graphs_seen, r.counts, [h.graph6 for h in r.hits]]
                            for r in results],
            }))
        """)
        src = Path(census.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                              capture_output=True, text=True, timeout=60, check=True)
        out = json.loads(done.stdout)
        assert out["loaded_by_import"] == []
        assert out["loaded_by_pool"]
        one, two = out["results"]
        assert one == two and one[2]

    def test_worker_count_does_not_change_results(self):
        one = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS,
                                      workers=1))
        two = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS,
                                      workers=2))
        assert one.counts == two.counts
        assert [(h.n, h.index, h.graph6) for h in one.hits] == \
            [(h.n, h.index, h.graph6) for h in two.hits]
        # merged in task order, with no sort: strictly increasing (n, index)
        for res in (one, two):
            keys = [(h.n, h.index) for h in res.hits]
            assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_block_size_does_not_change_results(self, monkeypatch):
        outcomes = []
        for block in (1 << 18, 1 << 16, 1 << 10):
            monkeypatch.setattr(census, "_BLOCK", block)
            for workers in (1, 2):
                res = run_census(CensusConfig(max_n=6, mode=CensusMode.LIST_SPIN_MODELS,
                                              workers=workers))
                outcomes.append((res.graphs_seen, res.counts, res.guarded,
                                 [(h.n, h.index, h.graph6, h.verdict) for h in res.hits],
                                 res.disagreement))
        assert outcomes[0][0] == 1 + 2 + 8 + 64 + 1024 + 32768
        assert all(outcome == outcomes[0] for outcome in outcomes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_first_disagreement_stops_the_census(self, workers, monkeypatch, tmp_path):
        log = tmp_path / "blocks.log"
        monkeypatch.setenv("SPINWEB_BLOCK_LOG", str(log))
        monkeypatch.setattr(census, "_BLOCK", 1 << 10)
        monkeypatch.setattr(census, "_census_block", _planted_block)
        tasks = 5 + 32            # one block each for n <= 5, 32 for n = 6
        with pytest.raises(CounterexampleFound) as caught:
            run_census(CensusConfig(max_n=6, workers=workers))
        assert (caught.value.disagreement.n, caught.value.disagreement.index) == \
            (6, (5 << 10) + 1)
        ran = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
        assert len(set(ran)) == len(ran)
        later = [block for block in ran if block > _PLANTED[-1]]
        # the 25 blocks after the planted ones would all run without the
        # cancel; only those already handed to a worker may still start
        assert len(ran) < tasks and len(later) <= (0 if workers == 1 else 10)

    @pytest.mark.parametrize("block", [1 << 16, 1 << 10, 1 << 4])
    def test_first_disagreement_in_index_order(self, block, monkeypatch):
        # a regular graph (index 236) and a later guard sample (index 300)
        # on 5 vertices both disagree; the regular one comes first
        targets = {graph_from_index(5, index).adj for index in (236, 300)}
        real = census.classify_symmetric

        def flipped(g):
            verdict = real(g)
            if g.adj in targets and g.n == 5:
                return verdict._replace(is_spin_model=not verdict.is_spin_model)
            return verdict

        monkeypatch.setattr(census, "_BLOCK", block)
        monkeypatch.setattr(census, "classify_symmetric", flipped)
        res = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS))
        assert (res.disagreement.n, res.disagreement.index) == (5, 236)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stopped_block_counts_only_what_it_saw(self, workers, monkeypatch):
        # a flipped verdict on the regular graph at index 236 stops the n = 5
        # block there: it saw indices 0..236, and the tallies sum to that
        target = graph_from_index(5, 236).adj
        real = census.classify_symmetric

        def flipped(g):
            verdict = real(g)
            if g.n == 5 and g.adj == target:
                return verdict._replace(is_spin_model=not verdict.is_spin_model)
            return verdict

        monkeypatch.setattr(census, "classify_symmetric", flipped)
        res = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS,
                                      workers=workers))
        assert (res.disagreement.n, res.disagreement.index) == (5, 236)
        assert res.graphs_seen == 1 + 2 + 8 + 64 + 237
        assert sum(res.counts.values()) == res.graphs_seen

    @pytest.mark.parametrize("index, bit, message", [
        (0, 0 * 8 + 1, "asymmetric adjacency at (0,1)"),    # row 0 gains 1, row 1 not 0
        (100, 2 * 8 + 2, "loop at vertex 2")])              # a guard sample
    def test_every_block_graph_is_validated(self, monkeypatch, index, bit, message):
        patch_table_entry(monkeypatch, 5, False, index, bit)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            census._census_block((5, 0, 1 << 10, CensusMode.ASSERT_EQUIVALENCE))

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

    @pytest.mark.parametrize("mode", [CensusMode.LIST_SPIN_MODELS, CensusMode.LIST_3PT_REGULAR])
    def test_list_mode_stops_at_the_first_disagreement(self, tmp_path, monkeypatch, mode):
        # the Paley 9 line (line 3 of MIXED_STREAM) is the only one flipped
        target = paley(9).adj
        real = census.classify_symmetric

        def flipped(g):
            verdict = real(g)
            if g.adj == target:
                return verdict._replace(is_spin_model=not verdict.is_spin_model)
            return verdict

        monkeypatch.setattr(census, "classify_symmetric", flipped)
        stream = tmp_path / "mixed.g6"
        stream.write_bytes(MIXED_STREAM)
        res = scan_stream(str(stream), mode)
        assert (res.disagreement.index, res.disagreement.name) == (3, "H{S{aSf")
        assert res.graphs_seen == 2           # the pentagon and Paley 9
        assert [h.index for h in res.hits] == [1]
        assert res.line_errors == [(2, "byte 32 outside graph6 range 63..126")]


# pentagon, a malformed line, Paley 9, Petersen, a blank line, a malformed
# line, Paley 13 and an irregular graph on 7 vertices
MIXED_STREAM = b"\n".join([
    write_graph6(cycle(5)), b"not graph6!!", write_graph6(paley(9)),
    write_graph6(petersen()), b"", b"D??\x01", write_graph6(paley(13)), b"FUmOo",
]) + b"\n"
_SPIN = (True, True, True, True)
_MIXED_HITS = [
    (1, "Dhc", "pentagon", _SPIN),
    (3, "H{S{aSf", "q-condition holds", _SPIN),
    (4, "I?LRCecq?", "not a spin model", (True, True, False, True)),
    (7, "LlthgsL`mEkLkL", "not a spin model", (True, True, False, False)),
    (8, "FUmOo", "not a spin model", (False, False, False, False)),
]


class TestStreamResults:
    @pytest.mark.parametrize("mode, hits", [
        (CensusMode.ASSERT_EQUIVALENCE, _MIXED_HITS),
        (CensusMode.LIST_SPIN_MODELS, _MIXED_HITS[:2]),
        (CensusMode.LIST_3PT_REGULAR, _MIXED_HITS[:2]),
    ])
    def test_mixed_stream(self, tmp_path, mode, hits):
        stream = tmp_path / "mixed.g6"
        stream.write_bytes(MIXED_STREAM)
        res = scan_stream(str(stream), mode)
        assert res.graphs_seen == 5
        assert res.counts == {"pentagon": 1, "q-condition holds": 1, "not a spin model": 3}
        assert [(h.index, h.graph6, h.verdict.case.value, h.report.booleans())
                for h in res.hits] == hits
        assert res.line_errors == [(2, "byte 32 outside graph6 range 63..126"),
                                   (6, "byte 1 outside graph6 range 63..126")]
        assert res.disagreement is None and res.guarded == 0


def _key(obj):
    return (type(obj).__name__, obj.n, getattr(obj, "adj", None) or obj.arc)


@pytest.fixture
def oracle_calls(monkeypatch):
    """The objects the census hands to each oracle entry point, in call order."""
    calls = {"full_report": [], "spin_model_verdict": []}
    for name, log in calls.items():
        real = getattr(census, name)

        def counted(obj, real=real, log=log):
            log.append(_key(obj))
            return real(obj)

        monkeypatch.setattr(census, name, counted)
    return calls


class TestOracleCalls:
    @pytest.mark.parametrize("mode", list(CensusMode))
    def test_stream_reports_only_listed_lines(self, tmp_path, oracle_calls, mode):
        stream = tmp_path / "mixed.g6"
        stream.write_bytes(MIXED_STREAM)
        res = scan_stream(str(stream), mode)
        listed = [_key(parse_graph6(h.graph6.encode())) for h in res.hits]
        every = [_key(parse_graph6(line)) for line in MIXED_STREAM.splitlines()
                 if line and line not in (b"not graph6!!", b"D??\x01")]
        assert oracle_calls["full_report"] == listed
        assert oracle_calls["spin_model_verdict"] == [k for k in every if k not in listed]

    def test_census_asks_the_oracle_once_per_object(self, oracle_calls):
        res = run_census(CensusConfig(max_n=5, mode=CensusMode.LIST_SPIN_MODELS))
        asked = oracle_calls["full_report"] + oracle_calls["spin_model_verdict"]
        assert len(asked) == len(set(asked))
        regular = sum(1 for n in range(1, 6) for _ in iter_all_regular_labeled_graphs(n))
        assert len(asked) == regular + res.guarded
        assert oracle_calls["full_report"] == [
            ("Graph", h.n, graph_from_index(h.n, h.index).adj) for h in res.hits]

    def test_tournament_census_asks_the_oracle_once_per_object(self, oracle_calls):
        res = run_tournament_census(ns=(3, 5))
        asked = oracle_calls["full_report"] + oracle_calls["spin_model_verdict"]
        assert len(asked) == len(set(asked)) == res.graphs_seen == 8 + 1024
        assert oracle_calls["full_report"] == [
            ("Tournament", 3, tournament_from_index(3, h.index).arc) for h in res.hits]
        assert len(res.hits) == 2


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
        res = run_tournament_census(ns=(3,), mode=CensusMode.LIST_SPIN_MODELS)
        assert res.disagreement is not None and res.disagreement.index == 0
        assert res.disagreement.name == "n=3#0"

    @pytest.mark.parametrize("mode", [CensusMode.LIST_SPIN_MODELS, "list_spin_models"])
    def test_list_mode_stops_at_the_first_disagreement(self, monkeypatch, mode):
        # the flipped 3-cycle at index 5 on 3 vertices follows the listed one
        # at index 2; no n = 5 tournament is looked at
        target = tournament_from_index(3, 5).arc
        real = census.classify_tournament

        def flipped(t):
            verdict = real(t)
            if t.arc == target:
                return verdict._replace(is_spin_model=not verdict.is_spin_model)
            return verdict

        monkeypatch.setattr(census, "classify_tournament", flipped)
        res = run_tournament_census(ns=(3, 5), mode=mode)
        assert (res.disagreement.n, res.disagreement.index) == (3, 5)
        assert res.graphs_seen == 6
        assert sum(res.counts.values()) == 6
        assert [(h.n, h.index, h.name) for h in res.hits] == [(3, 2, "n=3#2")]

    def test_assert_mode_raises_with_the_object_name(self, monkeypatch):
        from spinweb.classifier import Verdict, VerdictCase
        always = Verdict(True, VerdictCase.THREE_CYCLE, None, None, "patched")
        monkeypatch.setattr(census, "classify_tournament", lambda t: always)
        with pytest.raises(CounterexampleFound, match=r"disagreement on 'n=3#0' \(n=3, index=0\)"):
            run_tournament_census(ns=(3,))

    @pytest.mark.parametrize("index, bit, message", [
        (0, 0 * 8 + 1, "pair (0,1) must carry exactly one arc"),   # 0 -> 1 beside 1 -> 0
        (5, 1 * 8 + 1, "loop at vertex 1")])
    def test_every_task_tournament_is_validated(self, monkeypatch, index, bit, message):
        patch_table_entry(monkeypatch, 3, True, index, bit)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            census._tournament_task((3, CensusMode.ASSERT_EQUIVALENCE))

    def test_equivalence_on_every_tournament_up_to_5(self):
        res = run_tournament_census(ns=(1, 2, 3, 4, 5))
        assert res.disagreement is None
        assert res.graphs_seen == 1 + 2 + 8 + 64 + 1024

    def test_circulants_on_7(self):
        res = run_tournament_census(ns=(7,))
        assert res.graphs_seen == 8
        assert not res.hits

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_sizes_below_1(self, n):
        with pytest.raises(ValueError, match=f"tournament census needs n >= 1, got {n}"):
            run_tournament_census(ns=(3, n))

    def test_rejects_sizes_above_the_bound_before_any_runs(self, monkeypatch):
        monkeypatch.setattr(census, "_tournament_task", None)    # running a task fails
        with pytest.raises(ValueError, match="tournament census needs n <= 31, got 33"):
            run_tournament_census(ns=(3, 33))
        with pytest.raises(ValueError, match="circulant tournament needs odd n, got 6"):
            run_tournament_census(ns=(3, 6))


class TestDualityScan:
    def test_no_violations_up_to_6(self):
        assert freeness_duality_violations(6) == 0
