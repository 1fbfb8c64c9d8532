"""The package's records: immutable, equal only within one class, picklable,
and made without the ``dataclasses`` module."""

import json
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import spinweb
from spinweb.census import CensusResult, Disagreement, Hit
from spinweb.classifier import Family, classify_symmetric
from spinweb.graphs import Graph, Tournament, cycle
from spinweb.regularity import SrgParams
from spinweb.statesum import Witness, full_report


def test_census_result_pickles_with_its_records():
    # what a pool worker returns: hits with a verdict, a family, a report
    # and a witness, and a disagreement
    pentagon, hexagon = cycle(5), cycle(6)
    hits = [Hit(5, 1, "Dhc", classify_symmetric(pentagon), full_report(pentagon)),
            Hit(6, 2, "EhEG", classify_symmetric(hexagon), full_report(hexagon))]
    assert isinstance(hits[0].verdict.family, Family)
    assert any(isinstance(check.witness, Witness) for _, check in hits[1].report.checks())
    result = CensusResult(graphs_seen=3, counts={"pentagon": 1}, hits=hits,
                          disagreement=Disagreement(6, 3, "E?", True, False), guarded=1,
                          line_errors=[(4, "bad line")])
    back = pickle.loads(pickle.dumps(result))
    assert (back.graphs_seen, back.counts, back.hits, back.disagreement, back.guarded,
            back.line_errors) == (3, {"pentagon": 1}, hits, Disagreement(6, 3, "E?", True, False),
                                  1, [(4, "bad line")])
    assert back.disagreement.name == "E?"


def test_census_results_do_not_share_their_lists():
    one, two = CensusResult(), CensusResult()
    one.bump("pentagon")
    one.hits.append(None)
    one.line_errors.append((1, "bad"))
    assert (two.counts, two.hits, two.line_errors) == ({}, [], [])


@pytest.mark.parametrize("record, field", [
    (cycle(5), "n"),
    (classify_symmetric(cycle(5)), "is_spin_model"),
    (full_report(cycle(5)), "r1b"),
    (SrgParams(5, 2, 0, 1), "k"),
])
def test_assignment_raises(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


def test_records_of_two_classes_never_compare_equal():
    # one vertex is the only order whose rows are both a graph's and a tournament's
    assert Graph(1, (0,)) != Tournament(1, (0,))
    params = SrgParams(5, 2, 0, 1)
    assert params != params.as_tuple() + (False, False)
    assert params == SrgParams(n=5, k=2, lam=0, mu=1, lam_vacuous=False, mu_vacuous=False)


def test_equal_graphs_hash_alike():
    rows = cycle(5).adj
    same = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert same == cycle(5) and hash(same) == hash(cycle(5))
    assert len({same, cycle(5), Graph(5, rows)}) == 1
    assert pickle.loads(pickle.dumps(same)) == same


def test_import_loads_no_dataclasses():
    # a fresh interpreter, with the modules the package needs anyway loaded first
    code = textwrap.dedent("""
        import sys
        sys.path.insert(0, sys.argv[1])
        import argparse, fractions, json, numpy
        before = set(sys.modules)
        import spinweb, spinweb.cli
        print(json.dumps("dataclasses" in set(sys.modules) - before))
    """)
    src = Path(spinweb.__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-I", "-c", code, str(src)],
                          capture_output=True, text=True, timeout=60, check=True)
    assert json.loads(done.stdout) is False
