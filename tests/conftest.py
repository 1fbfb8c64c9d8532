from pathlib import Path

import pytest

from spinweb.graph6 import parse_graph6
from spinweb.graphs import Tournament, complement
from spinweb.statesum import PairFunctions

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str):
    return parse_graph6((FIXTURE_DIR / f"{name}.g6").read_bytes())


def partition_identity_holds(obj) -> bool:
    """One = Delta + P + Q pointwise on a graph or tournament.

    The oracle's One, Delta and P rows are checked with a Q derived here:
    a tournament's Q rows are the oracle's transpose of its arcs; the
    oracle builds no Q rows for a graph, so its Q is ``complement(g)``.
    """
    if isinstance(obj, Tournament):
        pf = PairFunctions.from_tournament(obj)
        q_rows = pf.rows["Q"]
    else:
        pf = PairFunctions.from_graph(obj)
        q_rows = complement(obj).adj
    return all(
        pf.value("One", u, v) == pf.value("Delta", u, v) + pf.value("P", u, v)
        + ((q_rows[u] >> v) & 1)
        for u in range(pf.n) for v in range(pf.n))


@pytest.fixture
def schlafli_graph():
    return load_fixture("schlafli")


@pytest.fixture
def higman_sims_graph():
    return load_fixture("higman_sims")


@pytest.fixture
def fixture_env(monkeypatch):
    monkeypatch.setenv("SPINWEB_FIXTURES", str(FIXTURE_DIR))
    return FIXTURE_DIR
