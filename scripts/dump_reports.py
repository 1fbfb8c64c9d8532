#!/usr/bin/env python3
"""Dump oracle reports and classifier verdicts of a fixed corpus as JSON lines.

Each line holds one graph or tournament: the full relation report
(verdicts, coefficients, witnesses), dim V3 (or the error it raises) and
the closed-form verdict.  The corpus is fixed (random parts drawn from SEED):

  * every regular labeled graph on n <= 6 vertices (199),
  * 300 regular labeled graphs on 7 vertices,
  * 200 random irregular graphs on 4..8 vertices,
  * every labeled tournament on n <= 4 vertices (75),
  * 100 random tournaments on 5 vertices,
  * every circulant tournament on 7 and 9 vertices (24),
  * the Schlafli, Higman-Sims and McLaughlin fixtures, last.

Run it on two checkouts and diff the outputs to show that a change keeps
every verdict, coefficient, witness and rank:

  python3 scripts/dump_reports.py > before.jsonl     # in the old checkout
  python3 scripts/dump_reports.py > after.jsonl      # in the new checkout
  diff before.jsonl after.jsonl

The output is pinned in ``tests/data/reports_dump.jsonl.gz``, which
``tests/test_reports_dump.py`` checks line by line.
"""

import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spinweb.census import (graph_from_index, iter_all_regular_labeled_graphs,
                            iter_circulant_tournaments, tournament_from_index)
from spinweb.classifier import classify_symmetric, classify_tournament
from spinweb.graph6 import parse_graph6
from spinweb.graphs import Tournament
from spinweb.statesum import ZeroGenerator, dim_v3, full_report

FIXTURES = ("schlafli", "higman_sims", "mclaughlin")
SEED = 2


def corpus():
    """Yield (label, graph or tournament) in a fixed order."""
    rng = random.Random(SEED)
    for n in range(1, 7):
        for i, g in enumerate(iter_all_regular_labeled_graphs(n)):
            yield f"regular:{n}#{i}", g
    regular7 = list(iter_all_regular_labeled_graphs(7))
    for i in sorted(rng.sample(range(len(regular7)), 300)):
        yield f"regular:7#{i}", regular7[i]
    irregular = 0
    while irregular < 200:
        n = rng.randint(4, 8)
        index = rng.getrandbits(n * (n - 1) // 2)
        g = graph_from_index(n, index)
        if len(set(g.degrees())) > 1:
            irregular += 1
            yield f"graph:{n}#{index}", g
    for n in range(1, 5):
        for index in range(1 << (n * (n - 1) // 2)):
            yield f"tournament:{n}#{index}", tournament_from_index(n, index)
    for _ in range(100):
        index = rng.getrandbits(10)
        yield f"tournament:5#{index}", tournament_from_index(5, index)
    for n in (7, 9):
        for i, t in enumerate(iter_circulant_tournaments(n)):
            yield f"circulant:{n}#{i}", t
    for name in FIXTURES:
        yield name, parse_graph6((ROOT / "fixtures" / f"{name}.g6").read_bytes())


def record(label: str, obj) -> dict:
    report = full_report(obj)
    try:
        dim = dim_v3(obj)
    except ZeroGenerator as exc:
        dim = f"ZeroGenerator: {exc}"
    verdict = (classify_tournament(obj) if isinstance(obj, Tournament)
               else classify_symmetric(obj))
    return {
        "input": label, "n": obj.n, "directed": report.directed,
        "is_spin_model": report.is_spin_model,
        "relations": {
            rel: {
                "holds": check.holds,
                "coefficients": (None if check.coefficients is None else
                                 {k: str(v) for k, v in check.coefficients.items()}),
                "witness": (None if check.witness is None else {
                    "site": list(check.witness.site),
                    "lhs": str(check.witness.lhs), "rhs": str(check.witness.rhs),
                    "detail": check.witness.detail}),
            } for rel, check in report.checks()},
        "dim_v3": dim,
        "classify": {
            "is_spin_model": verdict.is_spin_model, "case": verdict.case.value,
            "applied_to": verdict.applied_to.value if verdict.applied_to else None,
            "family": (None if verdict.family is None else
                       [verdict.family.kind.value, list(verdict.family.dims),
                        verdict.family.untabulated]),
            "reason": verdict.reason, "q_value": verdict.q_value},
    }


def main() -> int:
    for label, obj in corpus():
        print(json.dumps(record(label, obj)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
