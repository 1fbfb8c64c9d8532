"""Spin-model classification for graphs and tournaments.

Closed-form verdicts (spinweb.classifier) against an exact state-sum
oracle (spinweb.statesum), with graph types and generators, graph6 I/O,
regularity parameter extraction, and exhaustive census tooling.
"""

from .classifier import (Family, FamilyKind, Verdict, VerdictCase,
                         classify_symmetric, classify_tournament,
                         is_regular_tournament)
from .graph6 import parse_graph6, write_graph6
from .graphs import (Graph, Tournament, circulant_tournament, clebsch,
                     complement, complete, cycle, paley, petersen,
                     union_complete)
from .regularity import (SrgParams, ThreePointParams, q_condition, regularity,
                         srg_params, three_point_params)
from .statesum import (RelationReport, check_1b, check_2b, dim_v3,
                       full_report, spin_model_verdict)

__version__ = "0.1.0"

__all__ = [
    "Family", "FamilyKind", "Graph", "RelationReport", "SrgParams",
    "ThreePointParams", "Tournament", "Verdict", "VerdictCase", "check_1b",
    "check_2b", "circulant_tournament", "classify_symmetric",
    "classify_tournament", "clebsch", "complement", "complete", "cycle",
    "dim_v3", "full_report", "is_regular_tournament", "paley", "parse_graph6",
    "petersen", "q_condition", "regularity", "spin_model_verdict",
    "srg_params", "three_point_params", "union_complete", "write_graph6",
]
