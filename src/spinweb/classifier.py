"""Closed-form spin-model classification.

A graph gives a symmetric spin model iff, up to complementation, it is
(i) the pentagon, (ii) a disjoint union of equal-size complete graphs, or
(iii) 3-point regular with q3 - 3*q2 + 3*q1 - q0 != 0.  All three need a
strongly regular graph, so a graph that is not one is rejected first.
Cases are then tested in that order and the first match is recorded; the
union case is tried on the graph and then on its complement, and ties (K3
is both complete and a triangle) resolve to it.

Cases (i) and (ii) are facts about the srg parameters, so no second graph
is built.  The pentagon is srg(5, 2, 0, 1), the only 2-regular graph on 5
vertices, and it is its own complement, so the graph's parameters decide
it.  A strongly regular graph with mu = 0 (no two non-adjacent vertices
share a neighbour), or with no non-adjacent pair at all, is a disjoint
union of K_(k+1); the complement's parameters, and its 3-point
parameters, come from the graph's by inclusion-exclusion, so the triple
scan runs once.

Case (iii) is decided in one pass.  Once the unions are excluded, one- and
two-edge triples both occur: a graph without two-edge triples is a union
of completes, and so is the complement of one without one-edge triples.
When all four triple types occur, the graph's own q-condition decides (a
graph where it is 0 is a Smith graph).  Otherwise only triangles or only
anti-triangles are missing, and the triangle-free side decides: the graph,
or else its complement, whose 3-point parameters are then derived from the
graph's.  A 3-point regular graph that is triangle-free but not
lambda-free forces q2 = q1 = 0 with q3 vacuous; its degree k is at least 3
once the pentagon and the unions are excluded, and then q0 > 0, so the
condition holds with value -q0.

A tournament gives a (non-symmetric) spin model iff it is the 3-cycle.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .graphs import Graph, Tournament
from .regularity import (complement_srg_params, complement_three_point_params,
                         q_condition, srg_params, three_point_params)


class VerdictCase(enum.Enum):
    PENTAGON = "pentagon"
    UNION_OF_COMPLETES = "union of completes"
    Q_CONDITION_HOLDS = "q-condition holds"
    THREE_CYCLE = "3-cycle"
    NOT_SPIN_MODEL = "not a spin model"


class AppliedTo(enum.Enum):
    GRAPH = "graph"
    COMPLEMENT = "complement"


class FamilyKind(enum.Enum):
    TLJ = "TLJ"
    BISCH_JONES = "Bisch-Jones"
    KAUFFMAN = "Kauffman"


class Family(NamedTuple):
    """Planar-algebra family plus the predicted dim V3.

    ``dims`` lists the possible values: one entry when the table pins it,
    the pair (14, 15) for a generic Kauffman graph, and empty with
    ``untabulated`` set for the mK_2, m > 2 cell the table omits (there the
    exact value is delegated to the oracle's rank computation).
    """

    kind: FamilyKind
    dims: tuple[int, ...]
    untabulated: bool = False


class Verdict(NamedTuple):
    is_spin_model: bool
    case: VerdictCase
    applied_to: AppliedTo | None
    family: Family | None
    reason: str
    q_value: int | None = None


# The two rejects that the census meets on nearly every object it checks.
# An immutable Verdict can be shared, so each is built once.
_NOT_SRG = Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None, "not strongly regular")
_NOT_REGULAR_TOURNAMENT = Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None,
                                  "not a regular tournament")


def _family_for_union(m: int, size: int) -> Family:
    if m == 1 or size == 1:
        return Family(FamilyKind.TLJ, (5,))
    if m == 2:
        return Family(FamilyKind.BISCH_JONES, (10,) if size == 2 else (11,))
    if size == 2:
        return Family(FamilyKind.BISCH_JONES, (), untabulated=True)
    return Family(FamilyKind.BISCH_JONES, (12,))


def classify_symmetric(g: Graph) -> Verdict:
    """Decide the symmetric spin-model question for a graph.

    Strongly regular first, then the pentagon, the union case on the graph
    and then on its complement, 3-point regularity, and last case (iii) in
    one pass, on the graph or on its triangle-free complement.
    """
    # every case needs a strongly regular graph: the pentagon, unions of
    # equal completes and their complements, and 3-point regular graphs
    srg = srg_params(g)
    if srg is None:
        return _NOT_SRG
    # the 5-cycle is the only 2-regular graph on 5 vertices, and self-complementary
    if srg.n == 5 and srg.k == 2:
        return Verdict(True, VerdictCase.PENTAGON, AppliedTo.GRAPH,
                       Family(FamilyKind.KAUFFMAN, (13,)),
                       "graph is the pentagon")

    sides = ((AppliedTo.GRAPH, srg), (AppliedTo.COMPLEMENT, complement_srg_params(srg)))
    for tag, side in sides:
        # no two non-adjacent vertices share a neighbour: every component is K_(k+1)
        if side.mu_vacuous or side.mu == 0:
            size = side.k + 1
            m = side.n // size
            return Verdict(True, VerdictCase.UNION_OF_COMPLETES, tag,
                           _family_for_union(m, size),
                           f"{tag.value} is {m} disjoint K_{size}")

    params = three_point_params(g, srg)
    if params is None:
        return Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None,
                       "strongly regular but not 3-point regular")

    # A vacuity flag is set exactly when no triple of that type occurs.  One-
    # and two-edge triples both occur here (without either, the graph or its
    # complement is a union of completes, returned above), so only q3 or q0
    # can be vacuous, and then the triangle-free side decides.
    tag, p = AppliedTo.GRAPH, params
    if not params.any_vacuous():
        value = q_condition(params)
        if value == 0:
            return Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None,
                           "Smith graph: 3-point regular with q-condition 0",
                           q_value=0)
        reason = f"3-point regular with q-condition {value} != 0 on the graph"
    else:
        if not params.q3_vacuous:
            tag, p = AppliedTo.COMPLEMENT, complement_three_point_params(params)
        # pentagon (k = 2) was already caught; k <= 1 would be lambda-free
        k = p.srg.k
        assert k >= 3, "triangle-free non-lambda-free srg with k <= 2 escaped"
        assert not p.q0_vacuous, "triangle-free with k >= 3 forces anti-triangles"
        value = -p.q0
        reason = (f"{tag.value} is triangle-free, not lambda-free, "
                  f"k = {k} >= 3, so the q-condition holds with value {value}")
    return Verdict(True, VerdictCase.Q_CONDITION_HOLDS, tag,
                   Family(FamilyKind.KAUFFMAN, (14, 15)), reason, q_value=value)


def is_regular_tournament(t: Tournament) -> int | None:
    """k = (n-1)/2 when all in- and out-degrees agree, else None.

    Only the out-degrees are read: a tournament whose out-degrees are all
    k has nk = C(n, 2) arcs, so k = (n - 1)/2 and every in-degree is
    n - 1 - k = k.
    """
    k = t.arc[0].bit_count()
    for row in t.arc:
        if row.bit_count() != k:
            return None
    return k


def classify_tournament(t: Tournament) -> Verdict:
    """Decide the non-symmetric spin-model question for a tournament."""
    k = is_regular_tournament(t)
    if k is None:
        return _NOT_REGULAR_TOURNAMENT
    if k == 0:
        return Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None,
                       "single vertex: the generator is zero, hence symmetric")
    if k == 1:
        return Verdict(True, VerdictCase.THREE_CYCLE, AppliedTo.GRAPH,
                       Family(FamilyKind.BISCH_JONES, (9,)),
                       "the 3-cycle")
    return Verdict(False, VerdictCase.NOT_SPIN_MODEL, None, None,
                   f"regular tournament with k = {k} >= 2: "
                   "the Relation 3b system is inconsistent")
