"""Regularity, strong regularity, 3-point regularity, and freeness.

Parameter conventions: a class with no pair (or triple) of the relevant
kind reports value 0 with its vacuity flag set, mirroring the usual habit
of writing srg(3,2,1,0) for the triangle while keeping vacuity detectable.

Common-neighbor counts are bitset ANDs plus popcounts.  The one triple
scan, ``three_point_params``, is a pure-Python O(n^3 * n/w) loop over the
C(n, 3) distinct triples of the graph; the complement's parameters are
derived from the graph's by inclusion-exclusion
(``complement_three_point_params``), so the classifier scans once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph, TripleType


class VacuousParameter(ValueError):
    """A formula was asked to use a parameter whose class is empty."""


@dataclass(frozen=True)
class SrgParams:
    n: int
    k: int
    lam: int
    mu: int
    lam_vacuous: bool = False
    mu_vacuous: bool = False

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.k, self.lam, self.mu)


@dataclass(frozen=True)
class ThreePointParams:
    """Common-neighbor counts q3..q0 for triangle, lambda, anti-lambda,
    anti-triangle triples, with per-type vacuity flags."""

    srg: SrgParams
    q3: int
    q2: int
    q1: int
    q0: int
    q3_vacuous: bool = False
    q2_vacuous: bool = False
    q1_vacuous: bool = False
    q0_vacuous: bool = False

    def q_vector(self) -> tuple[int, int, int, int]:
        return (self.q3, self.q2, self.q1, self.q0)

    def any_vacuous(self) -> bool:
        return self.q3_vacuous or self.q2_vacuous or self.q1_vacuous or self.q0_vacuous


@dataclass(frozen=True)
class Freeness:
    triangle_free: bool
    lambda_free: bool
    anti_lambda_free: bool
    anti_triangle_free: bool

    def none_free(self) -> bool:
        return not (self.triangle_free or self.lambda_free
                    or self.anti_lambda_free or self.anti_triangle_free)


def regularity(g: Graph) -> int | None:
    """Common degree k if every vertex has it, else None."""
    k = g.adj[0].bit_count()
    for row in g.adj:
        if row.bit_count() != k:
            return None
    return k


def srg_params(g: Graph) -> SrgParams | None:
    """Strong-regularity parameters, or None if counts are not constant."""
    k = regularity(g)
    if k is None:
        return None
    lam = mu = None
    for a in range(g.n):
        row_a = g.adj[a]
        for b in range(a + 1, g.n):
            common = (row_a & g.adj[b]).bit_count()
            if (row_a >> b) & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    return SrgParams(
        n=g.n, k=k,
        lam=0 if lam is None else lam,
        mu=0 if mu is None else mu,
        lam_vacuous=lam is None,
        mu_vacuous=mu is None,
    )


def three_point_params(g: Graph, srg: SrgParams | None = None) -> ThreePointParams | None:
    """3-point-regularity parameters over distinct triples, or None.

    Returns a value only when the graph is already strongly regular and the
    common-neighbor count of every distinct triple depends only on its
    induced type.  ``srg`` is g's ``srg_params`` when the caller already
    has them.
    """
    if srg is None:
        srg = srg_params(g)
    if srg is None:
        return None
    counts: list[int | None] = [None, None, None, None]  # index = edge count
    for a, b, c in combinations(range(g.n), 3):
        edges = (((g.adj[a] >> b) & 1) + ((g.adj[b] >> c) & 1) + ((g.adj[a] >> c) & 1))
        common = (g.adj[a] & g.adj[b] & g.adj[c]).bit_count()
        if counts[edges] is None:
            counts[edges] = common
        elif counts[edges] != common:
            return None
    return ThreePointParams(
        srg=srg,
        q3=counts[3] or 0, q2=counts[2] or 0, q1=counts[1] or 0, q0=counts[0] or 0,
        q3_vacuous=counts[3] is None, q2_vacuous=counts[2] is None,
        q1_vacuous=counts[1] is None, q0_vacuous=counts[0] is None,
    )


def complement_srg_params(p: SrgParams) -> SrgParams:
    """srg_params of the complement, from the graph's own parameters.

    Adjacent pairs of the complement are the non-adjacent pairs of the
    graph, so the vacuity flags swap; a vacuous class reports 0.
    """
    n, k = p.n, p.k
    return SrgParams(
        n=n, k=n - 1 - k,
        lam=0 if p.mu_vacuous else n - 2 - 2 * k + p.mu,
        mu=0 if p.lam_vacuous else n - 2 * k + p.lam,
        lam_vacuous=p.mu_vacuous, mu_vacuous=p.lam_vacuous)


def complement_three_point_params(p: ThreePointParams) -> ThreePointParams:
    """three_point_params of the complement, from the graph's own parameters.

    A triple with e edges has 3 - e edges in the complement, and its common
    neighbors there are the vertices outside it adjacent in the graph to
    none of the three.  By inclusion-exclusion over the three neighborhoods,
    with p_e = (0, 0, 1, 3) triple vertices adjacent to both others,

        q'_(3-e) = (n - 3) - (3k - 2e) + (e*lam + (3-e)*mu - p_e) - q_e.

    A type occurs in the complement iff its mirror occurs in the graph, so
    the vacuity flags carry over, and where a type occurs the lam and mu it
    uses are not vacuous.
    """
    s = p.srg
    q = p.q_vector()[::-1]                                  # index = edge count
    vacuous = (p.q0_vacuous, p.q1_vacuous, p.q2_vacuous, p.q3_vacuous)
    mirrored = [0 if vacuous[e] else
                (s.n - 3) - (3 * s.k - 2 * e)
                + (e * s.lam + (3 - e) * s.mu - (0, 0, 1, 3)[e]) - q[e]
                for e in range(4)]
    return ThreePointParams(
        srg=complement_srg_params(s),
        q3=mirrored[0], q2=mirrored[1], q1=mirrored[2], q0=mirrored[3],
        q3_vacuous=vacuous[0], q2_vacuous=vacuous[1],
        q1_vacuous=vacuous[2], q0_vacuous=vacuous[3])


def freeness(g: Graph) -> Freeness:
    """Which of the four induced triple types never occur."""
    present = [False, False, False, False]
    for a, b, c in combinations(range(g.n), 3):
        edges = (((g.adj[a] >> b) & 1) + ((g.adj[b] >> c) & 1) + ((g.adj[a] >> c) & 1))
        present[edges] = True
    return Freeness(
        triangle_free=not present[TripleType.TRIANGLE.value],
        lambda_free=not present[TripleType.LAMBDA.value],
        anti_lambda_free=not present[TripleType.ANTI_LAMBDA.value],
        anti_triangle_free=not present[TripleType.ANTI_TRIANGLE.value],
    )


def q_condition(p: ThreePointParams) -> int:
    """q3 - 3*q2 + 3*q1 - q0.  Only defined when all four types occur."""
    if p.any_vacuous():
        raise VacuousParameter(
            "q-condition needs all four triple types present; "
            f"vacuous flags: q3={p.q3_vacuous} q2={p.q2_vacuous} "
            f"q1={p.q1_vacuous} q0={p.q0_vacuous}")
    return p.q3 - 3 * p.q2 + 3 * p.q1 - p.q0
