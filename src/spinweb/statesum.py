"""Brute-force state-sum verification of the Yang-Baxter box relations.

The 2-box generator is the 0/1 weight matrix C_P (graph adjacency, or the
arc matrix of a tournament).  Together with One (all ones), Delta (equality)
and Q (the remaining class: complement adjacency, or the reversed arcs) it
induces two families of functions on ordered vertex triples:

    D[g1,g2,g3](a,b,c) = g1(a,b) * g2(b,c) * g3(c,a)
    S[g1,g2,g3](a,b,c) = sum_x g1(a,x) * g2(b,x) * g3(c,x)

Each box relation then becomes an exact question over the rationals:

    1b: the row sums of C_P (and, directed, the column sums) are constant;
    2b: (a,b) -> sum_x C_P(a,x) C_P(b,x) lies in span{Delta, P, Q};
    3a: S[P,P,P] lies in the span of the D family;
    3b: D[P,P,P] lies in the span of the S family;

and dim V3 is the rank of the combined D and S families as vectors in the
n^3-dimensional function space.

In the undirected case the spanning alphabet is {One, Delta, P}: both
families are multilinear in their slots and Q = One - Delta - P pointwise,
so adding Q never enlarges a span.  In the directed case Q is the
transpose of P, which is not a pointwise combination of the others, so the
alphabet is {One, Delta, P, Q} there.

Rows of every linear system are deduplicated before elimination; duplicate
equations cannot change span membership or rank, and on the structured
graphs met in practice n^3 rows collapse to a few dozen.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .graphs import Graph, Tournament
from .linalg import matrix_rank, solve_membership

ONE = "One"
DELTA = "Delta"
P = "P"
Q = "Q"

UNDIRECTED_ALPHABET = (ONE, DELTA, P)
DIRECTED_ALPHABET = (ONE, DELTA, P, Q)


class ZeroGenerator(ValueError):
    """dim V3 is undefined when C_P = 0 (the generator maps to zero)."""


@dataclass(frozen=True)
class PairFunctions:
    """The four 0/1 pair functions of one graph or tournament, as bitset rows.

    ``rows[sym][u]`` has bit x set iff sym(u, x) = 1.
    """

    n: int
    directed: bool
    rows: dict[str, tuple[int, ...]]

    @classmethod
    def from_graph(cls, g: Graph) -> "PairFunctions":
        full = (1 << g.n) - 1
        return cls(n=g.n, directed=False, rows={
            ONE: tuple(full for _ in range(g.n)),
            DELTA: tuple(1 << u for u in range(g.n)),
            P: g.adj,
            Q: tuple(full & ~(1 << u) & ~g.adj[u] for u in range(g.n)),
        })

    @classmethod
    def from_tournament(cls, t: Tournament) -> "PairFunctions":
        full = (1 << t.n) - 1
        transpose = tuple(
            sum(((t.arc[x] >> u) & 1) << x for x in range(t.n)) for u in range(t.n))
        return cls(n=t.n, directed=True, rows={
            ONE: tuple(full for _ in range(t.n)),
            DELTA: tuple(1 << u for u in range(t.n)),
            P: t.arc,
            Q: transpose,
        })

    def value(self, sym: str, u: int, v: int) -> int:
        return (self.rows[sym][u] >> v) & 1

    def alphabet(self) -> tuple[str, ...]:
        return DIRECTED_ALPHABET if self.directed else UNDIRECTED_ALPHABET

    def partition_identity_holds(self) -> bool:
        """One = Delta + P + Q pointwise."""
        return all(
            1 == self.value(DELTA, u, v) + self.value(P, u, v) + self.value(Q, u, v)
            for u in range(self.n) for v in range(self.n))


def _pair_functions(obj) -> PairFunctions:
    if isinstance(obj, PairFunctions):
        return obj
    if isinstance(obj, Tournament):
        return PairFunctions.from_tournament(obj)
    return PairFunctions.from_graph(obj)


def d_value(pf: PairFunctions, word, a: int, b: int, c: int) -> int:
    g1, g2, g3 = word
    return pf.value(g1, a, b) * pf.value(g2, b, c) * pf.value(g3, c, a)


def s_value(pf: PairFunctions, word, a: int, b: int, c: int) -> int:
    g1, g2, g3 = word
    return (pf.rows[g1][a] & pf.rows[g2][b] & pf.rows[g3][c]).bit_count()


def triple_words(pf: PairFunctions) -> list[tuple[str, str, str]]:
    return list(product(pf.alphabet(), repeat=3))


def word_label(family: str, word) -> str:
    return f"{family}[{','.join(word)}]"


@dataclass(frozen=True)
class Witness:
    """A concrete violation: the two sides of a relation at one site."""

    site: tuple[int, ...]
    lhs: object
    rhs: object
    detail: str


@dataclass(frozen=True)
class RelationCheck:
    holds: bool
    coefficients: dict[str, Fraction] | None = None
    witness: Witness | None = None


@dataclass(frozen=True)
class RelationReport:
    n: int
    directed: bool
    r1b: RelationCheck
    r2b: RelationCheck
    r3a: RelationCheck
    r3b: RelationCheck
    nonsymmetric_premise: bool = True

    def checks(self) -> tuple[tuple[str, RelationCheck], ...]:
        """(relation name, check) pairs in the order 1b, 2b, 3a, 3b."""
        return (("1b", self.r1b), ("2b", self.r2b), ("3a", self.r3a), ("3b", self.r3b))

    def booleans(self) -> tuple[bool, bool, bool, bool]:
        return tuple(check.holds for _, check in self.checks())

    @property
    def is_spin_model(self) -> bool:
        return all(self.booleans()) and self.nonsymmetric_premise


def check_1b(obj) -> RelationCheck:
    """Relation 1b: constant row sums of C_P (directed also column sums)."""
    pf = _pair_functions(obj)
    out = [pf.rows[P][a].bit_count() for a in range(pf.n)]
    k = out[0]
    for a, deg in enumerate(out):
        if deg != k:
            return RelationCheck(False, witness=Witness(
                site=(0, a), lhs=k, rhs=deg,
                detail=f"row sums differ: vertex 0 has {k}, vertex {a} has {deg}"))
    if pf.directed:
        for a in range(pf.n):
            indeg = pf.rows[Q][a].bit_count()
            if indeg != k:
                return RelationCheck(False, witness=Witness(
                    site=(a,), lhs=k, rhs=indeg,
                    detail=f"column sum at vertex {a} is {indeg}, row sums are {k}"))
    return RelationCheck(True, coefficients={"k": Fraction(k)})


def _fit_or_witness(equations):
    """Solve sum_j c_j * row[j] = target over (row, target, site) equations.

    Duplicate equations are dropped first, keeping the first site, and the
    rest are eliminated once.  Returns (coefficients, None) when the system
    is consistent; otherwise (None, (site, target, fitted)) for the first
    equation, in that order, that the fit of the largest consistent
    subsystem misses.
    """
    dedup: dict[tuple, tuple] = {}
    for row, target, site in equations:
        dedup.setdefault(row + (target,), (row, target, site))
    entries = list(dedup.values())
    fit, consistent = solve_membership([row for row, _, _ in entries],
                                       [target for _, target, _ in entries])
    if consistent:
        return fit, None
    for row, target, site in entries:
        fitted = sum(f * v for f, v in zip(fit, row))
        if fitted != target:
            return None, (site, target, fitted)
    raise AssertionError("inconsistent system without a pointwise witness")


def check_2b(obj) -> RelationCheck:
    """Relation 2b: sum_x C_P(a,x) C_P(b,x) in span{Delta, P, Q}."""
    pf = _pair_functions(obj)
    solution, miss = _fit_or_witness(
        ((pf.value(DELTA, a, b), pf.value(P, a, b), pf.value(Q, a, b)),
         (pf.rows[P][a] & pf.rows[P][b]).bit_count(), (a, b))
        for a in range(pf.n) for b in range(pf.n))
    if miss is not None:
        site, target, fitted = miss
        return RelationCheck(False, witness=Witness(
            site=site, lhs=target, rhs=fitted,
            detail=(f"pair {site}: common-neighbor count {target} vs "
                    f"{fitted} from coefficients fitted elsewhere")))
    kp, lam, mu = solution
    return RelationCheck(True, coefficients={"k": kp, "lambda": lam, "mu": mu})


def _representative_triples(pf: PairFunctions) -> list[tuple[int, int, int]]:
    """One ordered triple per distinct evaluation profile.

    The profile (pair classes, degrees, pairwise intersection counts, and
    the 3-way intersection counts) determines every D- and S-family value
    of a triple, so span membership and ranks computed on representatives
    agree with the full n^3 systems while touching far fewer rows.
    """
    cached = getattr(pf, "_triple_reps", None)
    if cached is not None:
        return cached
    n = pf.n
    rows_p, rows_q = pf.rows[P], pf.rows[Q]

    def pair_class(u, v):
        if u == v:
            return 0
        return 1 if (rows_p[u] >> v) & 1 else 2

    classes = [[pair_class(u, v) for v in range(n)] for u in range(n)]
    reps: dict[tuple, tuple[int, int, int]] = {}
    if not pf.directed:
        deg = [row.bit_count() for row in rows_p]
        common = [[(rows_p[u] & rows_p[v]).bit_count() for v in range(n)]
                  for u in range(n)]
        for a in range(n):
            ca, pa, ra = classes[a], common[a], rows_p[a]
            for b in range(n):
                cb, pb = classes[b], common[b]
                rab = ra & rows_p[b]
                for c in range(n):
                    key = (ca[b], cb[c], ca[c], deg[a], deg[b], deg[c],
                           pa[b], pb[c], pa[c], (rab & rows_p[c]).bit_count())
                    if key not in reps:
                        reps[key] = (a, b, c)
    else:
        degs = ([row.bit_count() for row in rows_p],
                [row.bit_count() for row in rows_q])
        tabs = {}
        for gi, grows in ((0, rows_p), (1, rows_q)):
            for hi, hrows in ((0, rows_p), (1, rows_q)):
                tabs[gi, hi] = [[(grows[u] & hrows[v]).bit_count()
                                 for v in range(n)] for u in range(n)]
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    pair_part = tuple(tabs[g, h][u][v]
                                      for g in (0, 1) for h in (0, 1)
                                      for u, v in ((a, b), (a, c), (b, c)))
                    pop3 = tuple(
                        (g1[a] & g2[b] & g3[c]).bit_count()
                        for g1 in (rows_p, rows_q)
                        for g2 in (rows_p, rows_q)
                        for g3 in (rows_p, rows_q))
                    key = (classes[a][b], classes[b][c], classes[a][c],
                           degs[0][a], degs[0][b], degs[0][c],
                           degs[1][a], degs[1][b], degs[1][c],
                           pair_part, pop3)
                    if key not in reps:
                        reps[key] = (a, b, c)
    result = list(reps.values())
    object.__setattr__(pf, "_triple_reps", result)  # frozen dataclass memo
    return result


def _span_check(pf: PairFunctions, span_family: str, target_family: str) -> RelationCheck:
    words = triple_words(pf)
    span_eval = d_value if span_family == "D" else s_value
    target_eval = s_value if span_family == "D" else d_value
    target_word = (P, P, P)
    solution, miss = _fit_or_witness(
        (tuple(span_eval(pf, w, a, b, c) for w in words),
         target_eval(pf, target_word, a, b, c), (a, b, c))
        for a, b, c in _representative_triples(pf))
    if miss is not None:
        site, target, fitted = miss
        lhs_label = word_label(target_family, target_word)
        return RelationCheck(False, witness=Witness(
            site=site, lhs=target, rhs=fitted,
            detail=(f"triple {site}: {lhs_label} = {target} vs "
                    f"{fitted} from coefficients fitted elsewhere")))
    coeffs = {word_label(span_family, w): v
              for w, v in zip(words, solution) if v != 0}
    return RelationCheck(True, coefficients=coeffs)


def check_3a(obj) -> RelationCheck:
    """Relation 3a: S[P,P,P] in the rational span of the D family."""
    return _span_check(_pair_functions(obj), "D", "S")


def check_3b(obj) -> RelationCheck:
    """Relation 3b: D[P,P,P] in the rational span of the S family."""
    return _span_check(_pair_functions(obj), "S", "D")


def dim_v3(obj) -> int:
    """Rank of the combined D and S families in the n^3 function space.

    With a nonzero generator this equals the dimension of the 3-box space
    of the planar algebra the graph gives a spin model for; the two
    families realize the 16 spanning diagrams of that space.
    """
    pf = _pair_functions(obj)
    if not any(pf.rows[P]):
        raise ZeroGenerator("edgeless input: C_P = 0 and the rank is not dim V3")
    words = triple_words(pf)
    seen = set()
    rows = []
    for a, b, c in _representative_triples(pf):
        row = tuple(d_value(pf, w, a, b, c) for w in words) + \
              tuple(s_value(pf, w, a, b, c) for w in words)
        if row not in seen:
            seen.add(row)
            rows.append(row)
    return matrix_rank(rows)


def full_report(obj) -> RelationReport:
    """Run the four relation checks on a Graph or Tournament.

    The overall verdict requires all four relations plus, in the directed
    case, at least one arc: a tournament with C_P symmetric (only possible
    with no arcs at all) cannot carry a *non-symmetric* spin model because
    its generator and the rotated generator coincide.
    """
    pf = _pair_functions(obj)
    premise = True
    if pf.directed:
        premise = any(pf.rows[P])
    return RelationReport(
        n=pf.n, directed=pf.directed,
        r1b=check_1b(pf), r2b=check_2b(pf),
        r3a=check_3a(pf), r3b=check_3b(pf),
        nonsymmetric_premise=premise)


def spin_model_verdict(obj) -> bool:
    """The oracle's overall verdict, short-circuiting cheap checks first.

    Equivalent to ``full_report(obj).is_spin_model`` but skips the span
    systems when an earlier relation already fails, which is what makes
    census-scale scans affordable.
    """
    pf = _pair_functions(obj)
    if pf.directed and not any(pf.rows[P]):
        return False
    return (check_1b(pf).holds and check_2b(pf).holds
            and check_3a(pf).holds and check_3b(pf).holds)

