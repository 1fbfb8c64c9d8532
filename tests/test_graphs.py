import random
from itertools import combinations, permutations

import numpy as np
import pytest

from spinweb import graphs
from spinweb.graphs import (MAX_ORDER, BadOrder, Graph, Tournament, circulant_tournament,
                            clebsch, complement, complete, cycle, graphs_from_words,
                            matrix_stride, paley, petersen, union_complete)
from tests.conftest import (connected_components, edge_count, edges, has_arc, has_edge,
                            in_degree, out_degree, reference_graph_rows, transpose_rows)


def isomorphic(g: Graph, h: Graph) -> bool:
    """Brute-force isomorphism check, fine for n <= 8."""
    if g.n != h.n or sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return any(
        all(has_edge(g, a, b) == has_edge(h, perm[a], perm[b])
            for a in range(g.n) for b in range(a + 1, g.n))
        for perm in permutations(range(g.n)))


def random_graph(rng, n):
    return Graph.from_edges(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                                if rng.random() < 0.5])


def reference_validate_graph(n, rows):
    """The row-by-row, pair-by-pair check that packed validation replaced."""
    if not 1 <= n <= 511:
        raise ValueError(f"graph needs 1 to 511 vertices, got {n}")
    if len(rows) != n:
        raise ValueError("adjacency row count != n")
    mask = (1 << n) - 1
    for a, row in enumerate(rows):
        if row & ~mask:
            raise ValueError(f"row {a} has bits outside 0..n-1")
        if (row >> a) & 1:
            raise ValueError(f"loop at vertex {a}")
    for a in range(n):
        for b in range(a + 1, n):
            if ((rows[a] >> b) & 1) != ((rows[b] >> a) & 1):
                raise ValueError(f"asymmetric adjacency at ({a},{b})")


def reference_validate_tournament(n, rows):
    if not 1 <= n <= 511:
        raise ValueError(f"tournament needs 1 to 511 vertices, got {n}")
    if len(rows) != n:
        raise ValueError("arc row count != n")
    mask = (1 << n) - 1
    for a, row in enumerate(rows):
        if row & ~mask:
            raise ValueError(f"row {a} has bits outside 0..n-1")
        if (row >> a) & 1:
            raise ValueError(f"loop at vertex {a}")
    for a in range(n):
        for b in range(a + 1, n):
            fwd = (rows[a] >> b) & 1
            bwd = (rows[b] >> a) & 1
            if fwd + bwd != 1:
                raise ValueError(f"pair ({a},{b}) must carry exactly one arc")


# 1, 2: tiny; 7, 8, 9: the census sizes around stride 8 -> 16; then both
# sides of every stride from 16 to 256
VALIDATION_SIZES = (1, 2, 7, 8, 9, 16, 17, 63, 64, 65, 100, 129)


def random_tournament_rows(rng, n):
    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                rows[a] |= 1 << b
            else:
                rows[b] |= 1 << a
    return rows


def corrupt(rng, rows, n, kind):
    """Rows with one or two faults of the given kind, at random places."""
    rows = list(rows)
    a, b = rng.randrange(n), rng.randrange(n)
    stride = matrix_stride(n)
    if kind == "outside":
        rows[a] |= 1 << rng.randrange(n, n + 2 * stride)    # inside and past the stride
    elif kind == "negative":
        rows[a] = -1 - rows[a] if rng.random() < 0.5 else -(1 << rng.randrange(2 * n))
    elif kind == "loop":
        rows[a] |= 1 << a
    elif kind == "loop_then_outside":
        first, second = min(a, b), max(a, b)
        rows[first] |= 1 << first
        rows[second] |= 1 << rng.randrange(n, n + 2 * stride)
    elif kind == "flip" and n > 1:
        while b == a:
            b = rng.randrange(n)
        rows[a] ^= 1 << b                   # one direction of a pair
        if rng.random() < 0.5:
            c, d = rng.sample(range(n), 2) if n > 2 else (b, a)
            rows[c] ^= 1 << d
    return tuple(rows)


def validation_message(make, n, rows):
    try:
        make(n, rows)
    except ValueError as exc:
        return str(exc)
    return None


class TestPackedValidation:
    """Packed-matrix validation raises exactly what the pair-by-pair scan raised."""

    KINDS = ("none", "outside", "negative", "loop", "loop_then_outside", "flip")

    @pytest.mark.parametrize("n", VALIDATION_SIZES)
    def test_graph_messages_match_reference(self, n):
        rng = random.Random(700 + n)
        rejected = 0
        for _ in range(12):
            base = random_graph(rng, n).adj
            for kind in self.KINDS:
                rows = corrupt(rng, base, n, kind)
                want = validation_message(reference_validate_graph, n, rows)
                assert validation_message(Graph, n, rows) == want, (kind, rows)
                rejected += want is not None
        assert rejected >= 12 * (len(self.KINDS) - 2)

    @pytest.mark.parametrize("n", VALIDATION_SIZES)
    def test_tournament_messages_match_reference(self, n):
        rng = random.Random(800 + n)
        rejected = 0
        for _ in range(12):
            base = random_tournament_rows(rng, n)
            for kind in self.KINDS:
                rows = corrupt(rng, base, n, kind)
                want = validation_message(reference_validate_tournament, n, rows)
                assert validation_message(Tournament, n, rows) == want, (kind, rows)
                rejected += want is not None
            # a graph's rows are a tournament only for n = 1; a tournament's
            # are a graph only then too
            symmetric = random_graph(rng, n).adj
            assert validation_message(Tournament, n, symmetric) == \
                validation_message(reference_validate_tournament, n, symmetric)
            assert validation_message(Graph, n, tuple(base)) == \
                validation_message(reference_validate_graph, n, tuple(base))
        assert rejected >= 12 * (len(self.KINDS) - 2)

    def test_loop_in_an_earlier_row_wins_over_outside_bits(self):
        assert validation_message(Graph, 9, (1, 1 << 20) + (0,) * 7) == "loop at vertex 0"
        assert validation_message(Graph, 9, (1 << 20, 2) + (0,) * 7) == \
            "row 0 has bits outside 0..n-1"
        assert validation_message(Tournament, 3, (0, -1, 2)) == \
            "row 1 has bits outside 0..n-1"
        assert validation_message(Tournament, 3, (0, 2, 1 << 200)) == "loop at vertex 1"

    @pytest.mark.parametrize("n", VALIDATION_SIZES)
    def test_transpose_matches_naive(self, n):
        rng = random.Random(900 + n)
        for _ in range(4):
            rows = [rng.getrandbits(n) for _ in range(n)]
            naive = tuple(sum(((rows[x] >> v) & 1) << x for x in range(n)) for v in range(n))
            assert transpose_rows(rows, n) == naive
            assert transpose_rows(naive, n) == tuple(rows)

    @pytest.mark.parametrize("stride", [8 << e for e in range(7)])
    def test_swap_masks_match_their_definition(self, stride):
        """Step s = stride/2 .. 1 shifts by s * (stride - 1) and masks the
        cells (i, j) with bit s of i clear and bit s of j set; 512 is
        McLaughlin's stride, beyond every VALIDATION_SIZES order."""
        cells = [(i, j) for i in reversed(range(stride)) for j in reversed(range(stride))]
        steps = []
        s = stride // 2
        while s:
            bits = "".join("1" if not i & s and j & s else "0" for i, j in cells)
            steps.append((s * (stride - 1), int(bits, 2)))
            s //= 2
        assert graphs._swap_masks(stride) == tuple(steps)


def word_rows(n):
    """The rows of every graph index for n <= 5, and of windows of indices at n = 6-8."""
    top = (1 << (n * (n - 1) // 2)) - 1
    if n <= 5:
        indices = range(top + 1)
    else:
        first = random.Random(1000 + n).randrange(200, top - 400)
        indices = [*range(200), *range(first, first + 200), *range(top - 199, top + 1)]
    return [reference_graph_rows(n, index) for index in indices]


def packed_words(rows):
    """The stride-8 packed matrix of each row tuple: byte i is row i."""
    return np.array([sum(row << (8 * i) for i, row in enumerate(r)) for r in rows], "<u8")


def flipped_rows(rows, bit):
    rows = list(rows)
    rows[bit // 8] ^= 1 << (bit % 8)
    return tuple(rows)


class TestPackedWords:
    """The batch check of packed words agrees with the constructor on every word."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_valid_words_give_the_constructors_graphs(self, n):
        rows = word_rows(n)
        words = packed_words(rows)
        assert not graphs._bad_words(n, words).any()
        assert list(graphs_from_words(n, words)) == [Graph(n, r) for r in rows]
        # bytes n..7 are not rows, so their bits change nothing
        for bit in range(8 * n, 64):
            assert list(graphs_from_words(n, words ^ np.uint64(1 << bit))) == \
                [Graph(n, r) for r in rows]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_bit_flip_raises_the_constructors_message(self, n):
        rows = word_rows(n)
        words = packed_words(rows)
        rng = random.Random(1100 + n)
        for bit in range(8 * n):    # loops, asymmetric pairs and columns >= n of each row
            assert graphs._bad_words(n, words ^ np.uint64(1 << bit)).all()
            # the first of two bad words among good ones raises, after the good ones before it
            first = rng.randrange(len(words))
            later = rng.randrange(first, len(words))
            other = rng.choice([b for b in range(8 * n) if b != bit])
            mixed = words.copy()
            mixed[later] ^= np.uint64(1 << other)
            mixed[first] = words[first] ^ np.uint64(1 << bit)
            message = validation_message(Graph, n, flipped_rows(rows[first], bit))
            assert message is not None
            made = []
            with pytest.raises(ValueError) as caught:
                made.extend(graphs_from_words(n, mixed))
            assert str(caught.value) == message
            assert made == [Graph(n, r) for r in rows[:first]]

    @pytest.mark.parametrize("n", [0, 9])
    def test_words_hold_1_to_8_rows(self, n):
        with pytest.raises(ValueError, match=f"holds 1 to 8 rows, got n = {n}$"):
            graphs_from_words(n, np.zeros(1, "<u8"))


class TestGraphType:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError):
            Graph(2, (2, 0))

    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(1, (1,))

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(ValueError):
            Graph(0, ())

    def test_rows_from_a_list_stay_as_given(self):
        for make, given in ((Graph, [2, 1]), (Tournament, [2, 0])):
            rows = list(given)
            obj = make(2, rows)
            rows[0] = 0
            assert obj == make(2, tuple(given))
            assert hash(obj) == hash(make(2, tuple(given)))


class TestOrderLimit:
    """511 vertices is the largest order, refused at 512 before rows are built."""

    def test_limit_is_the_largest_order_of_one_word_keys(self):
        # a triple-profile key lies below I^3 (n + 1) for I <= n^2 pair ids
        assert MAX_ORDER == 511
        assert (511 ** 2) ** 3 * 512 <= 2 ** 63 < (512 ** 2) ** 3 * 513

    def test_constructors(self):
        assert Graph(511, (0,) * 511).n == 511
        assert Tournament(511, circulant_tournament(511, range(1, 256)).arc).n == 511
        for make, kind in ((Graph, "graph"), (Tournament, "tournament")):
            for n in (0, 512, 10 ** 6):
                # the order is refused before the rows are read
                assert validation_message(make, n, ()) == \
                    f"{kind} needs 1 to 511 vertices, got {n}"

    def test_generators(self):
        assert [g.n for g in (complete(511), union_complete(7, 73), union_complete(1, 511),
                              cycle(511), circulant_tournament(511, range(1, 256)))] == [511] * 5
        # 509 is the largest prime q = 1 (mod 4) below the limit
        assert set(paley(509).degrees()) == {254}
        too_large = [lambda: complete(512), lambda: union_complete(2, 256),
                     lambda: union_complete(512, 1), lambda: union_complete(10 ** 6, 10 ** 6),
                     lambda: cycle(512), lambda: cycle(200000), lambda: paley(512),
                     lambda: paley(521), lambda: paley(10 ** 18 + 9),
                     lambda: circulant_tournament(512, range(1, 256)),
                     lambda: circulant_tournament(513, range(1, 257))]
        for make in too_large:
            with pytest.raises(BadOrder, match="above the largest supported order 511"):
                make()


class TestComplement:
    def test_involution_on_random_graphs(self):
        rng = random.Random(1)
        for _ in range(200):
            g = random_graph(rng, rng.randint(1, 10))
            assert complement(complement(g)) == g

    def test_complement_k5_is_edgeless(self):
        assert edge_count(complement(complete(5))) == 0

    def test_c5_is_self_complementary(self):
        assert isomorphic(complement(cycle(5)), cycle(5))

    def test_complement_2k2_is_c4(self):
        got = complement(union_complete(2, 2))
        # 2K2 on vertices (0,1)(2,3); its complement is the 4-cycle 0-2-1-3
        assert sorted(edges(got)) == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert isomorphic(got, cycle(4))


class TestGenerators:
    def test_paley5_is_pentagon(self):
        assert paley(5) == cycle(5)

    def test_paley13(self):
        g = paley(13)
        assert g.n == 13 and all(d == 6 for d in g.degrees())

    def test_paley9_is_rook_graph(self):
        g = paley(9)
        assert g.n == 9 and all(d == 4 for d in g.degrees())

    def test_paley_rejects_bad_orders(self):
        for q in (2, 4, 7, 15, 21, 25):
            with pytest.raises(BadOrder):
                paley(q)

    def test_clebsch_order_and_degree(self):
        g = clebsch()
        assert g.n == 16 and all(d == 5 for d in g.degrees())

    def test_petersen_is_kneser52(self):
        g = petersen()
        assert g.n == 10 and all(d == 3 for d in g.degrees())
        # girth 5: no triangles by direct scan
        assert not any(
            has_edge(g, a, b) and has_edge(g, b, c) and has_edge(g, a, c)
            for a, b, c in combinations(range(10), 3))

    def test_union_complete_blocks(self):
        g = union_complete(3, 3)
        assert g.n == 9
        assert [sorted(c) for c in connected_components(g)] == \
            [[0, 1, 2], [3, 4, 5], [6, 7, 8]]

    def test_cycle_rejects_small(self):
        with pytest.raises(BadOrder):
            cycle(2)

    def test_circulant_tournament_3cycle(self):
        t = circulant_tournament(3, {1})
        assert has_arc(t, 0, 1) and has_arc(t, 1, 2) and has_arc(t, 2, 0)
        assert not has_arc(t, 1, 0)

    def test_circulant_tournament_invariant(self):
        for n, outset in [(3, {1}), (5, {1, 2}), (7, {1, 2, 4}), (9, {1, 2, 3, 4})]:
            t = circulant_tournament(n, outset)
            for a in range(n):
                for b in range(a + 1, n):
                    assert has_arc(t, a, b) + has_arc(t, b, a) == 1

    def test_circulant_tournament_rejections(self):
        with pytest.raises(BadOrder):
            circulant_tournament(4, {1, 2})
        with pytest.raises(BadOrder):
            circulant_tournament(5, {1, 4})
        with pytest.raises(BadOrder):
            circulant_tournament(5, {1})


class TestTournamentType:
    def test_rejects_missing_arc(self):
        with pytest.raises(ValueError):
            Tournament(2, (0, 0))

    def test_rejects_double_arc(self):
        with pytest.raises(ValueError):
            Tournament(2, (2, 1))

    def test_degrees(self):
        t = circulant_tournament(5, {1, 2})
        assert all(out_degree(t, a) == 2 and in_degree(t, a) == 2 for a in range(5))


class TestConnectivity:
    """The test-side ``connected_components`` that structural lemmas rely on."""

    def test_k4_connected(self):
        assert connected_components(complete(4)) == [[0, 1, 2, 3]]

    def test_2k3_disconnected(self):
        assert connected_components(union_complete(2, 3)) == [[0, 1, 2], [3, 4, 5]]

    def test_c5_connected(self):
        assert len(connected_components(cycle(5))) == 1

    def test_single_vertex(self):
        assert connected_components(complete(1)) == [[0]]
