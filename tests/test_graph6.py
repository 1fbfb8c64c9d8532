import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinweb.graph6 import (Graph6Error, InvalidChar, TrailingGarbage, Truncated,
                            parse_graph6, write_graph6)
from spinweb.graphs import Graph, complete, cycle, paley, petersen
from tests.conftest import has_edge, load_fixture


def reference_graph6(g: Graph) -> bytes:
    """Independent encoder: explicit bit string, then 6-bit chunks."""
    bits = "".join(str(int(has_edge(g, i, j)))
                   for j in range(1, g.n) for i in range(j))
    bits += "0" * (-len(bits) % 6)
    if g.n < 63:
        head = chr(g.n + 63)
    else:
        head = "~" + "".join(chr(63 + ((g.n >> s) & 63)) for s in (12, 6, 0))
    body = "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, len(bits), 6))
    return (head + body).encode()


def random_graph(rng: random.Random, n: int) -> Graph:
    rows = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.5:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    return Graph(n, tuple(rows))


def test_k2_is_A_underscore():
    g = parse_graph6(b"A_")
    assert g.n == 2 and has_edge(g, 0, 1)
    assert write_graph6(g) == b"A_"


def test_empty_two_vertex_graph():
    g = parse_graph6(b"A?")
    assert g.n == 2 and not has_edge(g, 0, 1)
    assert write_graph6(g) == b"A?"


def test_header_is_stripped():
    assert parse_graph6(b">>graph6<<A_") == parse_graph6(b"A_")


def test_str_input_accepted():
    assert parse_graph6("A_") == parse_graph6(b"A_")


def test_roundtrip_random_graphs_matches_reference():
    rng = random.Random(20250811)
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 20))
        encoded = write_graph6(g)
        assert encoded == reference_graph6(g)
        assert parse_graph6(encoded) == g


def test_roundtrip_generated_graphs():
    fixtures = [load_fixture(name) for name in ("schlafli", "higman_sims", "mclaughlin")]
    for g in (complete(1), complete(7), cycle(5), paley(13), petersen(), *fixtures):
        assert parse_graph6(write_graph6(g)) == g
    # n = 27, 100 and 275, beyond the hypothesis test's 140 vertices
    assert [write_graph6(g) for g in fixtures] == [reference_graph6(g) for g in fixtures]


@pytest.mark.parametrize("n", [62, 63, 64, 70, 511])
def test_four_byte_size_form(n):
    # n <= 62 is one size byte n + 63; from 63 on, "~" and three 6-bit bytes
    rng = random.Random(7)
    g = random_graph(rng, n)
    encoded = write_graph6(g)
    assert encoded[0] == (125 if n == 62 else 126)
    assert encoded == reference_graph6(g)
    assert parse_graph6(encoded) == g


def test_size_field_above_the_largest_order():
    # 511 is "~?F~" and 512 "~?G?"; a larger size field, 200 000 ("~ot?") or
    # the 8-byte form, is refused as soon as it is read, payload or not
    with pytest.raises(Truncated):
        parse_graph6(b"~?F~")
    assert parse_graph6(b"~?F~" + b"?" * ((511 * 510 // 2 + 5) // 6)) == Graph(511, (0,) * 511)
    for header in (b"~?G?", b"~ot?", b"~~~~", b"~~??????"):
        for payload in (b"", b"?" * ((512 * 511 // 2 + 5) // 6)):
            with pytest.raises(Graph6Error) as error:
                parse_graph6(header + payload)
            assert str(error.value) == \
                "size field declares an order above the largest supported order 511"


def test_invalid_char():
    with pytest.raises(InvalidChar):
        parse_graph6(b"A\x1f")
    with pytest.raises(InvalidChar):
        parse_graph6("Dÿ☃")


def test_truncated():
    with pytest.raises(Truncated):
        parse_graph6(b"D")  # n=5 needs payload
    with pytest.raises(Truncated):
        parse_graph6(b"")


def test_trailing_garbage():
    with pytest.raises(TrailingGarbage):
        parse_graph6(b"A_?")


@st.composite
def graphs_up_to_140(draw):
    """Graphs on 1 to 140 vertices, across the 62/63 size-form boundary."""
    n = draw(st.sampled_from((1, 2, 62, 63, 140)) | st.integers(1, 140))
    edges = draw(st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    pairs = [(a, b) for b in range(1, n) for a in range(b)]
    return Graph.from_edges(n, [pair for bit, pair in enumerate(pairs) if (edges >> bit) & 1])


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(graphs_up_to_140())
def test_roundtrip_against_reference_up_to_140_vertices(g):
    encoded = reference_graph6(g)
    assert parse_graph6(encoded) == g
    assert write_graph6(g) == encoded


def test_nonzero_padding_bit_raises_for_every_padded_size():
    padded = [n for n in range(2, 141) if n * (n - 1) // 2 % 6]
    assert len(padded) == 94 and {-(n * (n - 1) // 2) % 6 for n in padded} == {2, 3, 5}
    for n in padded:
        encoded = reference_graph6(Graph(n, (0,) * n))
        for bit in range(-(n * (n - 1) // 2) % 6):     # the pad bits of the last byte
            with pytest.raises(Graph6Error, match="nonzero padding bits"):
                parse_graph6(encoded[:-1] + bytes([encoded[-1] + (1 << bit)]))
