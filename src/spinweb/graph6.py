"""graph6 encoding and decoding (McKay's format).

Supports the one-byte size field for n <= 62 and the 4-byte form for
63 <= n <= 511 (``graphs.MAX_ORDER``); a larger size field, the 8-byte
form included, is refused as soon as it is read.  Payload bits are the
upper triangle column by column, x(0,1), x(0,2), x(1,2), x(0,3), ...,
packed six per byte, each byte + 63.

``parse_graph6`` decodes with C-level string operations, not a loop per
bit.  One ``bytes.translate`` checks the bytes.  A payload byte 63 + x
is the base64 digit of x, so a second translate and ``a2b_base64`` pack
the payload into bytes, read as one bit string.  Column b of the
triangle is one slice of it, padded with zeros to n characters, and each
vertex's row is one binary numeral read by ``int(..., 2)`` from two
slices of the reversed matrix of those columns, one of them strided (the
transpose).  McLaughlin's graph (n = 275) decodes in 0.7-0.8 ms instead
of 7.6-9.8 ms with the loop, Higman-Sims in 0.16-0.26 ms instead of
1.0-1.4 ms; graphs on up to 9 vertices take 2-5 us longer (in-process,
shared 2-vCPU Xeon).

``write_graph6`` runs the same steps backwards, again with no loop per
bit: column b of the triangle is row b's low b bits, lowest first, so one
``format`` of them, reversed; the joined columns are packed into one int,
encoded by ``b2a_base64`` and translated back to graph6 bytes.  McLaughlin
encodes in 0.3 ms instead of 5.6 ms with the loop, Higman-Sims in 0.09 ms
instead of 0.6 ms; a 7-vertex graph takes about 1.5 us longer.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64

from .graphs import MAX_ORDER, Graph

HEADER = b">>graph6<<"
_GRAPH6_BYTES = bytes(range(63, 127))
# graph6 byte 63 + x is the base64 digit of value x
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6_BYTES, _BASE64_DIGITS)
_FROM_BASE64 = bytes.maketrans(_BASE64_DIGITS, _GRAPH6_BYTES)


class Graph6Error(ValueError):
    pass


class InvalidChar(Graph6Error):
    """A byte outside the printable range 63..126."""


class Truncated(Graph6Error):
    """Fewer payload bytes than the vertex count requires."""


class TrailingGarbage(Graph6Error):
    """Extra bytes after the complete payload."""


def _as_bytes(text) -> bytes:
    if isinstance(text, str):
        try:
            return text.encode("latin-1")
        except UnicodeEncodeError as exc:
            raise InvalidChar(f"non-byte character in graph6 input: {exc}") from None
    return bytes(text)


def parse_graph6(text) -> Graph:
    data = _as_bytes(text).strip()
    if data.startswith(HEADER):
        data = data[len(HEADER):]
    bad = data.translate(None, _GRAPH6_BYTES)
    if bad:
        raise InvalidChar(f"byte {bad[0]} outside graph6 range 63..126")
    if not data:
        raise Truncated("empty graph6 string")
    if data[0] == 126:
        if len(data) < 4:
            raise Truncated("4-byte size field cut short")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise Graph6Error(f"non-canonical 4-byte size field for n={n}")
        if n > MAX_ORDER:       # an 8-byte form's first bytes read as n >= 258048
            raise Graph6Error("size field declares an order above the largest "
                              f"supported order {MAX_ORDER}")
        payload = data[4:]
    else:
        n = data[0] - 63
        payload = data[1:]
    if n < 1:
        raise Graph6Error("graph needs at least one vertex")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(payload) < nbytes:
        raise Truncated(f"need {nbytes} payload bytes, got {len(payload)}")
    if len(payload) > nbytes:
        raise TrailingGarbage(f"{len(payload) - nbytes} extra bytes after payload")
    # "A" digits (six zero bits) round the payload up to whole base64 quads,
    # so that no bit is dropped
    packed = a2b_base64(payload.translate(_TO_BASE64) + b"A" * (-len(payload) % 4))
    bits = format(int.from_bytes(packed, "big"), "b").zfill(8 * len(packed))
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bits")
    # Reversed, the n x n matrix whose row b is column b of the triangle,
    # x(0,b) .. x(b-1,b), padded with zeros, holds vertex v = n - 1 - c's
    # adjacency row as a binary numeral, highest bit first: its column c
    # above the diagonal (a strided slice), then its row c from the diagonal.
    pad = "0" * n
    flipped = "".join([bits[b * (b - 1) // 2:b * (b + 1) // 2] + pad[b:]
                       for b in range(n)])[::-1]
    return Graph(n, tuple([int(flipped[c:c * (n + 1):n] + flipped[c * (n + 1):c * n + n], 2)
                           for c in range(n - 1, -1, -1)]))


def read_graph6_lines(lines, errors: list[tuple[int, str]]):
    """Yield (line number, text, Graph) for each well-formed graph6 line.

    Lines are numbered from 1, blank lines included, and skipped when
    blank.  A malformed line is appended to ``errors`` as (line number,
    message) and skipped, so one bad line never stops a stream.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            g = parse_graph6(line)
        except Graph6Error as exc:
            errors.append((lineno, str(exc)))
            continue
        yield lineno, line if isinstance(line, str) else line.decode("latin-1"), g


def write_graph6(g: Graph) -> bytes:
    n = g.n
    header = bytes([n + 63] if n < 63 else
                   [126, 63 + (n >> 12), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    # column b of the triangle, x(0,b) .. x(b-1,b), is row b's low b bits, lowest first
    bits = "".join([format(row & ((1 << b) - 1), f"0{b}b")[::-1]
                    for b, row in enumerate(g.adj) if b])
    digits = (len(bits) + 5) // 6               # six bits to a graph6 byte
    bits += "0" * (-len(bits) % 24)             # whole base64 quads of 3 bytes
    packed = int(bits or "0", 2).to_bytes(len(bits) // 8, "big")
    return header + b2a_base64(packed, newline=False)[:digits].translate(_FROM_BASE64)
