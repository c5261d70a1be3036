"""Graph and degree-sequence types, input formats, generators, and enumeration.

Vertices are always 0..n-1.  Graphs are immutable; every constructor path
(parsers, generators, enumeration) produces a symmetric, loop-free adjacency
structure.
"""

from __future__ import annotations

import base64
import functools
import re
import sys
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple


class GraphParseError(ValueError):
    """Malformed graph input.  ``offset`` is a byte offset (graph6) or
    1-based line number (edge lists) when one can be named."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


class Graph(NamedTuple):
    """Simple undirected graph: vertex count plus sorted neighbor tuples.

    Direct construction trusts its arguments; use :meth:`from_edges` or a
    parser for unvalidated input.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in adj))

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(nb) for nb in self.neighbors) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.neighbors[u]:
                if v > u:
                    yield (u, v)


class DegreeSequence(NamedTuple):
    """Non-increasing degree sequence with cached prefix sums.

    ``prefix[k]`` is the sum of the k largest degrees (``prefix[0] == 0``),
    so every bound formula can take its partial sums in exact integer
    arithmetic.
    """

    degrees: tuple[int, ...]
    prefix: tuple[int, ...]

    @classmethod
    def from_degrees(cls, degrees: Iterable[int]) -> "DegreeSequence":
        ds = sorted(degrees, reverse=True)
        if not ds:
            raise ValueError("degree sequence must be nonempty")
        if ds[-1] < 0:
            raise ValueError("degrees must be nonnegative")
        total = sum(ds)
        if total % 2:
            raise ValueError(f"degree sum {total} is odd")
        prefix = [0] * (len(ds) + 1)
        for i, d in enumerate(ds):
            prefix[i + 1] = prefix[i] + d
        return cls(tuple(ds), tuple(prefix))

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def m(self) -> int:
        """Edge count: half the degree sum."""
        return self.prefix[-1] // 2


def degree_sequence(g: Graph) -> DegreeSequence:
    """Degrees of ``g`` sorted non-increasing, with prefix sums."""
    return DegreeSequence.from_degrees(len(nb) for nb in g.neighbors)


# ---------------------------------------------------------------------------
# graph6 format
#
# Header: byte 63+n for n <= 62, or '~' followed by three bytes carrying an
# 18-bit big-endian n (63 <= n <= 258047); the '~~' eight-byte header is
# rejected.  Body: bit k = j(j-1)/2 + i is edge (i, j), i < j, most significant
# bit first, zero-padded to whole 6-bit groups, group x written chr(63 + x).
# Base64 writes the same groups as _B64[x]: the body is base64 re-lettered.
# ---------------------------------------------------------------------------

_G6_MAX_N = 258047
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_TO_G6 = bytes.maketrans(_B64, _G6)
_FROM_G6 = bytes.maketrans(_G6, _B64)
_NOT_G6 = re.compile("[^?-~]")
_NONZERO_RUN = re.compile(b"[^\0]+")
_PIECE = 1 << 16  # body characters decoded at once: whole 4-character groups


def check_graph6(text: str) -> str:
    """One graph6 record, checked: the text without trailing whitespace or
    newline and without any ``>>graph6<<`` prefix, which is the form
    :func:`decode_graph6` takes.  Its header, length and byte-range checks
    raise GraphParseError, with the offset in ``text``."""
    s = text.rstrip("\r\n \t")
    base = 10 if s.startswith(">>graph6<<") else 0
    s = s[base:]
    if not s:
        raise GraphParseError("empty graph6 record", base)
    if s[0] == ":":
        raise GraphParseError("sparse6 records are not supported (leading ':')", base)
    if s[0] == "&" or s.startswith(">>digraph6<<") or s.startswith(">>sparse6<<"):
        raise GraphParseError("only graph6 records are supported", base)
    if s[:2] == "~~":
        raise GraphParseError("8-byte graph6 headers (n > 258047) are not supported", base + 1)
    data_start = 4 if s[0] == "~" else 1
    if len(s) < data_start:
        raise GraphParseError("truncated extended header", base + len(s))
    if bad := _NOT_G6.search(s, 0, data_start):
        raise GraphParseError(f"invalid header byte {ord(bad[0])}", base + bad.start())
    n = _order(s, data_start)
    if n == 0:
        raise GraphParseError("graph6 record encodes zero vertices", base)
    nbytes = (n * (n - 1) // 2 + 5) // 6
    size = len(s) - data_start
    if size < nbytes:
        raise GraphParseError(
            f"truncated bit field: need {nbytes} data bytes, got {size}",
            base + len(s),
        )
    if size > nbytes:
        raise GraphParseError(
            f"unexpected trailing data after {nbytes} data bytes",
            base + data_start + nbytes,
        )
    if bad := _NOT_G6.search(s, data_start):
        raise GraphParseError(f"invalid data byte {ord(bad[0])}", base + bad.start())
    return s


def _order(s: str, data_start: int) -> int:
    """The vertex count n in a record's header."""
    n = 0
    for ch in s[1:4] if data_start == 4 else s[0]:
        n = n << 6 | ord(ch) - 63
    return n


def parse_graph6(text: str) -> Graph:
    """The graph of one graph6 record: :func:`decode_graph6` of what
    :func:`check_graph6` returns, so a bad record raises GraphParseError."""
    return decode_graph6(check_graph6(text))


def decode_graph6(record: str) -> Graph:
    """The graph of a record that :func:`check_graph6` returned, decoded
    without checking it again; any other string gives an arbitrary graph or
    error."""
    data_start = 4 if record[0] == "~" else 1
    n = _order(record, data_start)
    nbits = n * (n - 1) // 2
    adj: list[list[int]] = [[] for _ in range(n)]
    j, column = 1, 0  # bits column .. column + j - 1 are the pairs (i, j), i < j
    # the field is decoded a piece at a time and walked by its runs of
    # nonzero bytes, so memory stays near the record's size
    for start in range(data_start, len(record), _PIECE):
        piece = record[start:start + _PIECE].encode().translate(_FROM_G6)
        field = base64.b64decode(piece + b"A" * (-len(piece) % 4))
        for run in _NONZERO_RUN.finditer(field):
            # the index of the run's first byte's least significant bit
            last = (start - data_start) * 6 + 8 * run.start() + 7
            for byte in run[0]:
                while byte:
                    top = byte.bit_length() - 1
                    byte ^= 1 << top
                    k = last - top
                    if k >= nbits:  # padding
                        break
                    while k >= column + j:
                        column, j = column + j, j + 1
                    adj[k - column].append(j)
                    adj[j].append(k - column)
                last += 8
    return Graph(n, tuple(map(tuple, adj)))


def graph6_records(text: str) -> list[str]:
    """The records of a graph6 file: its non-blank lines, after an optional
    ``>>graph6<<`` header line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[1:] if lines and lines[0].strip() == ">>graph6<<" else lines


def read_input(path: str) -> str:
    """The ASCII text of an input: the bytes of stdin for ``-``, else of the
    file at ``path``, decoded the same way."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"non-ASCII input byte {data[exc.start]}", exc.start) from None


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a one-line graph6 record (inverse of parse_graph6)."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"graph6 encoding supports n <= {_G6_MAX_N}, got {n}")
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + "".join(
            chr(63 + (n >> shift & 63)) for shift in (12, 6, 0)
        )
    nbits = n * (n - 1) // 2
    field = bytearray((nbits + 23) // 24 * 3)  # whole 3-byte base64 groups
    for i, j in g.edges():
        k = j * (j - 1) // 2 + i
        field[k >> 3] |= 128 >> (k & 7)
    return header + base64.b64encode(field).translate(_TO_G6)[:(nbits + 5) // 6].decode()


# ---------------------------------------------------------------------------
# edge-list format: first line "n" (1 <= n <= 258047, the graph6 limit), then
# one "u v" pair per line.
# ---------------------------------------------------------------------------

def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format.  Duplicate edges are collapsed."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError("missing vertex-count line", 1)
    try:
        n = int(lines[0])
    except ValueError:
        raise GraphParseError(f"non-integer vertex count {lines[0]!r}", 1) from None
    if n < 1:
        raise GraphParseError(f"vertex count must be positive, got {n}", 1)
    if n > _G6_MAX_N:
        # every command encodes the graph6 id, so refuse before allocating
        raise GraphParseError(f"vertex count {n} exceeds the graph6 limit {_G6_MAX_N}", 1)
    adj: list[set[int]] = [set() for _ in range(n)]
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphParseError(f"expected 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"non-integer token in {line!r}", lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex index out of range in {line!r}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", lineno)
        adj[u].add(v)
        adj[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in adj))


# ---------------------------------------------------------------------------
# connectivity
# ---------------------------------------------------------------------------

def is_connected(g: Graph) -> bool:
    """True iff the graph has a single connected component (DFS)."""
    n = g.n
    if n == 1:
        return True
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for u in g.neighbors[v]:
            if not seen[u]:
                seen[u] = 1
                count += 1
                stack.append(u)
    return count == n


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

_FAMILIES = ("complete", "star", "path", "cycle")


def gen_named(family: str, n: int) -> Graph:
    """One of the named families on vertices 0..n-1.

    Paths and cycles run in index order; stars are centered at vertex 0.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {_FAMILIES}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if family == "cycle" and n < 3:
        raise ValueError(f"cycle requires n >= 3, got {n}")
    if family == "complete":
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif family == "star":
        edges = [(0, j) for j in range(1, n)]
    elif family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges(n, edges)


def gen_join_dominating(n: int, t: int, r: int) -> Graph:
    """Join of a (t-1)-clique with an r-regular circulant on n-t+1 vertices.

    The result is connected with sorted degrees
    d_1 = ... = d_{t-1} = n-1 and d_t = ... = d_n = r + t - 1, the witness
    family for equality of the degree-prefix bound.
    """
    if not 2 <= t <= n:
        raise ValueError(f"need 2 <= t <= n, got t={t}, n={n}")
    h = n - t + 1
    if not 0 <= r <= h - 1:
        raise ValueError(f"need 0 <= r <= n-t, got r={r} with n-t={h - 1}")
    if r * h % 2:
        raise ValueError(
            f"no {r}-regular graph on {h} vertices exists (odd degree sum)"
        )
    edges = []
    # clique of dominating vertices, joined to everything
    for i in range(t - 1):
        for j in range(i + 1, n):
            edges.append((i, j))
    # circulant factor on vertices t-1..n-1: offsets 1..r//2, plus the
    # antipodal offset when r is odd (h even by the parity precondition)
    base = t - 1
    for k in range(1, r // 2 + 1):
        for i in range(h):
            edges.append((base + i, base + (i + k) % h))
    if r % 2:
        half = h // 2
        for i in range(half):
            edges.append((base + i, base + i + half))
    g = Graph.from_edges(n, edges)
    got = sorted((len(nb) for nb in g.neighbors), reverse=True)
    want = [n - 1] * (t - 1) + [r + t - 1] * h
    assert got == want, f"degree pattern mismatch: {got} != {want}"
    return g


# ---------------------------------------------------------------------------
# exhaustive enumeration of labeled connected graphs
# ---------------------------------------------------------------------------

ENUMERATION_MAX_N = 7


def check_enumeration_n(n: int) -> None:
    """Raise ValueError unless :func:`enumerate_connected` accepts n."""
    if not 1 <= n <= ENUMERATION_MAX_N:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_N}, got {n}")


def _g6_bit(i: int, j: int) -> int:
    """Edge (i, j)'s bit, i < j, in the first 24 bits of a graph6 body read
    as one big-endian integer: four characters, enough for n <= 7."""
    return 1 << 23 - (j * (j - 1) // 2 + i)


@functools.lru_cache(maxsize=None)
def _record_tables(n: int) -> tuple:
    """What :func:`enumerate_blocks` looks up at n, built once:

    - ``star``, ``star_bits``: for each neighbourhood S of vertex 0, vertex
      0's neighbour tuple and S's graph6 bits;
    - ``picks``: for each S, the getter that takes the graph's neighbour
      tuples from its options (below);
    - ``rows``: the neighbour tuple of each of the 2^n vertex sets;
    - ``high_edges``: each edge (i, j) of vertices 1..n-1, in mask order,
      with its graph6 bit;
    - ``head``, ``tail``: for each value of the high and of the low 12 of
      the 24 bits, the record's header and first two body characters, and
      its last two (fewer where the body is shorter)."""
    rows = [tuple(j for j in range(n) if bits >> j & 1) for bits in range(1 << n)]
    half = 1 << n - 1
    star = tuple(rows[s << 1] for s in range(half))
    star_bits = [sum(_g6_bit(0, v) for v in range(1, n) if s >> v - 1 & 1) for s in range(half)]
    # a graph's options are star, then for each vertex v >= 1 its tuple
    # without and with vertex 0; itemgetter of one index (n = 1) would
    # return the tuple instead of the 1-tuple that star already is
    picks = [
        itemgetter(s, *(half + 2 * v - 2 + (s >> v - 1 & 1) for v in range(1, n)))
        if n > 1 else (lambda options: options)
        for s in range(half)
    ]
    high_edges = [(i, j, _g6_bit(i, j)) for i in range(1, n) for j in range(i + 1, n)]
    width = (n * (n - 1) // 2 + 5) // 6  # body characters
    # the two characters of each 12-bit value, high six bits first
    letters = [chr(63 + x) for x in range(64)]
    pairs = [a + b for a in letters for b in letters]
    head = [chr(63 + n) + pair[:width] for pair in pairs]
    tail = [pair[:max(width - 2, 0)] for pair in pairs]
    return star, star_bits, picks, rows, high_edges, head, tail


def enumerate_blocks(
    n: int, mask_range: tuple[int, int] | None = None
) -> Iterator[tuple[Graph, list[tuple[str, int]], Callable[[int], Graph]]]:
    """(H, members, member_graph) for each block of masks that share their
    high bits, in mask order, where a block has members in ``mask_range``.

    A mask's low n-1 bits are the neighbourhood S of vertex 0 (bit v-1 is
    edge (0, v)) and its high bits the graph H on vertices 1..n-1.  ``H``
    is that graph on all n vertices, so vertex 0 is isolated in it; every
    member is H plus vertex 0 joined to its S.  ``members`` lists
    (graph6 record, S) for the block's labeled connected graphs, in mask
    order, and ``member_graph(S)`` builds such a member's graph, so a
    caller that needs only the records builds no graph.  Vertex 0 has
    degree 0 in H and the least label, so a relabeling of H that orders its
    vertices by degree, ties by label, puts vertex 0 at position 0, and H's
    form with S's positions in it fixes a member's isomorphism class.  Each
    H is scanned once for its components, and a graph is connected when S
    meets every one.  The neighbour tuples and the record are looked up in
    :func:`_record_tables` rather than built bit by bit.
    """
    check_enumeration_n(n)
    total = enumeration_space(n)
    start, stop = mask_range if mask_range is not None else (0, total)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"mask_range {mask_range} outside [0, {total}]")
    star, star_bits, picks, rows, high_edges, head, tail = _record_tables(n)
    low = n - 1
    half = 1 << low
    for h in range(start >> low, (stop + half - 1) >> low):
        # H's neighbour sets and graph6 bits
        adj = [0] * n
        bits = 0
        m = h
        while m:
            lsb = m & -m
            i, j, bit = high_edges[lsb.bit_length() - 1]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            bits |= bit
            m ^= lsb
        # H's components by bit-parallel BFS, each as a set of S's bits
        components = []
        rest = (1 << n) - 2
        while rest:
            seen = frontier = rest & -rest
            while frontier:
                nxt = 0
                f = frontier
                while f:
                    nxt |= adj[(f & -f).bit_length() - 1]
                    f &= f - 1
                frontier = nxt & ~seen
                seen |= frontier
            components.append(seen >> 1)
            rest &= ~seen
        base = h << low
        neighbourhoods = range(max(start - base, 0), min(stop - base, half))
        if len(components) > 1:
            neighbourhoods = [s for s in neighbourhoods if all(s & c for c in components)]
        elif components:  # H is connected: any nonempty S
            neighbourhoods = range(max(neighbourhoods.start, 1), neighbourhoods.stop)
        if not neighbourhoods:
            continue
        members = [(head[(record := bits | star_bits[s]) >> 12] + tail[record & 4095], s)
                   for s in neighbourhoods]
        options = star + tuple([rows[a | b] for a in adj[1:] for b in (0, 1)])

        def member_graph(s: int, options: tuple = options) -> Graph:
            return Graph(n, picks[s](options))

        # star[0] is vertex 0's empty tuple, options[half::2] each other
        # vertex's tuple without vertex 0
        yield Graph(n, options[:1] + options[half::2]), members, member_graph


def enumerate_records(
    n: int, mask_range: tuple[int, int] | None = None
) -> Iterator[tuple[str, Graph]]:
    """(graph6 record, graph) for every labeled connected simple graph on n
    vertices, in :func:`enumerate_connected`'s order: the members of
    :func:`enumerate_blocks`, block after block, with their graphs."""
    for _, members, member_graph in enumerate_blocks(n, mask_range):
        for record, s in members:
            yield record, member_graph(s)


def enumerate_connected(
    n: int, *, mask_range: tuple[int, int] | None = None
) -> Iterator[Graph]:
    """Every labeled connected simple graph on n vertices, exactly once.

    Candidates are the 2^(n(n-1)/2) edge subsets; bit k of the mask is edge
    k in lexicographic (i, j) order, and masks are scanned in increasing
    order, so the stream is deterministic.  ``mask_range`` restricts the
    scan to [start, stop) so callers can partition the work.  The graphs
    are :func:`enumerate_blocks`'s: each mask splits into vertex 0's
    neighbourhood (its low n-1 bits) and the graph on vertices 1..n-1 (its
    high bits), which leaves the order unchanged.
    """
    return (g for _, g in enumerate_records(n, mask_range))


def enumeration_space(n: int) -> int:
    """Number of candidate edge bitmasks for n vertices."""
    return 1 << (n * (n - 1) // 2)
