"""Graph and degree-sequence types, input formats, generators, and enumeration.

Vertices are always 0..n-1.  Graphs are immutable; every constructor path
(parsers, generators, enumeration) produces a symmetric, loop-free adjacency
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphParseError(ValueError):
    """Malformed graph input.  ``offset`` is a byte offset (graph6) or
    1-based line number (edge lists) when one can be named."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True, slots=True)
class Graph:
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

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.neighbors[u]

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self.neighbors[u]:
                if v > u:
                    yield (u, v)


@dataclass(frozen=True, slots=True)
class DegreeSequence:
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

    @classmethod
    def from_graph(cls, g: Graph) -> "DegreeSequence":
        return cls.from_degrees(len(nb) for nb in g.neighbors)

    @property
    def n(self) -> int:
        return len(self.degrees)

    @property
    def m(self) -> int:
        """Edge count: half the degree sum."""
        return self.prefix[-1] // 2


def degree_sequence(g: Graph) -> DegreeSequence:
    """Degrees of ``g`` sorted non-increasing, with prefix sums."""
    return DegreeSequence.from_graph(g)


# ---------------------------------------------------------------------------
# graph6 format
#
# Header: byte 63+n for n <= 62, or '~' followed by three bytes carrying an
# 18-bit big-endian n (63 <= n <= 258047).  The '~~' eight-byte header is
# rejected.  Body: the upper triangle read column by column -- bit (i,j) for
# j = 1..n-1, i = 0..j-1 -- packed into 6-bit groups, most significant bit
# first, zero-padded, each group offset by 63.
# ---------------------------------------------------------------------------

_G6_MAX_N = 258047


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 record.  Trailing whitespace/newline is tolerated."""
    s = text.rstrip("\r\n \t")
    base = 0
    if s.startswith(">>graph6<<"):
        base = 10
        s = s[10:]
    if not s:
        raise GraphParseError("empty graph6 record", base)
    first = ord(s[0])
    if s[0] == ":":
        raise GraphParseError("sparse6 records are not supported (leading ':')", base)
    if s[0] == "&" or s.startswith(">>digraph6<<") or s.startswith(">>sparse6<<"):
        raise GraphParseError("only graph6 records are supported", base)
    if not 63 <= first <= 126:
        raise GraphParseError(f"invalid header byte {first}", base)

    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            raise GraphParseError(
                "8-byte graph6 headers (n > 258047) are not supported", base + 1
            )
        if len(s) < 4:
            raise GraphParseError("truncated extended header", base + len(s))
        n = 0
        for k in range(1, 4):
            b = ord(s[k])
            if not 63 <= b <= 126:
                raise GraphParseError(f"invalid header byte {b}", base + k)
            n = (n << 6) | (b - 63)
        data_start = 4
    else:
        n = first - 63
        data_start = 1

    if n == 0:
        raise GraphParseError("graph6 record encodes zero vertices", base)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    data = s[data_start:]
    if len(data) < nbytes:
        raise GraphParseError(
            f"truncated bit field: need {nbytes} data bytes, got {len(data)}",
            base + len(s),
        )
    if len(data) > nbytes:
        raise GraphParseError(
            f"unexpected trailing data after {nbytes} data bytes",
            base + data_start + nbytes,
        )

    adj: list[list[int]] = [[] for _ in range(n)]
    bit = 0
    i, j = 0, 1
    for k, ch in enumerate(data):
        b = ord(ch)
        if not 63 <= b <= 126:
            raise GraphParseError(f"invalid data byte {b}", base + data_start + k)
        group = b - 63
        for shift in range(5, -1, -1):
            if bit >= nbits:
                break
            if group >> shift & 1:
                adj[i].append(j)
                adj[j].append(i)
            bit += 1
            i += 1
            if i == j:
                i, j = 0, j + 1
    return Graph(n, tuple(tuple(sorted(row)) for row in adj))


def graph6_records(text: str) -> list[str]:
    """The records of a graph6 file: its non-blank lines, after an optional
    ``>>graph6<<`` header line."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return lines[1:] if lines and lines[0].strip() == ">>graph6<<" else lines


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
    out = [header]
    group = 0
    nfilled = 0
    for j in range(1, n):
        row = g.neighbors[j]
        for i in range(j):
            group = group << 1 | (1 if i in row else 0)
            nfilled += 1
            if nfilled == 6:
                out.append(chr(63 + group))
                group = 0
                nfilled = 0
    if nfilled:
        out.append(chr(63 + (group << (6 - nfilled))))
    return "".join(out)


# ---------------------------------------------------------------------------
# edge-list format: first line "n", then one "u v" pair per line.
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
ENUMERATION_MAX_N_LARGE = 8


def check_enumeration_n(n: int, allow_large: bool = False) -> None:
    """Raise ValueError unless :func:`enumerate_connected` accepts n."""
    limit = ENUMERATION_MAX_N_LARGE if allow_large else ENUMERATION_MAX_N
    if not 1 <= n <= limit:
        hint = " (pass allow_large for n=8)" if n == 8 and not allow_large else ""
        raise ValueError(f"enumeration supports 1 <= n <= {limit}, got {n}{hint}")


def enumerate_connected(
    n: int,
    *,
    allow_large: bool = False,
    mask_range: tuple[int, int] | None = None,
) -> Iterator[Graph]:
    """Every labeled connected simple graph on n vertices, exactly once.

    Candidates are the 2^(n(n-1)/2) edge subsets; bit k of the mask is edge
    k in lexicographic (i, j) order, and masks are scanned in increasing
    order, so the stream is deterministic.  ``mask_range`` restricts the
    scan to [start, stop) so callers can partition the work.
    """
    check_enumeration_n(n, allow_large)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 1 << len(pairs)
    start, stop = mask_range if mask_range is not None else (0, total)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"mask_range {mask_range} outside [0, {total}]")
    full = (1 << n) - 1
    rng = range(n)
    for mask in range(start, stop):
        adj = [0] * n
        m = mask
        while m:
            lsb = m & -m
            i, j = pairs[lsb.bit_length() - 1]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            m &= m - 1
        # bit-parallel BFS from vertex 0
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            f = frontier
            while f:
                nxt |= adj[(f & -f).bit_length() - 1]
                f &= f - 1
            frontier = nxt & ~seen
            seen |= frontier
        if seen != full:
            continue
        yield Graph(
            n, tuple(tuple(j for j in rng if a >> j & 1) for a in adj)
        )


def enumeration_space(n: int) -> int:
    """Number of candidate edge bitmasks for n vertices."""
    return 1 << (n * (n - 1) // 2)
