"""Shared test helpers: exact independent oracles and seeded corpora.

The exact phi comparisons below go through ``bounds.compare_half_surds``,
which decides orderings of (a + sqrt(b))/2 values in pure integer
arithmetic, giving the tests a tie-detection oracle that owes nothing to the
library's prefix-sum comparison logic.  The structural
oracles (adjacency invariants, union-find connectivity, the numeric tight
set, the per-level replay loops, the dense Faddeev-LeVerrier loop, the
memo-free campaign chunk, the bit-loop enumerator, the per-bit graph6
loops, the quadratic Erdos-Gallai loop, the counting Brualdi-Hoffman
loop) exist only to check the library against.
"""

from __future__ import annotations

import random

from rho_bounds import (
    bound_report,
    DegreeSequence,
    Graph,
    GraphParseError,
    degree_sequence,
    encode_graph6,
    is_connected,
    phi,
    phi_sequence,
    spectral_radius_power,
)
from rho_bounds import harness
from rho_bounds.bounds import compare_half_surds, phi_surd
from rho_bounds.equality import tight_levels
from rho_bounds.graph_core import _G6_MAX_N, check_enumeration_n, decode_graph6, parse_edge_list
from rho_bounds.spectral_oracle import CHARPOLY_MAX_N, UnsupportedSizeError


def check_invariants(g: Graph) -> None:
    """Raise AssertionError if the adjacency structure is inconsistent."""
    assert g.n >= 1 and len(g.neighbors) == g.n
    for u, nb in enumerate(g.neighbors):
        assert list(nb) == sorted(set(nb)), f"row {u} not sorted/unique"
        assert u not in nb, f"self-loop at {u}"
        for v in nb:
            assert 0 <= v < g.n, f"vertex {v} out of range"
            assert u in g.neighbors[v], f"asymmetric edge ({u},{v})"


def is_connected_union_find(g: Graph) -> bool:
    """Connectivity via union-find; independent of the DFS routine."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    components = g.n
    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            components -= 1
    return components == 1


def check_equality_numeric(g: Graph, tol: float = 1e-6) -> frozenset[int]:
    """Numerically tight levels of a connected graph, from the power oracle.

    Used solely to validate ``classify_equality``; structural
    classification is authoritative.
    """
    phis = phi_sequence(degree_sequence(g))
    rho = spectral_radius_power(g).rho
    return tight_levels(phis.values, rho, tol)


def row_sums_scaled_per_level(g: Graph, level: int) -> tuple:
    """One level's scaling and row sums the direct way: sort the vertices by
    degree, then sum each row's neighbor weights in floats.  O(n + m) per
    level.  Returns (phi, x, row_sums) in the degree-sorted order."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-len(g.neighbors[v]), v))
    seq = DegreeSequence.from_degrees(len(g.neighbors[v]) for v in order)
    value = phi(seq, level)
    d_level = seq.degrees[level - 1]
    x = tuple(
        1.0 + (seq.degrees[i] - d_level) / (value + 1.0) for i in range(level - 1)
    )
    position = [0] * n
    for pos, v in enumerate(order):
        position[v] = pos
    weight = [1.0] * n
    weight[:level - 1] = x
    row_sums = []
    for pos, v in enumerate(order):
        acc = 0.0
        for u in g.neighbors[v]:
            acc += weight[position[u]]
        row_sums.append(acc / weight[pos])
    return value, x, tuple(row_sums)


def row_slacks_per_level(g: Graph, level: int) -> tuple[int, ...]:
    """One level's integer row slacks from their definition, in the
    degree-sorted order: sum_{k in P - N[i]} (d_k - d_l) over the prefix P of
    the top level-1 vertices, plus d_l - d_i on a row past the prefix."""
    n = g.n
    order = sorted(range(n), key=lambda v: (-len(g.neighbors[v]), v))
    deg = [len(g.neighbors[v]) for v in order]
    d = deg[level - 1]
    prefix = set(order[:level - 1])
    slacks = []
    for pos, v in enumerate(order):
        closed = set(g.neighbors[v]) | {v}
        missed = sum(len(g.neighbors[k]) - d for k in prefix - closed)
        slacks.append(missed + (d - deg[pos] if pos >= level - 1 else 0))
    return tuple(slacks)


def characteristic_polynomial_dense(g: Graph) -> tuple[int, ...]:
    """Faddeev-LeVerrier with N held as a list of integer lists."""
    n = g.n
    if n > CHARPOLY_MAX_N:
        raise UnsupportedSizeError(
            f"characteristic-polynomial method supports n <= {CHARPOLY_MAX_N}, got {n}"
        )
    nbrs = g.neighbors
    c = [0] * (n + 1)
    c[n] = 1
    # N starts as the identity; each step maps N -> A*N + c*I.  Rows of A
    # are 0/1, so A*N is a sum of N's rows over each vertex's neighbors.
    N = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AN = []
        for i in range(n):
            row = [0] * n
            for u in nbrs[i]:
                nu = N[u]
                for j in range(n):
                    row[j] += nu[j]
            AN.append(row)
        tr = sum(AN[i][i] for i in range(n))
        if tr % k:
            raise AssertionError(f"Faddeev-LeVerrier trace {tr} not divisible by {k}")
        ck = -(tr // k)
        c[n - k] = ck
        for i in range(n):
            AN[i][i] += ck
        N = AN
    if any(x for row in N for x in row):
        raise AssertionError("Cayley-Hamilton check failed")
    return tuple(c)


def exact_phi_compare(seq: DegreeSequence, s: int, t: int) -> int:
    """Exact sign of phi_s - phi_t via the surd comparator."""
    a1, b1 = phi_surd(seq, s)
    a2, b2 = phi_surd(seq, t)
    return compare_half_surds(a1, b1, a2, b2)


def exact_phi_argmin(seq: DegreeSequence) -> frozenset[int]:
    """Argmin levels of the phi sequence by exhaustive exact comparison."""
    best = 1
    for level in range(2, seq.n + 1):
        if exact_phi_compare(seq, level, best) < 0:
            best = level
    return frozenset(
        level for level in range(1, seq.n + 1)
        if exact_phi_compare(seq, level, best) == 0
    )


def is_graphical_reference(degrees) -> bool:
    """Erdos-Gallai test that re-sums the tail at every k: quadratic, and
    the reference for the library's linear pointer walk."""
    ds = sorted(degrees, reverse=True)
    n = len(ds)
    if n == 0 or ds[-1] < 0 or sum(ds) % 2 or ds[0] >= n:
        return False
    prefix = 0
    for k in range(1, n + 1):
        prefix += ds[k - 1]
        tail = sum(min(d, k) for d in ds[k:])
        if prefix > k * (k - 1) + tail:
            return False
    return True


def brualdi_hoffman_reference(m: int) -> float:
    """Brualdi-Hoffman by counting k up from 1 to the smallest k with
    m <= k(k-1)/2; the reference for the library's isqrt closed form."""
    k = 1
    while k * (k - 1) // 2 < m:
        k += 1
    return float(k - 1)


def examine_graph_reference(g: Graph, checks: tuple[str, ...], ident: str | None = None):
    """One graph's (row, violations, tight check names) without any memo:
    the degree sequence, its report and every check are computed for this
    graph."""
    seq = degree_sequence(g)
    spec = spectral_radius_power(g)
    report = bound_report(seq)
    if ident is None:
        ident = encode_graph6(g)
    violations = []
    tight = []
    for name in checks:
        if name in harness._SEQUENCE_CHECKS:
            details, is_tight = harness._SEQUENCE_CHECKS[name](seq, report)
        else:
            details, is_tight = harness._GRAPH_CHECKS[name](g, seq, report, spec)
        violations.extend((ident, name, detail) for detail in details)
        if is_tight:
            tight.append(name)
    return harness.report_row(ident, seq, report, spec.rho), violations, tight


def class_key(g: Graph) -> tuple:
    """``g``'s class key: ``harness._relabel``'s copy of it."""
    return harness._relabel(g, [len(nb) for nb in g.neighbors])[0]


def without_vertex_0(g: Graph) -> Graph:
    """``g`` with vertex 0's edges removed: the H of its enumeration block."""
    return Graph(g.n, ((),) + tuple(tuple(u for u in nb if u) for nb in g.neighbors[1:]))


def enumerate_connected_reference(
    n: int, mask_range: tuple[int, int] | None = None
) -> list[Graph]:
    """``enumerate_connected`` one mask at a time: its edges set bit by bit,
    then a bit-parallel BFS from vertex 0."""
    check_enumeration_n(n)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = 1 << len(pairs)
    start, stop = mask_range if mask_range is not None else (0, total)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"mask_range {mask_range} outside [0, {total}]")
    full = (1 << n) - 1
    graphs = []
    for mask in range(start, stop):
        adj = [0] * n
        m = mask
        while m:
            lsb = m & -m
            i, j = pairs[lsb.bit_length() - 1]
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            m &= m - 1
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
        if seen == full:
            graphs.append(Graph(n, tuple(tuple(j for j in range(n) if a >> j & 1) for a in adj)))
    return graphs


def chunk_graphs_reference(kind: str, payload) -> list[tuple[str, Graph]]:
    """(id, graph) for a chunk's graphs, every id written by
    ``encode_graph6`` and enumeration by ``enumerate_connected_reference``."""
    if kind == "graph6":
        return [(record, decode_graph6(record)) for record in payload]
    if kind == "enumerate":
        n, start, stop = payload
        graphs = enumerate_connected_reference(n, (start, stop))
    else:
        graphs = [parse_edge_list(payload)]
    return [(encode_graph6(g), g) for g in graphs]


def run_chunk_reference(checks: tuple[str, ...], chunk: tuple) -> tuple:
    """``harness._run_chunk`` with ``examine_graph_reference`` per graph."""
    rows = []
    violations = []
    tight_counts = dict.fromkeys(checks, 0)
    skipped = 0
    kind, payload = chunk
    for ident, g in chunk_graphs_reference(kind, payload):
        if kind != "enumerate" and not is_connected(g):
            skipped += 1
            continue
        row, viols, tight = examine_graph_reference(g, checks, ident)
        rows.append(row)
        violations.extend(viols)
        for name in tight:
            tight_counts[name] += 1
    return rows, violations, skipped, tight_counts


def parse_graph6_bitloop(text: str) -> Graph:
    """``parse_graph6`` unpacking one bit at a time, with its own (i, j) cursor."""
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


def encode_graph6_bitloop(g: Graph) -> str:
    """``encode_graph6`` packing one vertex pair at a time into 6-bit groups."""
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
# seeded corpora
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def random_degree_sequence(rng: random.Random, max_n: int = 50) -> DegreeSequence:
    """Degree sequence of a random graph: graphical by construction."""
    n = rng.randint(1, max_n)
    p = rng.uniform(0.05, 0.95)
    return degree_sequence(random_graph(rng, n, p))


def random_tree(rng: random.Random, n: int) -> Graph:
    """Random recursive tree: vertex k attaches to a uniform earlier vertex."""
    return Graph.from_edges(n, ((k, rng.randrange(k)) for k in range(1, n)))


def lollipop(clique: int, path: int) -> Graph:
    """K_clique with a path of ``path`` more vertices hung from its last
    vertex.  Its Perron vector decays geometrically along the path, below
    Lanczos's residual well before the path ends."""
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    edges += [(clique - 1 + i, clique + i) for i in range(path)]
    return Graph.from_edges(clique + path, edges)
