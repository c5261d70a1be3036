"""Shared test helpers: exact independent oracles and seeded corpora.

The surd comparator below decides orderings of (a + sqrt(b))/2 values in
pure integer arithmetic, giving the tests a tie-detection oracle that owes
nothing to the library's prefix-sum comparison logic.  The structural
oracles (adjacency invariants, union-find connectivity, the numeric tight
set, the per-level replay loop, the five-pass power loop, the dense
Faddeev-LeVerrier loop, the memo-free campaign chunk, the quadratic
Erdos-Gallai loop, the counting Brualdi-Hoffman loop) exist only to check
the library against.
"""

from __future__ import annotations

import math
import random

from rho_bounds import (
    CertificateViolationError,
    bound_report,
    ConvergenceError,
    DegreeSequence,
    Graph,
    ScalingCertificate,
    SpectralResult,
    degree_sequence,
    encode_graph6,
    is_connected,
    phi,
    phi_sequence,
    spectral_radius_power,
    tight_levels,
)
from rho_bounds import harness
from rho_bounds.spectral_oracle import CHARPOLY_MAX_N, MAX_ITERATIONS, UnsupportedSizeError
from rho_bounds.tolerances import TOLERANCES


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


def check_equality_numeric(g: Graph, tol: float = TOLERANCES["equality"]) -> frozenset[int]:
    """Numerically tight levels of a connected graph, from the power oracle.

    Used solely to validate ``classify_equality``; structural
    classification is authoritative.
    """
    phis = phi_sequence(degree_sequence(g))
    rho = spectral_radius_power(g).rho
    return tight_levels(phis.values, rho, tol)


def row_sums_scaled_per_level(g: Graph, level: int, tol: float) -> ScalingCertificate:
    """One level's certificate the direct way: sort the vertices by degree,
    then sum each row's neighbor weights.  O(n + m) per level."""
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
    for pos, r in enumerate(row_sums):
        if r > value + tol:
            raise CertificateViolationError(level, pos + 1, r, value)
    return ScalingCertificate(level, x, tuple(row_sums), value, max(row_sums))


def spectral_radius_power_five_pass(
    g: Graph, tol: float = TOLERANCES["power_step"],
    residual_tol: float = TOLERANCES["power_residual"],
    max_iterations: int = MAX_ITERATIONS,
) -> SpectralResult:
    """Power iteration on A+I with one pass per step: A*v, the Rayleigh
    quotient, the residual, the shift and norm, the division."""
    n = g.n
    v = [1.0 / math.sqrt(n)] * n
    rq_prev = None
    rq = 0.0
    for iteration in range(1, max_iterations + 1):
        w = [0.0] * n
        for i, nb in enumerate(g.neighbors):
            acc = 0.0
            for u in nb:
                acc += v[u]
            w[i] = acc
        rq = 0.0
        for i in range(n):
            rq += v[i] * w[i]
        residual = 0.0
        for i in range(n):
            d = w[i] - rq * v[i]
            if d < 0.0:
                d = -d
            if d > residual:
                residual = d
        if rq_prev is not None and abs(rq - rq_prev) < tol and residual <= residual_tol:
            return SpectralResult(rq, iteration, residual, "power")
        rq_prev = rq
        norm = 0.0
        for i in range(n):
            w[i] += v[i]
            norm += w[i] * w[i]
        norm = math.sqrt(norm)
        for i in range(n):
            w[i] /= norm
        v = w
    raise ConvergenceError("power iteration did not converge", rq)


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


def compare_half_surds(a1: int, b1: int, a2: int, b2: int) -> int:
    """Exact sign of (a1 + sqrt(b1))/2 - (a2 + sqrt(b2))/2 for integers.

    Requires b1, b2 >= 0.  Returns 1, 0, or -1.
    """
    if b1 < 0 or b2 < 0:
        raise ValueError("radicands must be nonnegative")
    d = a1 - a2
    # sign of d + sqrt(b1) - sqrt(b2)
    if d >= 0:
        # d + sqrt(b1) >= 0: compare squares of (d + sqrt(b1)) and sqrt(b2),
        # i.e. the sign of e + 2d*sqrt(b1) with e below
        e = d * d + b1 - b2
        if e >= 0:
            return 0 if (e == 0 and d * d * b1 == 0) else 1
        # e < 0: sign of 2d*sqrt(b1) - |e|
        lhs = 4 * d * d * b1
        rhs = e * e
        return 1 if lhs > rhs else (0 if lhs == rhs else -1)
    # d < 0
    if b1 <= d * d:
        # d + sqrt(b1) <= 0 <= sqrt(b2)
        return 0 if (b1 == d * d and b2 == 0) else -1
    e = d * d + b1 - b2
    if e <= 0:
        return -1
    lhs = e * e
    rhs = 4 * d * d * b1
    return 1 if lhs > rhs else (0 if lhs == rhs else -1)


def phi_surd(seq: DegreeSequence, level: int) -> tuple[int, int]:
    """The phi value at a level as the exact surd pair (a, b): (a+sqrt(b))/2."""
    d = seq.degrees[level - 1]
    excess = seq.prefix[level - 1] - (level - 1) * d
    return d - 1, (d + 1) * (d + 1) + 4 * excess


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


def examine_graph_reference(g: Graph, checks: tuple[str, ...], tols: dict):
    """``harness._examine_graph`` without the per-sequence memo: the degree
    sequence, its report and every check are computed for this graph."""
    seq = degree_sequence(g)
    rho = spectral_radius_power(g).rho
    report = bound_report(seq)
    ident = encode_graph6(g)
    violations = []
    tight = []
    for name in checks:
        if name in harness._SEQUENCE_CHECKS:
            details, is_tight = harness._SEQUENCE_CHECKS[name](seq, report, tols)
        else:
            details, is_tight = harness._GRAPH_CHECKS[name](g, seq, report, rho, tols)
        violations.extend((ident, name, detail) for detail in details)
        if is_tight:
            tight.append(name)
    return harness.report_row(ident, seq, report, rho), violations, tight


def run_chunk_reference(checks: tuple[str, ...], tols: dict, chunk: tuple) -> tuple:
    """``harness._run_chunk`` with ``examine_graph_reference`` per graph."""
    rows = []
    violations = []
    tight_counts = dict.fromkeys(checks, 0)
    skipped = 0
    kind, payload = chunk
    for g in harness._chunk_graphs(kind, payload):
        if kind != "enumerate" and not is_connected(g):
            skipped += 1
            continue
        row, viols, tight = examine_graph_reference(g, checks, tols)
        rows.append(row)
        violations.extend(viols)
        for name in tight:
            tight_counts[name] += 1
    return rows, violations, skipped, tight_counts


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
