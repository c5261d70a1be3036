"""Shared test helpers: exact independent oracles and seeded corpora.

The surd comparator below decides orderings of (a + sqrt(b))/2 values in
pure integer arithmetic, giving the tests a tie-detection oracle that owes
nothing to the library's prefix-sum comparison logic.  The structural
oracles (adjacency invariants, union-find connectivity, the numeric tight
set) exist only to check the library against.
"""

from __future__ import annotations

import random

from rho_bounds import (
    DegreeSequence,
    Graph,
    degree_sequence,
    phi_sequence,
    spectral_radius_power,
    tight_levels,
)
from rho_bounds.equality import EQUALITY_TOL


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


def check_equality_numeric(g: Graph, tol: float = EQUALITY_TOL) -> frozenset[int]:
    """Numerically tight levels of a connected graph, from the power oracle.

    Used solely to validate ``classify_equality``; structural
    classification is authoritative.
    """
    phis = phi_sequence(degree_sequence(g))
    rho = spectral_radius_power(g).rho
    return tight_levels(phis.values, rho, tol)


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


# ---------------------------------------------------------------------------
# seeded corpora
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    from rho_bounds import is_connected

    while True:
        g = random_graph(rng, n, p)
        if is_connected(g):
            return g


def random_degree_sequence(rng: random.Random, max_n: int = 50) -> DegreeSequence:
    """Degree sequence of a random graph: graphical by construction."""
    n = rng.randint(1, max_n)
    p = rng.uniform(0.05, 0.95)
    return DegreeSequence.from_graph(random_graph(rng, n, p))
