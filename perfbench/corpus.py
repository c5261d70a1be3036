"""Seeded graph6 corpora for the benchmark workloads.

Every graph comes from the package's public constructors and generators
(``Graph.from_edges``, ``gen_named``, ``gen_join_dominating``,
``enumerate_connected``) and is written with ``encode_graph6``, so the
program under test receives nothing but graph6 text.  The same seed always
gives the same corpus.  Generation runs before any timed region.
"""

from __future__ import annotations

import random

from rho_bounds import (
    Graph,
    encode_graph6,
    enumerate_connected,
    gen_join_dominating,
    gen_named,
    is_connected,
)


def _relabel(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))


def _random_tree(rng: random.Random, n: int) -> Graph:
    # random recursive tree: vertex k attaches to a uniform earlier vertex
    return Graph.from_edges(n, ((k, rng.randrange(k)) for k in range(1, n)))


def _dense_gnp(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = Graph.from_edges(
            n,
            ((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p),
        )
        if is_connected(g):
            return g


def _join_dominating(k: int, n: int) -> Graph:
    t = _spread(k, 2, 6)
    h = n - t + 1
    r = _spread(k, 0, h - 1)
    if r * h % 2:
        r -= 1
    return gen_join_dominating(n, t, r)


def _spread(k: int, lo: int, hi: int) -> int:
    """The k-th of a fixed, evenly spread sequence of sizes in [lo, hi]."""
    return lo + (k * 7919) % (hi - lo + 1)


def corpus_mid(seed: int, count: int) -> list[str]:
    """Connected graphs with 13 <= n <= 120, mixed across four families.

    Trees, paths and cycles mix slowly, so power iteration runs hundreds to
    thousands of steps on them; dense G(n, p) graphs make replay's
    O(n * (n + m)) work dominate; join-dominating graphs hit the equality
    case at every level t..n.  Every n exceeds 12, so the exact-charpoly
    oracle never runs on this corpus.  The family, size, edge density and
    join parameters of the k-th graph do not depend on the seed; the
    seed draws the trees, the G(n, p) edges and every labeling.  So the
    total work varies little from seed to seed: what varies is mostly the
    trees' power-iteration counts.
    """
    rng = random.Random(f"corpus-mid:{seed}")
    lines = []
    for k in range(count):
        family = k % 10
        if family < 4:
            g = _relabel(rng, _random_tree(rng, _spread(k, 13, 120)))
        elif family == 4:
            g = gen_named(("path", "cycle")[k // 10 % 2], _spread(k, 13, 40))
        elif family < 8:
            g = _relabel(rng, _dense_gnp(rng, _spread(k, 13, 48), _spread(k, 40, 80) / 100))
        else:
            g = _relabel(rng, _join_dominating(k, _spread(k, 13, 80)))
        lines.append(encode_graph6(g))
    return lines


def n7_sample(seed: int, count: int) -> list[str]:
    """``count`` labeled connected 7-vertex graphs at distinct random masks.

    Each mask in the 2^21 edge-subset space is drawn at most once and kept
    when ``enumerate_connected`` yields its graph (about 89% do).
    """
    rng = random.Random(f"n7-jobs2:{seed}")
    total = 1 << 21
    seen: set[int] = set()
    lines = []
    while len(lines) < count:
        mask = rng.randrange(total)
        if mask in seen:
            continue
        seen.add(mask)
        for g in enumerate_connected(7, mask_range=(mask, mask + 1)):
            lines.append(encode_graph6(g))
    return lines
