"""Runtime certificate for the degree-prefix bound, decided in integers.

The bound's proof rescales the adjacency matrix by a diagonal similarity
U = diag(x_1, ..., x_{l-1}, 1, ..., 1), x_k = 1 + (d_k - d_l)/(phi_l + 1),
and shows every row sum of B = U^-1 A U is at most phi_l; the row-sum bound
for nonnegative matrices then gives rho <= phi_l.  This module executes that
argument on a concrete graph at every level.

All levels come from one degree ordering.  Vertices are sorted once into
non-increasing degree order, and each row i keeps two integers: c_i, the
number of its neighbors among the scaled vertices 1..l-1 (the prefix P), and
S_i, the sum of their degrees.  Each level adds one vertex to the prefix, so
keeping both current costs O(m) over all levels.  With d = d_l, the excess
E = sum_{k<l} (d_k - d) inside phi_l and T_i = S_i - c_i * d, the identity
phi^2 = (d - 1) phi + d + E cancels phi out of every row inequality, leaving
the integer slack

    slack_i = E + d - d_i - T_i.

On a prefix row it is sum_{k in P - N[i]} (d_k - d), and row i of B sums to
phi - slack_i / ((phi + 1) x_i).  Past the prefix it is
(d - d_i) + sum_{k in P - N(i)} (d_k - d), and the row sums to
phi - ((d - d_i) phi + slack_i) / (phi + 1).  So a nonnegative slack proves
its row is at most phi, and a row meets phi exactly when its slack is zero:
past the prefix d - d_i >= 0 is one of the slack's terms, so a zero slack
forces d_i = d.  Both sums run over nonnegative terms: a negative slack can
only come from faulty bookkeeping, and it is the certificate's one failure.

The slacks are the verdict, O(n) per level and O(n^2 + m) per graph.  A level
whose degree equals the previous level's has the same excess, the same T_i
and so the same slacks, and reuses them.  The float row sums
(d_i + T_i / (phi + 1)) / x_i exist for ``replay``'s output.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .bounds import phi
from .graph_core import DegreeSequence, Graph


class CertificateViolationError(RuntimeError):
    """A row's slack is negative.  This would falsify the implementation
    (its bookkeeping), not the underlying mathematics."""

    def __init__(self, level: int, row: int, slack: int):
        super().__init__(f"row {row} has slack {slack} < 0 at level {level}")
        self.level = level
        self.row = row
        self.slack = slack


class ScalingCertificate(NamedTuple):
    """The proof's row inequalities at one level.

    ``degrees`` and ``slacks`` are indexed in the relabeled (degree-sorted)
    vertex order; ``phi`` is phi_level and ``excess`` its integer excess E.
    The float views ``x`` and ``row_sums`` are computed on access.
    """

    level: int
    degrees: tuple[int, ...]
    slacks: tuple[int, ...]
    phi: float
    excess: int

    @property
    def x(self) -> tuple[float, ...]:
        """Scaling factors x_i = 1 + (d_i - d_level) / (phi_level + 1),
        i < level: each at least 1 because the degrees are sorted."""
        d = self.degrees[self.level - 1]
        den = self.phi + 1.0
        return tuple([1.0 + (d_i - d) / den for d_i in self.degrees[:self.level - 1]])

    @property
    def row_sums(self) -> tuple[float, ...]:
        """Each row of B from its slack: (d_i + T_i / (phi + 1)) / x_i, with
        T_i = E + d - d_i - slack_i and x_i = 1 past the prefix.  The integers
        are exact in floats far below 2**53, so this rounds as the row sum
        formed from c_i and S_i would."""
        d = self.degrees[self.level - 1]
        den = self.phi + 1.0
        x = self.x + (1.0,) * (len(self.degrees) - self.level + 1)
        return tuple([
            (d_i + (self.excess + d - d_i - slack) / den) / x_i
            for d_i, slack, x_i in zip(self.degrees, self.slacks, x)
        ])

    def violation(self) -> CertificateViolationError | None:
        """The first row with a negative slack, or None."""
        for row, slack in enumerate(self.slacks, start=1):
            if slack < 0:
                return CertificateViolationError(self.level, row, slack)
        return None


def row_slacks(g: Graph, first: int = 1) -> Iterator[list[int]]:
    """Every row's slack at levels first..n, in order, from one degree
    ordering.

    Vertices are relabeled into non-increasing degree order (ties broken by
    original index, so runs are reproducible); the lists are indexed in that
    order, and a level whose degree repeats the previous level's yields the
    previous list again.  The slacks are not checked; see
    ``ScalingCertificate.violation``.
    """
    n = g.n
    nbrs = g.neighbors
    deg = [len(nb) for nb in nbrs]
    # a stable sort: reverse=True keeps tied degrees in index order
    order = sorted(range(n), key=deg.__getitem__, reverse=True)
    position = [0] * n
    for pos, v in enumerate(order):
        position[v] = pos
    base = [deg[v] for v in order]  # d_i + S_i
    degrees = tuple(base)
    count = [0] * n  # c_i: neighbors of row i in the prefix
    head = 0  # the degree sum of the prefix
    slacks = None
    for level in range(1, n + 1):
        d = degrees[level - 1]
        if level > 1:
            # vertex level-1 (position level-2) joins the prefix
            d_new = degrees[level - 2]
            head += d_new
            for u in nbrs[order[level - 2]]:
                i = position[u]
                count[i] += 1
                base[i] += d_new
            if d == d_new and slacks is not None:
                yield slacks
                continue
        if level >= first:
            top = head - (level - 2) * d  # E + d
            slacks = [top - b + c * d for b, c in zip(base, count)]
            yield slacks


def row_sums_scaled(g: Graph, level: int) -> ScalingCertificate:
    """The certificate at one level, asserted.

    Raises CertificateViolationError naming the first row with a negative
    slack.
    """
    seq = DegreeSequence.from_degrees(map(len, g.neighbors))
    value = phi(seq, level)  # validates the level
    excess = seq.prefix[level - 1] - (level - 1) * seq.degrees[level - 1]
    cert = ScalingCertificate(level, seq.degrees, tuple(next(row_slacks(g, level))), value, excess)
    exc = cert.violation()
    if exc is not None:
        raise exc
    return cert
