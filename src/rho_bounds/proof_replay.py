"""Runtime certificate for the degree-prefix bound.

The bound's proof rescales the adjacency matrix by a diagonal similarity
U = diag(x_1, ..., x_{l-1}, 1, ..., 1) and shows every row sum of
B = U^-1 A U is at most phi_l; the row-sum bound for nonnegative matrices
then gives rho <= phi_l.  This module executes that argument on a concrete
graph at every level, and fails loudly if any row exceeds the bound.

All levels come from one degree ordering.  Vertices are sorted once into
non-increasing degree order, and each row i keeps two integers: c_i, the
number of its neighbors among the scaled vertices 1..l-1 (the prefix), and
S_i, the sum of their degrees.  Each level adds one vertex to the prefix,
so keeping both current costs O(m) over all levels.  Since
x_k = 1 + (d_k - d_l)/(phi_l + 1), row i of B sums to

    (d_i + (S_i - c_i * d_l) / (phi_l + 1)) / x_i     (x_i = 1 past the prefix)

which is O(n) per level and O(n^2 + m) per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .bounds import phi
from .graph_core import DegreeSequence, Graph
from .tolerances import TOLERANCES


class CertificateViolationError(RuntimeError):
    """A scaled row sum exceeded the bound.  This would falsify the
    implementation (or its arithmetic), not the underlying mathematics."""

    def __init__(self, level: int, row: int, row_sum: float, bound: float):
        super().__init__(
            f"row {row} has scaled sum {row_sum!r} > bound {bound!r} "
            f"at level {level}"
        )
        self.level = level
        self.row = row
        self.row_sum = row_sum
        self.bound = bound


@dataclass(frozen=True, slots=True)
class ScalingCertificate:
    """Scaling vector and the row sums it produces at one level.

    ``x`` has length level-1 and ``row_sums`` is indexed in the relabeled
    (degree-sorted) vertex order.
    """

    level: int
    x: tuple[float, ...]
    row_sums: tuple[float, ...]
    phi: float
    max_row_sum: float

    def violation(self, tol: float = TOLERANCES["replay"]) -> CertificateViolationError | None:
        """The first row whose sum exceeds ``phi + tol``, or None."""
        bound = self.phi + tol
        if self.max_row_sum <= bound:
            return None
        for row, r in enumerate(self.row_sums, start=1):
            if r > bound:
                return CertificateViolationError(self.level, row, r, self.phi)
        return None


def _scaling(degrees, level: int, value: float) -> tuple[float, ...]:
    """Scaling factors x_i = 1 + (d_i - d_level) / (phi_level + 1), i < level:
    each at least 1 because the degrees are sorted, none at level 1."""
    d_level = degrees[level - 1]
    den = value + 1.0
    return tuple([1.0 + (d - d_level) / den for d in degrees[:level - 1]])


def replay_levels(g: Graph, first: int = 1) -> Iterator[ScalingCertificate]:
    """Certificates at levels first..n, in order, from one degree ordering.

    Vertices are relabeled into non-increasing degree order (ties broken by
    original index, so runs are reproducible).  The certificates are not
    checked against the bound; see ``ScalingCertificate.violation``.
    """
    n = g.n
    nbrs = g.neighbors
    deg = [len(nb) for nb in nbrs]
    # a stable sort: reverse=True keeps tied degrees in index order
    order = sorted(range(n), key=deg.__getitem__, reverse=True)
    seq = DegreeSequence.from_degrees([deg[v] for v in order])
    phi(seq, first)  # validates the first level
    # integers held as floats (exact far below 2**53): float arithmetic on
    # them rounds exactly as int/float arithmetic would, and runs faster
    degrees = [float(d) for d in seq.degrees]
    ones = (1.0,) * n
    position = [0] * n
    for pos, v in enumerate(order):
        position[v] = pos
    count = [0.0] * n  # c_i: neighbors of row i in the prefix
    total = [0.0] * n  # S_i: the degree sum of those neighbors
    for level in range(1, n + 1):
        if level > 1:
            # vertex level-1 (position level-2) joins the prefix
            d_new = degrees[level - 2]
            for u in nbrs[order[level - 2]]:
                i = position[u]
                count[i] += 1.0
                total[i] += d_new
        if level < first:
            continue
        value = phi(seq, level)
        x = _scaling(degrees, level, value)
        d_level = degrees[level - 1]
        den = value + 1.0
        rows = [
            (d + (s - c * d_level) / den) / w
            for d, s, c, w in zip(degrees, total, count, x + ones[level - 1:])
        ]
        yield ScalingCertificate(level, x, tuple(rows), value, max(rows))


def row_sums_scaled(g: Graph, level: int, tol: float = TOLERANCES["replay"]) -> ScalingCertificate:
    """Row sums of the rescaled adjacency matrix at one level, asserted
    against the bound: the one-level view of ``replay_levels``.

    Raises CertificateViolationError naming the first row above ``phi + tol``.
    """
    cert = next(replay_levels(g, level))
    exc = cert.violation(tol)
    if exc is not None:
        raise exc
    return cert
