"""Structural classification of when the degree-prefix bound is attained.

For a connected graph, phi_l equals the spectral radius iff the graph is
regular or there is a t <= l with the top t-1 degrees equal to n-1 and the
remaining degrees all equal.  Both conditions are pure integer tests on the
degree sequence, so classification is exact.  The campaign's equality
check tests a prediction against certified ends of the spectral radius.
``tight_levels``, the float tight set at a given tolerance, has two callers,
the benchmark's per-layer trace (``perfbench/layers.py``) and the tests'
``check_equality_numeric``; the next benchmark change deletes it
(ROADMAP item 1b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph_core import DegreeSequence

REGULAR = "Regular"
DOMINATING = "Dominating"
NONE = "None"


@dataclass(frozen=True, slots=True)
class EqualityCertificate:
    """Witness for equality: the kind, the threshold t, and the levels at
    which the bound is predicted to be tight."""

    kind: str
    t: int | None
    predicted_tight_levels: frozenset[int]


def classify_equality(seq: DegreeSequence) -> EqualityCertificate:
    """Classify a connected graph's degree sequence.

    Regular: all degrees equal; every level is tight.  Dominating: with
    c vertices of degree n-1, take t = c+1; requires d_t = d_n, and levels
    t..n are tight.  (t = c+1 is the only candidate: a smaller t would put
    a degree equal to both n-1 and d_n, forcing regularity.)  Otherwise no
    level is tight.
    """
    n = seq.n
    if n < 2:
        raise ValueError(f"equality classification needs n >= 2, got n={n}")
    degrees = seq.degrees
    if degrees[0] == degrees[-1]:
        return EqualityCertificate(REGULAR, None, frozenset(range(1, n + 1)))
    if degrees[0] == n - 1:
        c = 0
        while c < n and degrees[c] == n - 1:
            c += 1
        t = c + 1
        if t <= n and degrees[t - 1] == degrees[-1]:
            cert = EqualityCertificate(DOMINATING, t, frozenset(range(t, n + 1)))
            _check_dominating(seq, cert)
            return cert
    return EqualityCertificate(NONE, None, frozenset())


def _check_dominating(seq: DegreeSequence, cert: EqualityCertificate) -> None:
    t = cert.t
    d = seq.degrees
    n = seq.n
    assert t is not None and 2 <= t <= n
    assert d[0] == d[t - 2] == n - 1 and d[t - 2] > d[t - 1] == d[-1], (
        f"invalid dominating certificate t={t} for degrees {d}"
    )


def tight_levels(phi_values: Iterable[float], rho: float, tol: float = 0.0) -> frozenset[int]:
    """Levels whose phi value is within ``tol`` of ``rho``."""
    return frozenset(
        level for level, value in enumerate(phi_values, start=1)
        if abs(value - rho) <= tol
    )
