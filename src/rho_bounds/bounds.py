"""Upper bounds for the spectral radius driven by the degree sequence alone.

The central family is ``phi``: for a level l, the bound

    phi_l = (d_l - 1 + sqrt((d_l + 1)^2 + 4 * sum_{i<l} (d_i - d_l))) / 2.

It refines the classical one-number bounds (max degree, Brualdi-Hoffman,
Stanley, Hong, Hong-Shu-Fang) and the Shu-Wu per-level bound, all of which
are implemented here as well.  phi, Shu-Wu and Hong-Shu-Fang are exact
integer pairs (a, b) for (a + sqrt(b))/2, which ``compare_half_surds`` orders
in integers; a float bound only rounds its pair, at the final square root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .equality import EqualityCertificate, classify_equality
from .graph_core import DegreeSequence

GREATER, EQUAL, LESS = 1, 0, -1

#: Levels are 1-based throughout: level l refers to the l-th largest degree.


def _check_level(seq: DegreeSequence, level: int) -> None:
    if not 1 <= level <= seq.n:
        raise ValueError(f"level {level} out of range 1..{seq.n}")


def _rounded(surd: tuple[int, int]) -> float:
    """The float of an exact pair (a, b): (a + sqrt(b)) / 2."""
    a, b = surd
    return (a + math.sqrt(b)) / 2


def phi(seq: DegreeSequence, level: int) -> float:
    """Degree-prefix bound at a level from the top ``level`` degrees, the
    float of :func:`phi_surd`; at level 1 it is the maximum degree."""
    return _rounded(phi_surd(seq, level))


def bound_shu_wu(seq: DegreeSequence, level: int) -> float:
    """Shu-Wu bound at a level, the float rounding of :func:`shu_wu_surd`."""
    return _rounded(shu_wu_surd(seq, level))


def bound_hong_shu_fang(seq: DegreeSequence) -> float:
    """Hong-Shu-Fang bound, the float rounding of :func:`hong_shu_fang_surd`."""
    return _rounded(hong_shu_fang_surd(seq))


def bound_hong(seq: DegreeSequence) -> float:
    """Hong's bound sqrt(2m - n + 1); tight on stars and complete graphs."""
    return math.sqrt(2 * seq.m - seq.n + 1)


def bound_stanley(m: int) -> float:
    """Stanley's bound (-1 + sqrt(1 + 8m)) / 2 from the edge count alone."""
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    return (-1 + math.sqrt(1 + 8 * m)) / 2


def bound_brualdi_hoffman(m: int) -> float:
    """Brualdi-Hoffman bound: k-1 for the smallest k with m <= k(k-1)/2."""
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got {m}")
    # k = ceil((1 + sqrt(8m + 1)) / 2); the isqrt gives its floor
    k = (1 + math.isqrt(8 * m + 1)) // 2
    if k * (k - 1) // 2 < m:
        k += 1
    return float(k - 1)


def bound_max_degree(seq: DegreeSequence) -> float:
    """Maximum row-sum bound: the largest degree."""
    return float(seq.degrees[0])


def phi_surd(seq: DegreeSequence, level: int) -> tuple[int, int]:
    """phi at a level as the exact surd pair (a, b), phi = (a + sqrt(b))/2.

    a = d_level - 1 and b = (d_level + 1)^2 + 4E, where the excess
    E = sum_{i<level} (d_i - d_level) = prefix[level-1] - (level-1)*d_level.
    """
    _check_level(seq, level)
    d = seq.degrees[level - 1]
    excess = seq.prefix[level - 1] - (level - 1) * d
    return d - 1, (d + 1) * (d + 1) + 4 * excess


def shu_wu_surd(seq: DegreeSequence, level: int) -> tuple[int, int]:
    """Shu-Wu at a level as the exact pair (a, b): phi's, with every prefix
    gap overestimated by d_1 - d_level, so E = (level - 1)(d_1 - d_level)."""
    _check_level(seq, level)
    d = seq.degrees[level - 1]
    return d - 1, (d + 1) * (d + 1) + 4 * (level - 1) * (seq.degrees[0] - d)


def hong_shu_fang_surd(seq: DegreeSequence) -> tuple[int, int]:
    """Hong-Shu-Fang as the exact pair (a, b) from d_n and m: phi's at level
    n, whose full-prefix excess telescopes to E = 2m - n*d_n."""
    d = seq.degrees[-1]
    return d - 1, (d + 1) * (d + 1) + 4 * (2 * seq.m - seq.n * d)


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def surd_sign(p: int, q: int, r: int) -> int:
    """Exact sign of p + q*sqrt(r) for integers with r >= 0: 1, 0 or -1.

    Equal or zero signs of the two terms decide; opposite signs compare
    p^2 with q^2 * r.
    """
    if r < 0:
        raise ValueError(f"radicand must be nonnegative, got {r}")
    s, t = _sign(p), _sign(q) if r else 0
    if s * t >= 0:
        return s or t
    return s * _sign(p * p - q * q * r)


def compare_half_surds(a1: int, b1: int, a2: int, b2: int) -> int:
    """Exact sign of (a1 + sqrt(b1))/2 - (a2 + sqrt(b2))/2 for integers.

    Requires b1, b2 >= 0.  Returns 1, 0, or -1.  With d = a1 - a2 and
    u = d + sqrt(b1), the sign is that of u - sqrt(b2): u <= 0 decides (0
    only when u = 0 and b2 = 0), and otherwise it is the sign of
    u^2 - b2 = (d^2 + b1 - b2) + 2d*sqrt(b1).
    """
    if b2 < 0:
        raise ValueError(f"radicand must be nonnegative, got {b2}")
    d = a1 - a2
    u = surd_sign(d, 1, b1)
    if u <= 0:
        return -1 if u or b2 else 0
    return surd_sign(d * d + b1 - b2, 2 * d, b1)


def compare_step(seq: DegreeSequence, s: int) -> int:
    """Exact ordering of phi_s versus phi_{s+1}: GREATER, EQUAL, or LESS.

    Equal degrees force equal phi values.  Otherwise the ordering of the
    two phi values matches the ordering of prefix[s] against s(s-1), an
    integer test, so no floating subtraction is involved.
    """
    if not 1 <= s <= seq.n - 1:
        raise ValueError(f"step index {s} out of range 1..{seq.n - 1}")
    if seq.degrees[s - 1] == seq.degrees[s]:
        return EQUAL
    return _sign(seq.prefix[s] - s * (s - 1))


@dataclass(frozen=True, slots=True)
class PhiSequence:
    """All n phi values, rounded and as exact pairs, and where the minimum is.

    ``argmin_levels`` and ``pivot`` come from exact integer tests on the
    degree sequence (see :func:`phi_sequence`), not from comparing floats.
    """

    values: tuple[float, ...]
    surds: tuple[tuple[int, int], ...]
    argmin_levels: frozenset[int]
    pivot: int | None

    @property
    def minimum(self) -> float:
        return self.values[min(self.argmin_levels) - 1]


def phi_sequence(seq: DegreeSequence) -> PhiSequence:
    """Evaluate phi at every level and locate the minimum without a scan.

    The pivot is the smallest level l in [3, n] whose full prefix satisfies
    prefix[l] < l(l-1); past it the sequence never decreases again, so
    phi_pivot is minimal.  A level j attains the minimum iff d_j equals
    d_pivot, or d_j equals d_{pivot-1} when prefix[pivot-1] equals
    (pivot-1)(pivot-2) exactly.  When no level qualifies (complete and
    near-complete sequences) the sequence is non-increasing, the minimum is
    phi_n, and the levels with the last degree attain it.
    """
    n = seq.n
    degrees = seq.degrees
    prefix = seq.prefix
    surds = tuple(phi_surd(seq, level) for level in range(1, n + 1))
    qualifying = (level for level in range(3, n + 1) if prefix[level] < level * (level - 1))
    pivot = next(qualifying, None)
    if pivot is None:
        attaining = {degrees[-1]}
    else:
        attaining = {degrees[pivot - 1]}
        if prefix[pivot - 1] == (pivot - 1) * (pivot - 2):
            attaining.add(degrees[pivot - 2])
    argmin_levels = frozenset(j for j in range(1, n + 1) if degrees[j - 1] in attaining)
    return PhiSequence(tuple(map(_rounded, surds)), surds, argmin_levels, pivot)


def is_graphical(degrees: list[int] | tuple[int, ...]) -> bool:
    """Erdos-Gallai test: is the sequence the degree sequence of some graph?

    The tail sum_{i>k} min(d_i, k) is k for each of the degrees >= k past
    position k and d_i for the rest; the degrees >= k are a prefix of the
    sorted sequence whose end only moves left as k grows, so the test is
    linear after the sort.
    """
    ds = sorted(degrees, reverse=True)
    n = len(ds)
    if n == 0 or ds[-1] < 0 or ds[0] >= n or sum(ds) % 2:
        return False
    prefix = [0] * (n + 1)
    for i, d in enumerate(ds):
        prefix[i + 1] = prefix[i] + d
    high = n  # ds[:high] are the degrees >= k
    for k in range(1, n + 1):
        while high and ds[high - 1] < k:
            high -= 1
        j = max(high, k)
        tail = k * (j - k) + prefix[n] - prefix[j]
        if prefix[k] > k * (k - 1) + tail:
            return False
    return True


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Every bound a degree sequence determines, and its equality certificate.

    A report holds nothing that depends on the graph beyond its degree
    sequence, so equal sequences give equal reports with equal hashes.
    ``cert`` is None at n=1, where equality is not classified.
    """

    phis: PhiSequence
    shu_wu_surds: tuple[tuple[int, int], ...]
    hong_shu_fang: float
    hong: float
    stanley: float
    brualdi_hoffman: float
    max_degree: float
    cert: EqualityCertificate | None


def bound_report(seq: DegreeSequence) -> BoundReport:
    """Assemble all bounds and the equality certificate for a degree sequence."""
    return BoundReport(
        phis=phi_sequence(seq),
        shu_wu_surds=tuple(shu_wu_surd(seq, level) for level in range(1, seq.n + 1)),
        hong_shu_fang=bound_hong_shu_fang(seq),
        hong=bound_hong(seq),
        stanley=bound_stanley(seq.m),
        brualdi_hoffman=bound_brualdi_hoffman(seq.m),
        max_degree=bound_max_degree(seq),
        cert=classify_equality(seq) if seq.n >= 2 else None,
    )
