"""Spectral radius of a connected graph by two independent methods.

``spectral_radius_power`` runs shifted power iteration; ``spectral_radius_charpoly``
computes the characteristic polynomial in exact integer arithmetic and
isolates its largest real root with a certified bisection.  The two share no
code path, so their agreement is a meaningful cross-check.

The characteristic polynomial comes from Faddeev-LeVerrier with each matrix
row packed into one Python integer of FIELD_BITS-bit signed fields; at
n <= CHARPOLY_MAX_N every entry fits its field (bound in
``characteristic_polynomial``), and the exact trace divisions and the
Cayley-Hamilton check still guard every result.  Root isolation is cached
per process by (polynomial, maximum degree), an exact key."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .graph_core import Graph
from .tolerances import TOLERANCES

MAX_ITERATIONS = 10**6
CHARPOLY_MAX_N = 12
FIELD_BITS = 64


@dataclass(frozen=True, slots=True)
class SpectralResult:
    """Largest adjacency eigenvalue with convergence diagnostics.

    For the power method ``residual`` is the infinity norm of A*v - rho*v at
    the accepted iterate; for the charpoly method it is the width of the
    certified enclosure of the root.
    """

    rho: float
    iterations: int
    residual: float
    method: str


class ConvergenceError(RuntimeError):
    """Power iteration hit its iteration cap.  Carries the last estimate."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


class UnsupportedSizeError(ValueError):
    """Graph too large for the exact characteristic-polynomial method."""


def spectral_radius_power(g: Graph, *, max_iterations: int = MAX_ITERATIONS) -> SpectralResult:
    """Power iteration on A+I from the all-ones vector.

    The +I shift makes the dominant eigenvalue strictly largest in magnitude
    even for bipartite graphs, and the all-ones start has positive overlap
    with the Perron vector, so convergence is guaranteed for connected
    graphs.  Stops once successive Rayleigh quotients differ by less than
    the 'power_step' tolerance and the residual is at most 'power_residual'.
    """
    step_tol, residual_tol = TOLERANCES["power_step"], TOLERANCES["power_residual"]
    n = g.n
    nbrs = g.neighbors
    v = [1.0 / math.sqrt(n)] * n
    rq_prev = None
    rq = 0.0
    for iteration in range(1, max_iterations + 1):
        # one pass: A*v, the Rayleigh quotient, (A+I)*v and its squared norm
        av = [0.0] * n
        w = [0.0] * n
        rq = 0.0
        norm = 0.0
        for i, nb in enumerate(nbrs):
            acc = 0.0
            for u in nb:
                acc += v[u]
            av[i] = acc
            vi = v[i]
            rq += vi * acc
            acc += vi
            w[i] = acc
            norm += acc * acc
        # the residual is read only once the Rayleigh quotients agree
        if rq_prev is not None and abs(rq - rq_prev) < step_tol:
            residual = 0.0
            for i in range(n):
                d = av[i] - rq * v[i]
                if d < 0.0:
                    d = -d
                if d > residual:
                    residual = d
            if residual <= residual_tol:
                return SpectralResult(rq, iteration, residual, "power")
        rq_prev = rq
        norm = math.sqrt(norm)
        v = [x / norm for x in w]
    raise ConvergenceError(
        f"power iteration did not converge in {max_iterations} iterations "
        f"(last estimate {rq})",
        rq,
    )


def characteristic_polynomial(g: Graph) -> tuple[int, ...]:
    """Exact integer coefficients of det(xI - A), constant term first.

    Faddeev-LeVerrier recurrence over the integers, N_0 = I and
    N_k = A*N_{k-1} + c_{n-k}*I with c_{n-k} = -tr(A*N_{k-1})/k.  Each row
    of N is one packed integer with FIELD_BITS-bit signed fields,
    ``N[i] = sum(N[i][j] << FIELD_BITS*j)``, so a row of A*N is a sum of
    packed rows over the vertex's neighbors.  Entries of A*N_k are at most
    2^n (n-1)^(k+1) <= 2^n (n-1)^(n+1) in magnitude, about 1.4e17 < 2^63 at
    n = CHARPOLY_MAX_N, so every field holds its entry.  Two built-in checks
    guard exactness: every trace division must be exact, and the final
    auxiliary matrix must vanish (Cayley-Hamilton).
    """
    n = g.n
    if n > CHARPOLY_MAX_N:
        raise UnsupportedSizeError(
            f"characteristic-polynomial method supports n <= {CHARPOLY_MAX_N}, got {n}"
        )
    nbrs = g.neighbors
    c = [0] * (n + 1)
    c[n] = 1
    shifts = [FIELD_BITS * i for i in range(n)]
    half = 1 << (FIELD_BITS - 1)
    mask = (1 << FIELD_BITS) - 1
    # bias adds half to every field, making each nonnegative, so a field
    # reads back without a borrow from the fields below it
    bias = sum(half << s for s in shifts)
    N = [1 << s for s in shifts]
    for k in range(1, n + 1):
        AN = []
        tr = 0
        for nb, s in zip(nbrs, shifts):
            row = 0
            for u in nb:
                row += N[u]
            AN.append(row)
            tr += (((row + bias) >> s) & mask) - half
        if tr % k:
            raise AssertionError(f"Faddeev-LeVerrier trace {tr} not divisible by {k}")
        ck = -(tr // k)
        c[n - k] = ck
        N = [row + (ck << s) for row, s in zip(AN, shifts)]
    if any(N):
        raise AssertionError("Cayley-Hamilton check failed")
    return tuple(c)


def _derivative_chain(coeffs: tuple[int, ...]) -> list[list[int]]:
    chain = [list(coeffs)]
    while len(chain[-1]) > 1:
        p = chain[-1]
        chain.append([p[i] * i for i in range(1, len(p))])
    return chain


def _at_or_above_root(chain: list[list[int]], x: float) -> bool:
    """Exact test of x >= (largest real root), for a monic polynomial whose
    roots are all real.

    Such x are exactly the points where the polynomial and every derivative
    are nonnegative; x is a dyadic rational, so each sign is an integer
    computation.
    """
    a, b = x.as_integer_ratio()
    maxdeg = len(chain[0]) - 1
    bpow = [1] * (maxdeg + 1)
    for i in range(1, maxdeg + 1):
        bpow[i] = bpow[i - 1] * b
    for poly in chain:
        deg = len(poly) - 1
        acc = poly[deg]
        for i in range(deg - 1, -1, -1):
            acc = acc * a + poly[i] * bpow[deg - i]
        if acc < 0:
            return False
    return True


def largest_real_root(coeffs: tuple[int, ...], upper: int) -> tuple[float, float, int]:
    """Largest real root of a monic integer polynomial with all-real roots.

    ``upper`` must be an integer known to be >= the root.  Returns
    (root estimate, certified enclosure width, iterations).  A float Newton
    sweep from above supplies the initial guess; the answer is then bracketed
    and bisected with exact integer sign tests until the enclosure is at most
    the 'root_enclosure' tolerance wide.
    """
    newton_tol, seed = TOLERANCES["newton_step"], TOLERANCES["root_bracket"]
    enclosure = TOLERANCES["root_enclosure"]
    n = len(coeffs) - 1
    chain = _derivative_chain(coeffs)
    cf = [float(x) for x in coeffs]
    dcf = [cf[i] * i for i in range(1, n + 1)]
    iterations = 0
    x = float(upper) + 1.0
    for _ in range(200):
        iterations += 1
        p = cf[n]
        for i in range(n - 1, -1, -1):
            p = p * x + cf[i]
        dp = dcf[n - 1]
        for i in range(n - 2, -1, -1):
            dp = dp * x + dcf[i]
        if dp <= 0.0:
            break
        step = p / dp
        x -= step
        if abs(step) < newton_tol:
            break

    hi = x + seed
    margin = seed
    while not _at_or_above_root(chain, hi):
        hi += margin
        margin *= 8.0
    lo = x - seed
    if lo <= 0.0:
        lo = 0.0
    else:
        margin = seed
        while lo > 0.0 and _at_or_above_root(chain, lo):
            lo -= margin
            margin *= 8.0
        if lo < 0.0:
            lo = 0.0
    if lo == 0.0 and _at_or_above_root(chain, 0.0):
        return 0.0, 0.0, iterations
    while hi - lo > enclosure:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if _at_or_above_root(chain, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), hi - lo, iterations


# The characteristic polynomial is a graph invariant and the root depends
# only on (coeffs, upper), so isomorphic graphs share one entry.  The key is
# exact and the function deterministic: a warm entry returns what a fresh
# call would, whichever process holds the cache.
_cached_root = functools.lru_cache(maxsize=1 << 14)(largest_real_root)


def spectral_radius_charpoly(g: Graph) -> SpectralResult:
    """Exact-charpoly spectral radius for graphs with at most 12 vertices.

    The largest root is bracketed inside [average degree, maximum degree]
    and certified to within the 'root_enclosure' tolerance by integer sign
    tests, so the result is independent of the power method in both
    algorithm and arithmetic.  The root isolation is cached per process
    under the exact key (characteristic polynomial, maximum degree); the
    polynomial itself is computed for every graph.
    """
    coeffs = characteristic_polynomial(g)
    d1 = max((len(nb) for nb in g.neighbors), default=0)
    rho, width, iterations = _cached_root(coeffs, d1)
    return SpectralResult(rho, iterations, width, "charpoly")
