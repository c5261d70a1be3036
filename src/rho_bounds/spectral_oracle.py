"""Spectral radius of a connected graph by two independent methods.

``spectral_radius_power`` runs Lanczos (Lanczos, 1950) over the neighbor
lists from the all-ones vector; ``spectral_radius_charpoly`` computes the
characteristic polynomial in exact integer arithmetic and isolates its
largest real root with a certified bisection.  The two share no code path
(the tridiagonal eigenvalue solver here is not the polynomial root finder),
so their agreement is a meaningful cross-check.  Each returns certified
ends lo <= rho <= hi: exact sign tests for the charpoly, and for Lanczos the
Collatz-Wielandt bracket of its Ritz vector (Collatz 1942; Wielandt 1950),
from exact integer products.  A campaign needs no charpoly enclosure: it
decides lo < rho <= hi for Lanczos's own ends with the same exact sign test
(``at_or_above_root`` on the polynomial's ``derivative_chain``).

Lanczos keeps the tridiagonal's coefficients and its first
max(1, KEPT_FLOATS // n) vectors, so its memory is O(n + k) after k steps
plus a fixed KEPT_FLOATS floats; the Ritz vector is summed in a second pass
from the kept vectors and regenerates only the rest, and rho is accepted
only on an explicit residual test.

Lanczos's SpectralResult is a function of the graph's isomorphism class,
bit for bit, so a result may be reused for any relabeling of its graph.
Relabeling permutes the entries of every vector and leaves every scalar
alone, because each float operation is elementwise, exact (the integer
products of the Ritz pass), a min or a max, or a sum over vertices rounded
once.  Those sums, the neighbor sums of each product with A and every dot
product, are ``math.fsum``: correctly rounded, so independent of the order
of the terms (Shewchuk, "Adaptive Precision Floating-Point Arithmetic",
DCG 18, 1997).

The characteristic polynomial comes from Faddeev-LeVerrier with each matrix
row packed into one Python integer of FIELD_BITS-bit signed fields; at
n <= CHARPOLY_MAX_N every entry fits its field (bound in
``characteristic_polynomial``), and the exact trace divisions and the
Cayley-Hamilton check still guard every result.

POWER_RESIDUAL and ROOT_ENCLOSURE, the solvers' stops, are the package's only
tolerances; they set how close the certified ends are, and no verdict reads
them.  ROOT_ENCLOSURE sets only ``spectral_radius_charpoly``'s width, which
no campaign runs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from operator import add, mul, truediv

from .graph_core import Graph

MAX_ITERATIONS = 10**6
CHARPOLY_MAX_N = 12
FIELD_BITS = 64
POWER_RESIDUAL = 1e-9   # Lanczos: residual to stop at and to accept, |Ay - rho y|_inf / |y|_2
ROOT_ENCLOSURE = 1e-13  # root isolation: first bracket step and the width to bisect down to
#: Lanczos skips the solve of T_k at steps whose residual, predicted from
#: the last step, is above this many times POWER_RESIDUAL.
SOLVE_FACTOR = 100.0
#: Lanczos keeps its first max(1, KEPT_FLOATS // n) vectors for the Ritz
#: pass and regenerates only the rest.
KEPT_FLOATS = 1 << 13


@dataclass(frozen=True, slots=True)
class SpectralResult:
    """Largest adjacency eigenvalue, an iteration count, and proven ends
    ``lo <= rho(A) <= hi`` around the float estimate ``rho``.

    For the Lanczos method ``iterations`` counts products with A (the
    steps, the regenerated Lanczos vectors, A*y and the certified ends), and
    (lo, hi) is the accepted Ritz vector y's Collatz-Wielandt bracket, or,
    when y is not positive, its Rayleigh quotient and the largest
    Collatz-Wielandt quotient of a positive vector grown from max(y, 0)
    (``_certified_ends``).  For the charpoly method they are the root
    isolation's iterations and the ends of its certified bisection.
    """

    rho: float
    iterations: int
    lo: float
    hi: float


class ConvergenceError(RuntimeError):
    """Lanczos hit its cap on products with A.  Carries the last estimate."""

    def __init__(self, message: str, last_estimate: float):
        super().__init__(message)
        self.last_estimate = last_estimate


class UnsupportedSizeError(ValueError):
    """Graph too large for the exact characteristic-polynomial method."""


def _product(nbrs, q, q_prev, beta_prev: float) -> tuple[list[float], float]:
    """A*q - beta_prev*q_prev over the neighbor lists, and its dot product
    with q; each sum is rounded once, so the order of its terms, and the
    labeling, cannot change it."""
    get = q.__getitem__
    w = [math.fsum(map(get, nb)) - beta_prev * pi for nb, pi in zip(nbrs, q_prev)]
    return w, math.fsum(map(mul, q, w))


def _pivots(alphas: list[float], betas: list[float], x: float):
    """One UDU^T pass over T - x*I from the last row up, T the k-by-k
    tridiagonal with diagonal ``alphas`` and off-diagonal ``betas``.

    The pivots are d_k = a_k - x and d_j = a_j - x - b_j^2 / d_{j+1}; their
    derivatives in x are e_k = -1 and e_j = -1 + b_j^2 e_{j+1} / d_{j+1}^2.
    The number of nonnegative pivots is the number of eigenvalues at or
    above x (a Sturm count).  The pass returns None at the first
    nonnegative pivot above d_1, so x lies above the largest eigenvalue of
    every trailing block T[j:k], j >= 2, whenever it returns
    (sum_{j>1} e_j / d_j, e_1, d_1, prod_{j>1} b_{j-1}^2 / d_j^2).

    Then d_1 < 0 says x is above every eigenvalue, and the full sum
    e_1/d_1 + ... is p'(x)/p(x) for p = det(T - x*I).  At an eigenvalue
    with unit eigenvector s, -1/e_1 is s_1^2 and the product is
    s_k^2 / s_1^2.  Running from the bottom matters once Lanczos has
    converged: the top eigenvalue then agrees with that of the leading
    blocks to rounding, so top-down pivots pass through zero, while the
    trailing blocks stay clear of it.
    """
    rows = reversed(alphas)
    d = next(rows) - x
    e = -1.0
    g = 0.0
    ratio = 1.0
    for a, b in zip(rows, reversed(betas)):
        if not d < 0.0:
            return None
        g += e / d
        t = b * b / d
        u = t / d
        e = u * e - 1.0
        ratio *= u
        d = a - x - t
    return g, e, d, ratio


def _largest_eigenvalue(alphas, betas, upper: float, bound: float):
    """Largest eigenvalue theta of the tridiagonal T, with e_1 and the
    product of ``_pivots`` at the last point evaluated (theta, or one
    Newton step above it).

    Newton on det(T - x*I) from above the largest root decreases
    monotonically to it, because every root is real.  ``upper`` is a guess
    that the Sturm count confirms or rejects; ``bound`` is a proven bound
    (Gershgorin's), widened only if rounding rejects it.  The iteration
    stops when a step should leave less than a unit in the last place
    (quadratic convergence: about step^3 / last_step^2), when rounding puts
    the next point at or below the root (d_1 turns nonnegative: that point
    is the root to rounding), or when a step no longer moves x down.
    """
    x = upper
    found = _pivots(alphas, betas, x)
    while found is None or not found[2] < 0.0:
        x, bound = bound, bound + (bound - upper) + 1.0
        found = _pivots(alphas, betas, x)
    g, e, d, ratio = found
    last = 0.0
    while True:
        step = 1.0 / (g + e / d)
        nxt = x - step
        if not nxt < x:
            break
        if step * step * step <= last * last * math.ulp(x):
            return nxt, e, ratio
        found = _pivots(alphas, betas, nxt)
        if found is None:
            break
        x, last = nxt, step
        g, e, d, ratio = found
        if not d < 0.0:
            break
    return x, e, ratio


def _ritz_coefficients(alphas, betas, theta: float) -> list[float]:
    """The eigenvector s of T for its largest eigenvalue theta, scaled to
    s_1 = 1.

    With T - theta*I = U D U^T, solving U^T s = e_1 gives
    s_{j+1} = -b_j s_j / d_{j+1}.  Every pivot d_j with j > 1 is negative,
    so every entry is positive and formed without cancellation.
    """
    k = len(alphas)
    pivots = [0.0] * k
    d = alphas[-1] - theta
    for j in range(k - 1, 0, -1):
        if not d < 0.0:
            # rounding put theta on an eigenvalue of a trailing block
            return _ritz_coefficients(alphas, betas, math.nextafter(theta, math.inf))
        pivots[j] = d
        d = alphas[j - 1] - theta - betas[j - 1] * betas[j - 1] / d
    s = [1.0] * k
    for j in range(1, k):
        s[j] = s[j - 1] * betas[j - 1] / -pivots[j]
    return s


def _certified_ends(Y: list[int], AY: list[int], nbrs, target: float, budget: int):
    """(lo, hi, products spent) with lo <= rho(A) <= hi, from an integer
    vector Y != 0 and AY = A*Y.

    For Y > 0 they are Y's Collatz-Wielandt bracket min AY_i/Y_i <= rho <=
    max AY_i/Y_i (Collatz 1942; Wielandt 1950), each quotient rounded once
    and then moved one unit outward.  Otherwise, as where a localized Perron
    vector's tail is below Lanczos's residual and Y's is noise, lo is the
    Rayleigh quotient Y.AY / Y.Y, at or below the largest eigenvalue of the
    symmetric A for every Y, and hi the largest quotient of a positive Z:
    Z starts at max(Y, 0) and takes products with A + I, which spread its
    support by one edge each and, once Z > 0, never raise hi.  They stop
    when hi is at most ``target`` or stops falling, or after ``budget``
    products, and a Z still not positive leaves hi = d_1.
    """
    if min(Y) > 0:
        ratios = list(map(truediv, AY, Y))
        return math.nextafter(min(ratios), -math.inf), math.nextafter(max(ratios), math.inf), 0
    lo = math.nextafter(sum(map(mul, Y, AY)) / sum(map(mul, Y, Y)), -math.inf)
    Z = [max(y, 0) for y in Y]
    hi, last = float(max(map(len, nbrs))), math.inf
    spent = 0
    while spent < budget:
        spent += 1
        get = Z.__getitem__
        AZ = [sum(map(get, nb)) for nb in nbrs]
        if min(Z) > 0:
            hi = max(map(truediv, AZ, Z))
            if hi <= target or not hi < last:
                break
            last = hi
        Z = list(map(add, AZ, Z))
    return lo, math.nextafter(hi, math.inf), spent


def spectral_radius_power(g: Graph) -> SpectralResult:
    """Largest adjacency eigenvalue by Lanczos from the all-ones vector (the
    name predates Lanczos).

    Step k multiplies the Lanczos vector q_k by A and appends alpha_k and
    beta_k to the tridiagonal T_k.  With theta the largest eigenvalue of
    T_k and s its unit eigenvector, beta_k*|s_k| is the residual of the
    Ritz pair in exact arithmetic, and the steps stop once it is at most
    POWER_RESIDUAL.  A step finds theta and s_k (``_largest_eigenvalue``,
    Newton warm-started from the last step) only
    when the residual predicted from the last step's, beta_k*r/(theta -
    alpha_k) for the 2-by-2 coupling of the last Ritz pair to the new row,
    is within SOLVE_FACTOR of POWER_RESIDUAL; otherwise it carries the
    2-by-2 estimates forward.  The prediction holds once the Ritz vector
    has settled, not while it still spreads over the whole basis (long
    paths), so a solve that finds the residual above SOLVE_FACTOR times
    POWER_RESIDUAL turns the skipping off until a solve finds it within:
    Newton needs a start close above the root, and a stale theta at large
    k costs O(k) passes.

    The first pass keeps q_1..q_r, r = max(1, KEPT_FLOATS // n).  A second
    pass sums the Ritz vector y = sum s_j q_j from them and regenerates
    q_{r+1}..q_k from the last two kept vectors and the stored coefficients
    (the same floats in the same order, so the same vectors, whatever the
    budget), then forms A*Y in integers for Y = y*2^s, 2^-s the smallest
    unit in y.  rho = y.Ay / y.y, every sum in it rounded once, is accepted
    with the certified ends of ``_certified_ends`` (target rho +
    POWER_RESIDUAL) when the explicit residual |Ay - rho*y|_inf / |y|_2
    is at most POWER_RESIDUAL; otherwise Lanczos restarts from y, keeping
    its vectors anew.  The all-ones start has positive overlap with the
    Perron vector, so the largest eigenvalue of A is in reach on a
    connected graph.  Memory is O(n + k) plus the KEPT_FLOATS floats of the
    kept vectors (about 256 KiB as Python floats).

    MAX_ITERATIONS, read at each call, caps the products with A: the
    steps, the regenerated vectors, A*Y, every restart and the certified
    ends; ``iterations`` reports the products used.
    """
    tol = POWER_RESIDUAL
    nbrs = g.neighbors
    zeros = [0.0] * g.n
    start = [1.0] * g.n
    keep = max(1, KEPT_FLOATS // g.n)
    products = 0
    theta = 0.0

    def count_product():
        nonlocal products
        if products == MAX_ITERATIONS:
            raise ConvergenceError(
                f"Lanczos did not converge in {MAX_ITERATIONS} products with A "
                f"(last estimate {theta})",
                theta,
            )
        products += 1

    while True:
        scale = math.sqrt(math.fsum([x * x for x in start]))
        q = [x / scale for x in start]
        kept = [q]
        q_prev, beta_prev = zeros, 0.0
        alphas: list[float] = []
        betas: list[float] = []
        residual = gershgorin = 0.0
        predict = True
        while True:
            count_product()
            w, alpha = _product(nbrs, q, q_prev, beta_prev)
            alphas.append(alpha)
            w = [wi - alpha * qi for wi, qi in zip(w, q)]
            beta = math.sqrt(math.fsum([wi * wi for wi in w]))
            if len(alphas) == 1:
                theta, residual = alpha, beta
            else:
                # theta's shift, and the residual, when only theta's Ritz
                # pair is coupled to the new row (a 2-by-2 eigenproblem)
                half = 0.5 * (theta - alpha)
                shift = math.sqrt(half * half + residual * residual) - half
                if (predict and theta > alpha
                        and beta * residual > SOLVE_FACTOR * tol * (theta - alpha)):
                    theta, residual = theta + shift, beta * residual / (theta - alpha)
                else:
                    theta, e, ratio = _largest_eigenvalue(
                        alphas, betas, theta + 2.0 * shift, max(gershgorin, alpha + beta_prev))
                    residual = beta * math.sqrt(ratio / -e)
                    # skip again only after a solve within SOLVE_FACTOR
                    predict = residual <= SOLVE_FACTOR * tol
            if residual <= tol:
                break
            gershgorin = max(gershgorin, alpha + beta_prev + beta)
            betas.append(beta)
            q_prev, q, beta_prev = q, [wi / beta for wi in w], beta
            if len(kept) < keep:
                kept.append(q)
        s = _ritz_coefficients(alphas, betas, theta)
        q, q_prev, beta_prev = kept[0], zeros, 0.0
        y = [s[0] * qi for qi in q]
        for j, (sj, alpha, beta) in enumerate(zip(islice(s, 1, None), alphas, betas), 1):
            if j < len(kept):
                q_next = kept[j]
            else:
                count_product()
                w, _ = _product(nbrs, q, q_prev, beta_prev)
                q_next = [(wi - alpha * qi) / beta for wi, qi in zip(w, q)]
            q_prev, q, beta_prev = q, q_next, beta
            y = [yi + sj * qi for yi, qi in zip(y, q)]
        count_product()
        # A*Y exact; every entry of A*y and both dot products rounded once
        ratios = [yi.as_integer_ratio() for yi in y]
        unit = max([q for _, q in ratios])
        Y = [p * (unit // q) for p, q in ratios]
        get = Y.__getitem__
        AY = [sum(map(get, nb)) for nb in nbrs]
        ay = [x / unit for x in AY]
        yy = math.fsum(map(mul, y, y))
        rho = math.fsum(map(mul, y, ay)) / yy
        residual = max([abs(ai - rho * yi) for ai, yi in zip(ay, y)]) / math.sqrt(yy)
        if residual <= tol:
            lo, hi, spent = _certified_ends(Y, AY, nbrs, rho + tol, MAX_ITERATIONS - products)
            return SpectralResult(rho, products + spent, lo, hi)
        theta, start = rho, y


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


def derivative_chain(coeffs: tuple[int, ...]) -> list[list[int]]:
    """The polynomial's coefficients, constant term first, then those of
    each derivative down to the constant one: ``at_or_above_root``'s chain."""
    chain = [list(coeffs)]
    while len(chain[-1]) > 1:
        p = chain[-1]
        chain.append([p[i] * i for i in range(1, len(p))])
    return chain


def at_or_above_root(chain: list[list[int]], x: float) -> bool:
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

    The caller must know the root to lie in [0, ``upper``], ``upper`` an
    integer.  Returns (lo, hi, iterations) with lo < root <= hi certified by
    exact sign tests and hi - lo at most ROOT_ENCLOSURE, or adjacent floats
    where floats lie farther apart (a root above 512); a root at 0 gives
    (0.0, 0.0).  A float Newton sweep from above supplies the initial guess:
    started above the largest root it falls monotonically, so it stops when
    a step no longer moves it down.  The bracket is one ROOT_ENCLOSURE to
    each side of that point; a side that fails its sign test falls back to
    the proven end (``upper`` above, 0 below).  Bisection with exact integer
    sign tests then narrows it to at most ROOT_ENCLOSURE.
    """
    n = len(coeffs) - 1
    chain = derivative_chain(coeffs)
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
        nxt = x - p / dp
        if not nxt < x:
            break
        x = nxt

    hi = x + ROOT_ENCLOSURE
    if not at_or_above_root(chain, hi):
        hi = float(upper)
    lo = x - ROOT_ENCLOSURE
    if lo <= 0.0 or at_or_above_root(chain, lo):
        lo = 0.0
        if at_or_above_root(chain, lo):
            return 0.0, 0.0, iterations
    while hi - lo > ROOT_ENCLOSURE:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if at_or_above_root(chain, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi, iterations


def spectral_radius_charpoly(g: Graph) -> SpectralResult:
    """Exact-charpoly spectral radius for graphs with at most 12 vertices.

    The largest root lies in [0, maximum degree]; ``largest_real_root``
    certifies its ends by integer sign tests, falling back to these proven
    ends where a bracket around Newton's point fails, so the result is
    independent of the power method in both algorithm and arithmetic.
    ``rho`` is the midpoint of the certified ends ``lo`` and ``hi``.
    """
    d1 = max((len(nb) for nb in g.neighbors), default=0)
    lo, hi, iterations = largest_real_root(characteristic_polynomial(g), d1)
    return SpectralResult(0.5 * (lo + hi), iterations, lo, hi)
