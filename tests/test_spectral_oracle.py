import collections
import math
import random
import tracemalloc

import pytest

from conftest import (
    characteristic_polynomial_dense,
    class_key,
    lollipop,
    random_connected_graph,
    random_graph,
    random_tree,
)
from rho_bounds import (
    ConvergenceError,
    Graph,
    UnsupportedSizeError,
    characteristic_polynomial,
    degree_sequence,
    encode_graph6,
    enumerate_connected,
    gen_join_dominating,
    gen_named,
    is_connected,
    parse_graph6,
    spectral_radius_charpoly,
    spectral_radius_power,
)
from rho_bounds import harness, spectral_oracle
from rho_bounds.spectral_oracle import (
    CHARPOLY_MAX_N,
    FIELD_BITS,
    POWER_RESIDUAL,
    ROOT_ENCLOSURE,
    _certified_ends,
    _largest_eigenvalue,
    _pivots,
    _ritz_coefficients,
    at_or_above_root,
    derivative_chain,
    largest_real_root,
)

BOTH_METHODS = (spectral_radius_power, spectral_radius_charpoly)

#: How close the two oracles' float estimates of rho come on small graphs.
ORACLE_TIGHT = 1e-12


class TestPowerIteration:
    def test_k4(self):
        res = spectral_radius_power(gen_named("complete", 4))
        assert abs(res.rho - 3.0) <= 1e-10

    def test_star(self):
        res = spectral_radius_power(gen_named("star", 4))
        assert abs(res.rho - math.sqrt(3)) <= 1e-10

    def test_p4_golden_ratio(self):
        res = spectral_radius_power(gen_named("path", 4))
        assert abs(res.rho - (1 + math.sqrt(5)) / 2) <= 1e-10

    def test_single_vertex(self):
        res = spectral_radius_power(Graph.from_edges(1, []))
        assert res.rho == 0.0

    def test_residual_within_tolerance(self, monkeypatch):
        rng = random.Random(4242)
        graphs = [gen_named("path", 7), gen_named("cycle", 6), gen_named("star", 9)]
        graphs += [g for n in range(1, 6) for g in enumerate_connected(n)]
        graphs += [random_tree(rng, n) for n in (7, 30, 120)]
        graphs += [random_connected_graph(rng, n, 0.3) for n in (13, 40)]
        graphs += [gen_named("path", 700)]
        for g in graphs:
            res, none_kept, all_kept = _under_budgets(monkeypatch, g)
            # an accepted residual |Ay - rho y|_inf / |y|_2 <= tol puts an
            # eigenvalue of the symmetric A, here the largest, within
            # sqrt(n) * tol of rho
            if g.n <= CHARPOLY_MAX_N:
                near = math.sqrt(g.n) * POWER_RESIDUAL
                cp = spectral_radius_charpoly(g)
                assert cp.lo - near <= res.rho <= cp.hi + near
            # one product for each of the k steps, each regenerated vector
            # and A*y: a budget of 0 regenerates q_2..q_k, the default all
            # but the first r
            k = none_kept.iterations - all_kept.iterations + 1
            r = max(1, BUDGETS[0] // g.n)
            assert all_kept.iterations == k + 1
            assert res.iterations - all_kept.iterations == max(0, k - r)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(spectral_oracle, "MAX_ITERATIONS", 2)
        with pytest.raises(ConvergenceError) as err:
            spectral_radius_power(gen_named("path", 5))
        assert err.value.last_estimate > 0


class TestCertifiedEnds:
    """Lanczos's certified ends: the Collatz-Wielandt bracket of its Ritz
    vector y, or, when y is not positive, y's Rayleigh quotient and the
    largest quotient of a positive vector grown from max(y, 0)."""

    P3 = ((1,), (0, 2), (1,))

    def test_encloses_rho(self):
        rng = random.Random(515)
        graphs = [gen_named("path", 50), gen_named("star", 30), gen_join_dominating(12, 4, 2)]
        graphs += [random_connected_graph(rng, n, 0.3) for n in (9, 25, 80)]
        graphs += [random_tree(rng, 60)]
        for g in graphs:
            res = spectral_radius_power(g)
            assert 0.0 < res.lo <= res.rho <= res.hi
            # the width follows the residual over the smallest entry of y
            assert res.hi - res.lo <= 1e-6
            if g.n <= CHARPOLY_MAX_N:
                cp = spectral_radius_charpoly(g)
                assert cp.lo <= res.hi and res.lo <= cp.hi

    def test_regular_graph_is_one_ulp_each_side(self):
        # the all-ones start is the Perron vector: every quotient is d
        res = spectral_radius_power(gen_named("cycle", 9))
        assert (res.lo, res.rho, res.hi) == (math.nextafter(2.0, 0.0), 2.0, math.nextafter(2.0, 3.0))

    @pytest.mark.parametrize("n, rho", [(1, 0.0), (2, 1.0)])
    def test_smallest_graphs(self, n, rho):
        res = spectral_radius_power(gen_named("complete", n))
        assert res.rho == rho
        assert (res.lo, res.hi) == (math.nextafter(rho, -1.0), math.nextafter(rho, 2.0))
        cp = spectral_radius_charpoly(gen_named("complete", n))
        assert cp.lo <= rho <= cp.hi

    def test_quotients_round_outward(self):
        # a path on 3 vertices with Y = (1, 1, 1): AY = (1, 2, 1)
        lo, hi, spent = _certified_ends([1, 1, 1], [1, 2, 1], self.P3, 0.0, 10)
        assert (lo, hi, spent) == (math.nextafter(1.0, 0.0), math.nextafter(2.0, 3.0), 0)
        # 2/3 is not a float: the ends lie one unit beyond its rounding
        lo, hi, _ = _certified_ends([3, 3], [2, 2], ((1,), (0,)), 0.0, 10)
        assert lo < 2 / 3 < hi and math.nextafter(lo, 1.0) == 2 / 3 == math.nextafter(hi, 0.0)

    def test_non_positive_vector_grows_positive(self):
        # max(Y, 0) = (2, 0, 3); products with A + I give (2, 5, 3), whose
        # quotients (5/2, 1, 5/3) are above rho = sqrt(2), then fall to it
        lo, hi, spent = _certified_ends([2, -1, 3], [-1, 5, -1], self.P3, 2.5, 10)
        assert (hi, spent) == (math.nextafter(2.5, 3.0), 2)
        assert lo == math.nextafter(-10 / 14, -2.0)  # Y.AY / Y.Y
        _, hi, spent = _certified_ends([2, -1, 3], [-1, 5, -1], self.P3, math.sqrt(2) + 1e-9, 100)
        assert math.sqrt(2) < hi <= math.sqrt(2) + 2e-9 and 2 < spent < 100

    @pytest.mark.parametrize("Y", [[1, 0, 0], [2, -1, 3]], ids=["zero", "negative"])
    def test_budget_spent_before_positive_falls_back(self, Y):
        AY = [sum(Y[u] for u in nb) for nb in self.P3]
        _, hi, spent = _certified_ends(Y, AY, self.P3, 0.0, 1)
        assert (hi, spent) == (math.nextafter(2.0, 3.0), 1)

    @pytest.mark.parametrize("clique, path", [(10, 50), (5, 300)])
    def test_localized_perron_vector(self, clique, path, monkeypatch):
        # the Ritz vector is not positive on the path's tail, yet hi is
        # within the target of rho
        seen = []

        def spy(Y, AY, nbrs, target, budget):
            seen.append(min(Y) <= 0)
            return _certified_ends(Y, AY, nbrs, target, budget)

        monkeypatch.setattr(spectral_oracle, "_certified_ends", spy)
        res = spectral_radius_power(lollipop(clique, path))
        assert seen == [True]
        assert res.lo <= res.rho <= res.hi <= res.rho + 2 * POWER_RESIDUAL
        assert res.rho - res.lo <= 1e-12


def _mask_sample(n, count, seed):
    """``count`` connected graphs on n vertices at seeded distinct edge masks."""
    rng = random.Random(seed)
    graphs = []
    for mask in rng.sample(range(1 << (n * (n - 1) // 2)), 4 * count):
        g = _mask_graph(n, mask)
        if is_connected(g):
            graphs.append(g)
            if len(graphs) == count:
                return graphs
    raise AssertionError("sample too small")


#: Budgets of kept Lanczos floats: the default, none (every vector after
#: q_1 regenerated) and unbounded (none regenerated).
BUDGETS = (spectral_oracle.KEPT_FLOATS, 0, 1 << 40)


def _under_budgets(monkeypatch, g):
    """``spectral_radius_power(g)`` under each of BUDGETS, in that order."""
    results = []
    for budget in BUDGETS:
        monkeypatch.setattr(spectral_oracle, "KEPT_FLOATS", budget)
        results.append(spectral_radius_power(g))
    return results


def _forced_restart(monkeypatch, g, head=(1.0,)):
    """``spectral_radius_power(g)`` with the first run's Ritz coefficients
    replaced by ``head`` and zeros, by default y = q_1, the normalized
    start: its explicit residual fails, and Lanczos restarts from y."""
    calls = []

    def first_vector_once(alphas, betas, theta):
        s = _ritz_coefficients(alphas, betas, theta)
        calls.append(len(s))
        return s if len(calls) > 1 else [*head] + [0.0] * (len(s) - len(head))

    monkeypatch.setattr(spectral_oracle, "_ritz_coefficients", first_vector_once)
    res = spectral_radius_power(g)
    assert len(calls) == 2
    return res


class TestLanczos:
    """Properties of the Lanczos oracle against closed forms and the
    independent charpoly oracle."""

    @pytest.mark.parametrize("name, radius", [
        ("path", lambda n: 2 * math.cos(math.pi / (n + 1))),
        ("cycle", lambda n: 2.0),
        ("complete", lambda n: n - 1.0),
        ("star", lambda n: math.sqrt(n - 1)),
    ], ids=["path", "cycle", "complete", "star"])
    def test_closed_forms_to_200(self, name, radius):
        first = 3 if name == "cycle" else 2
        for n in range(first, 201):
            res = spectral_radius_power(gen_named(name, n))
            assert abs(res.rho - radius(n)) <= 1e-12, (name, n, res)

    def test_charpoly_agreement_n7_sample(self):
        tight = ORACLE_TIGHT
        for g in _mask_sample(7, 2000, 7077):
            rho_p = spectral_radius_power(g).rho
            rho_c = spectral_radius_charpoly(g).rho
            assert abs(rho_p - rho_c) <= tight, encode_fail(g, rho_p, rho_c)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_last_estimate_at_tiny_cap(self, cap, monkeypatch):
        g = gen_named("path", 9)
        monkeypatch.setattr(spectral_oracle, "MAX_ITERATIONS", cap)
        with pytest.raises(ConvergenceError) as err:
            spectral_radius_power(g)
        estimate = err.value.last_estimate
        assert f"in {cap} products" in str(err.value)
        # the Ritz values rise toward rho from the average degree
        if cap == 0:
            assert estimate == 0.0
        else:
            assert 16 / 9 - 1e-12 <= estimate <= 2 * math.cos(math.pi / 10)

    def test_restart_from_a_poor_ritz_vector(self, monkeypatch):
        g = random_tree(random.Random(99), 40)
        clean = spectral_radius_power(g)
        res = _forced_restart(monkeypatch, g)
        assert res.iterations > clean.iterations
        assert res.lo <= res.rho <= res.hi
        assert abs(res.rho - clean.rho) <= 1e-12

    @pytest.mark.parametrize("graphs", [
        lambda: [g for n in range(1, 6) for g in enumerate_connected(n)],
        lambda: [random_tree(random.Random(18), n) for n in (30, 120)],
        lambda: [random_connected_graph(random.Random(18), n, 0.3) for n in (13, 40)],
        lambda: [gen_named("path", 700)],
        lambda: [lollipop(10, 50), lollipop(5, 300)],
    ], ids=["n<=5", "trees", "gnp", "path700", "lollipops"])
    def test_kept_and_regenerated_vectors_agree(self, graphs, monkeypatch):
        # the kept vectors are the floats that regeneration recomputes, so
        # the budget moves only the product count
        for g in graphs():
            results = _under_budgets(monkeypatch, g)
            assert len({(r.rho.hex(), r.lo.hex(), r.hi.hex()) for r in results}) == 1
            default, none_kept, all_kept = results
            if none_kept.iterations > all_kept.iterations:  # k > 1
                assert default.iterations < none_kept.iterations

    @pytest.mark.parametrize("head", [(1.0,), (1.0, 1.0)], ids=["q1", "q1+q2"])
    def test_restart_keeps_vectors_anew(self, head, monkeypatch):
        # restarting from q_1 rebuilds the first run's vectors; from
        # q_1 + q_2 it builds new ones, which the kept list must hold
        g = random_tree(random.Random(99), 40)
        outcomes = set()
        for budget in BUDGETS:
            monkeypatch.setattr(spectral_oracle, "KEPT_FLOATS", budget)
            res = _forced_restart(monkeypatch, g, head)
            outcomes.add((res.rho.hex(), res.lo.hex(), res.hi.hex()))
        assert len(outcomes) == 1
        assert abs(res.rho - spectral_radius_power(g).rho) <= 1e-12

    def test_memory_is_linear(self):
        # a stored basis would hold about n/2 vectors of n floats (about
        # 8 MB here).  The bound covers the three working vectors, the
        # tridiagonal and the first KEPT_FLOATS // n = 11 kept vectors: a
        # peak near 560 KB, so the margin to 1 MB is under 2x
        g = gen_named("path", 700)
        tracemalloc.start()
        try:
            res = spectral_radius_power(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.iterations >= 350
        assert peak < 1_000_000


def _bits(res):
    return res.rho.hex(), res.iterations, res.lo.hex(), res.hi.hex()


class TestClassInvariance:
    """Lanczos's result is a function of the isomorphism class, bit for
    bit: every sum over vertices is rounded once, so no labeling orders it,
    and a memo may hand one graph's result to its relabelings."""

    def test_one_result_per_class_key_through_n6(self):
        results = collections.defaultdict(set)
        for n in range(1, 7):
            for g in enumerate_connected(n):
                results[class_key(g)].add(_bits(spectral_radius_power(g)))
        assert len(results) == 438
        assert all(len(found) == 1 for found in results.values())

    def test_random_relabelings(self, monkeypatch):
        # lollipop(5, 20)'s Ritz vector is not positive, so its ends take
        # the A + I path of _certified_ends
        paths = []
        ends = spectral_oracle._certified_ends
        monkeypatch.setattr(spectral_oracle, "_certified_ends",
                            lambda Y, *args: paths.append(min(Y) > 0) or ends(Y, *args))
        rng = random.Random(21)
        graphs = [random_tree(rng, n) for n in range(2, 61, 6)]
        graphs += [random_connected_graph(rng, n, rng.uniform(0.2, 0.8)) for n in range(3, 61, 6)]
        graphs.append(lollipop(5, 20))
        for g in graphs:
            expected = _bits(spectral_radius_power(g))
            for _ in range(4):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = Graph.from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges()))
                # neighbor tuples in any order, as direct construction allows
                h = Graph(h.n, tuple(tuple(rng.sample(nb, len(nb))) for nb in h.neighbors))
                assert _bits(spectral_radius_power(h)) == expected, encode_graph6(g)
        assert paths[-5:] == [False] * 5


class TestTridiagonal:
    """The tridiagonal solver on T = the path P_k (zero diagonal, unit
    off-diagonal): largest eigenvalue 2 cos(pi/(k+1)), eigenvector
    s_j = sin(j pi/(k+1))."""

    @pytest.mark.parametrize("k", [2, 3, 10, 60])
    def test_path_matrix(self, k):
        alphas, betas = [0.0] * k, [1.0] * (k - 1)
        exact = 2 * math.cos(math.pi / (k + 1))
        theta, e, ratio = _largest_eigenvalue(alphas, betas, 2.0, 2.0)
        assert abs(theta - exact) <= 1e-14
        s = _ritz_coefficients(alphas, betas, theta)
        expected = [math.sin(j * math.pi / (k + 1)) / math.sin(math.pi / (k + 1))
                    for j in range(1, k + 1)]
        assert max(abs(a - b) / b for a, b in zip(s, expected)) <= 1e-12
        # -1/e_1 = s_1^2 and ratio = s_k^2 / s_1^2 for the unit eigenvector,
        # read at the last point Newton evaluated (one small step above)
        assert abs(-e - math.fsum(x * x for x in expected)) <= 1e-6 * -e
        assert abs(ratio - 1.0) <= 1e-6

    def test_bound_on_an_eigenvalue_is_widened(self):
        # [[1, 1], [1, 1]] has eigenvalues 0 and 2: the guess 1.5 is below
        # 2, and the Gershgorin bound 2 is the eigenvalue itself
        theta, e, ratio = _largest_eigenvalue([1.0, 1.0], [1.0], 1.5, 2.0)
        assert abs(theta - 2.0) <= 1e-15
        assert abs(e + 2.0) <= 1e-6 and abs(ratio - 1.0) <= 1e-6

    def test_guess_below_a_trailing_block(self):
        # [[0, 1], [1, 2]] has eigenvalues 1 +- sqrt(2): the guess 1 is below
        # the trailing block's eigenvalue 2, so the pass stops there and the
        # solver starts again from the proven bound
        assert _pivots([0.0, 2.0], [1.0], 1.0) is None
        theta, e, ratio = _largest_eigenvalue([0.0, 2.0], [1.0], 1.0, 3.0)
        assert theta == 2.414213562373095  # 1 + sqrt(2)

    def test_newton_point_below_a_trailing_block(self, monkeypatch):
        # a pass that stops at a Newton point leaves the solver at the
        # previous point, with that point's e_1 and product
        points = []

        def stop_at_second_newton_point(alphas, betas, x):
            points.append(x)
            return None if len(points) == 3 else _pivots(alphas, betas, x)

        monkeypatch.setattr(spectral_oracle, "_pivots", stop_at_second_newton_point)
        alphas, betas = [0.0] * 3, [1.0] * 2
        theta, e, ratio = _largest_eigenvalue(alphas, betas, 2.0, 2.0)
        _, e_prev, _, ratio_prev = _pivots(alphas, betas, points[1])
        assert points[0] > points[1] > points[2]
        assert (theta, e, ratio) == (points[1], e_prev, ratio_prev)

    def test_theta_on_a_trailing_eigenvalue(self):
        # theta equal to a_2 puts the trailing pivot at zero: the eigenvector
        # is taken one ulp higher, finite and positive
        s = _ritz_coefficients([3.0, 1.0], [1e-10], 1.0)
        assert s[0] == 1.0 and 0.0 < s[1] < math.inf


class TestCharacteristicPolynomial:
    def test_k3(self):
        # x^3 - 3x - 2
        assert characteristic_polynomial(gen_named("complete", 3)) == (-2, -3, 0, 1)

    def test_p3(self):
        # x^3 - 2x
        assert characteristic_polynomial(gen_named("path", 3)) == (0, -2, 0, 1)

    def test_single_vertex(self):
        assert characteristic_polynomial(Graph.from_edges(1, [])) == (0, 1)

    def test_k4_known(self):
        # (x-3)(x+1)^3 = x^4 - 6x^2 - 8x - 3
        assert characteristic_polynomial(gen_named("complete", 4)) == (-3, -8, -6, 0, 1)

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            characteristic_polynomial(gen_named("star", 13))

    def test_constant_term_is_signed_determinant(self):
        # det(A) for C_4 is 0 (bipartite with repeated eigenvalue 0)
        coeffs = characteristic_polynomial(gen_named("cycle", 4))
        assert coeffs[0] == 0


def _mask_graph(n, mask):
    """The graph whose edge k, in lexicographic (i, j) order, is bit k."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1])


class TestPackedCharpoly:
    """Packed-row Faddeev-LeVerrier against the dense list-of-lists loop in
    conftest: the coefficients are integers, so they must be equal."""

    def test_exhaustive_small(self):
        for n in range(1, 7):
            for g in enumerate_connected(n):
                assert characteristic_polynomial(g) == characteristic_polynomial_dense(g)

    def test_n7_masks(self):
        rng = random.Random(7007)
        for mask in rng.sample(range(1 << 21), 2000):
            g = _mask_graph(7, mask)
            assert characteristic_polynomial(g) == characteristic_polynomial_dense(g)

    @pytest.mark.parametrize("n", range(1, CHARPOLY_MAX_N + 1))
    def test_random_gnp(self, n):
        rng = random.Random(1200 + n)
        for p in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
            for _ in range(4):
                g = random_graph(rng, n, p)
                assert characteristic_polynomial(g) == characteristic_polynomial_dense(g)

    def test_extremes(self):
        for g in (gen_named("complete", CHARPOLY_MAX_N), Graph.from_edges(1, [])):
            assert characteristic_polynomial(g) == characteristic_polynomial_dense(g)

    def test_field_width_bound(self):
        # entries of A*N_k are at most 2^n (n-1)^(k+1) with k < n; raising
        # CHARPOLY_MAX_N past the signed field width must fail here
        n = CHARPOLY_MAX_N
        assert 2**n * (n - 1) ** (n + 1) < 2 ** (FIELD_BITS - 1)

    @pytest.mark.parametrize("record, message", [
        ("D~{", "Faddeev-LeVerrier trace .* not divisible by"),  # K5
        ("Fow?g", "Cayley-Hamilton check failed"),
    ])
    def test_overflowing_fields_are_caught(self, monkeypatch, record, message):
        # 4-bit fields overflow on these graphs; each exactness guard catches one
        monkeypatch.setattr(spectral_oracle, "FIELD_BITS", 4)
        with pytest.raises(AssertionError, match=message):
            characteristic_polynomial(parse_graph6(record))


def _root_keys():
    """Every distinct (charpoly, d1) key with n <= 6, and the keys of seeded
    G(n, p) draws with n = 7..12."""
    graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
    rng = random.Random(15)
    graphs += [
        random_connected_graph(rng, rng.randint(7, 12), rng.uniform(0.2, 0.8))
        for _ in range(200)
    ]
    return {(characteristic_polynomial(g), max(map(len, g.neighbors))) for g in graphs}


def _certified(coeffs, lo, hi):
    """lo < root <= hi by exact sign tests, or lo = hi = 0 for a root at 0,
    and hi - lo within the enclosure tolerance."""
    chain = derivative_chain(coeffs)
    below = (lo, hi) == (0.0, 0.0) or not at_or_above_root(chain, lo)
    return below and at_or_above_root(chain, hi) and hi - lo <= ROOT_ENCLOSURE


class TestRootIsolation:
    def test_enclosure_certified_through_n6(self):
        # the returned ends themselves are certified, with no widening
        for coeffs, d1 in _root_keys():
            lo, hi, _ = largest_real_root(coeffs, d1)
            assert _certified(coeffs, lo, hi), (coeffs, d1, lo, hi)

    def test_lower_fallback_certified(self, monkeypatch):
        # Newton stalls above the eightfold root of (x-1)^8, so the point
        # one enclosure below it is still above the root, and the bracket
        # falls back to the proven lower end 0
        coeffs = tuple(math.comb(8, k) * (-1) ** (8 - k) for k in range(9))
        tested = []
        exact = spectral_oracle.at_or_above_root

        def record(chain, x):
            tested.append(x)
            return exact(chain, x)

        monkeypatch.setattr(spectral_oracle, "at_or_above_root", record)
        lo, hi, _ = largest_real_root(coeffs, 2)
        assert tested[2] == 0.0
        assert tested[1] > 1.0
        assert _certified(coeffs, lo, hi)
        assert lo < 1.0 <= hi


    def test_upper_fallback_certified(self, monkeypatch):
        # Newton stops just below the double root 2 of (x-2)^2 (x-1)^2, so
        # the point one enclosure above it is still below the root, and the
        # bracket falls back to the proven upper end 2
        coeffs = (4, -12, 13, -6, 1)
        tested = []
        exact = spectral_oracle.at_or_above_root

        def record(chain, x):
            tested.append(x)
            return exact(chain, x)

        monkeypatch.setattr(spectral_oracle, "at_or_above_root", record)
        lo, hi, _ = largest_real_root(coeffs, 2)
        assert tested[0] < 2.0
        assert hi == 2.0
        assert _certified(coeffs, lo, hi)

    def test_bisection_stops_at_adjacent_floats(self, monkeypatch):
        # the root 2^50 of x - 2^50 has floats 0.125 apart below it, more
        # than the enclosure: bisection ends once the midpoint rounds onto
        # an end, rather than testing that point forever
        coeffs = (-(2 ** 50), 1)
        root = 2.0 ** 50
        tests = 0
        exact = spectral_oracle.at_or_above_root

        def counted(chain, x):
            nonlocal tests
            tests += 1
            assert tests <= 200, "bisection did not stop"
            return exact(chain, x)

        monkeypatch.setattr(spectral_oracle, "at_or_above_root", counted)
        lo, hi, iterations = largest_real_root(coeffs, 2 ** 50)
        assert (lo, hi, iterations) == (math.nextafter(root, 0.0), root, 56)
        assert hi - lo == 0.125 > ROOT_ENCLOSURE
        chain = derivative_chain(coeffs)
        assert not exact(chain, lo) and exact(chain, hi)


class TestCharpolyRadius:
    def test_k3(self):
        res = spectral_radius_charpoly(gen_named("complete", 3))
        assert abs(res.rho - 2.0) <= 1e-12

    def test_p3(self):
        res = spectral_radius_charpoly(gen_named("path", 3))
        assert abs(res.rho - math.sqrt(2)) <= 1e-12

    def test_k4_minus_edge(self):
        res = spectral_radius_charpoly(gen_join_dominating(4, 3, 0))
        assert abs(res.rho - (1 + math.sqrt(17)) / 2) <= 1e-12

    def test_certified_enclosure(self):
        for g in (gen_named("path", 9), gen_named("cycle", 7)):
            res = spectral_radius_charpoly(g)
            assert res.hi - res.lo <= 1e-13

    def test_size_limit(self):
        with pytest.raises(UnsupportedSizeError):
            spectral_radius_charpoly(gen_named("path", 13))


class TestClosedForms:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_paths(self, n):
        expected = 2 * math.cos(math.pi / (n + 1))
        for method in BOTH_METHODS:
            assert abs(method(gen_named("path", n)).rho - expected) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 13))
    def test_stars(self, n):
        expected = math.sqrt(n - 1)
        for method in BOTH_METHODS:
            assert abs(method(gen_named("star", n)).rho - expected) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete(self, n):
        for method in BOTH_METHODS:
            assert abs(method(gen_named("complete", n)).rho - (n - 1)) <= 1e-10

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycles(self, n):
        for method in BOTH_METHODS:
            assert abs(method(gen_named("cycle", n)).rho - 2.0) <= 1e-10


class TestMethodAgreement:
    def test_exhaustive_small(self):
        tight = ORACLE_TIGHT
        for n in range(1, 7):
            for g in enumerate_connected(n):
                power = spectral_radius_power(g)
                charpoly = spectral_radius_charpoly(g)
                rho_p, rho_c = power.rho, charpoly.rho
                assert abs(rho_p - rho_c) <= tight, encode_fail(g, rho_p, rho_c)
                # the certified enclosures meet
                assert charpoly.lo <= power.hi and power.lo <= charpoly.hi, (
                    encode_fail(g, (power.lo, power.hi), (charpoly.lo, charpoly.hi)))

    def test_random_medium(self):
        rng = random.Random(1234)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(6, 10), 0.4)
            rho_p = spectral_radius_power(g).rho
            rho_c = spectral_radius_charpoly(g).rho
            assert abs(rho_p - rho_c) <= 1e-9

    def test_bracketing(self):
        for n in range(2, 6):
            for g in enumerate_connected(n):
                seq = degree_sequence(g)
                rho = spectral_radius_power(g).rho
                assert 2 * seq.m / seq.n - 1e-9 <= rho <= seq.degrees[0] + 1e-9

    def test_edge_monotonicity(self):
        # adding any edge to a connected graph never decreases the radius
        for g in enumerate_connected(5):
            rho = spectral_radius_power(g).rho
            for u in range(5):
                for v in range(u + 1, 5):
                    if v in g.neighbors[u]:
                        continue
                    bigger = Graph.from_edges(5, list(g.edges()) + [(u, v)])
                    assert is_connected(bigger)
                    assert spectral_radius_power(bigger).rho >= rho - 1e-10


def encode_fail(g, rho_p, rho_c):
    from rho_bounds import encode_graph6

    return f"{encode_graph6(g)}: power {rho_p!r} vs charpoly {rho_c!r}"
