import math
import random

import pytest

from conftest import (
    characteristic_polynomial_dense,
    random_connected_graph,
    random_graph,
    random_tree,
    spectral_radius_power_five_pass,
)
from rho_bounds import (
    ConvergenceError,
    Graph,
    UnsupportedSizeError,
    characteristic_polynomial,
    degree_sequence,
    enumerate_connected,
    gen_join_dominating,
    gen_named,
    is_connected,
    spectral_radius_charpoly,
    spectral_radius_power,
)
from rho_bounds.spectral_oracle import (
    CHARPOLY_MAX_N,
    FIELD_BITS,
    _cached_root,
    largest_real_root,
)

BOTH_METHODS = (spectral_radius_power, spectral_radius_charpoly)


class TestPowerIteration:
    def test_k4(self):
        res = spectral_radius_power(gen_named("complete", 4))
        assert res.method == "power"
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

    def test_residual_within_tolerance(self):
        for g in (gen_named("path", 7), gen_named("cycle", 6), gen_named("star", 9)):
            res = spectral_radius_power(g)
            assert res.residual <= 1e-9

    def test_iteration_cap(self):
        with pytest.raises(ConvergenceError) as err:
            spectral_radius_power(gen_named("path", 5), max_iterations=2)
        assert err.value.last_estimate > 0


def _power_outcome(method, g, **kwargs):
    """Every field of the result, floats as their exact bits (hex)."""
    try:
        res = method(g, **kwargs)
    except ConvergenceError as exc:
        return "ConvergenceError", exc.last_estimate.hex()
    return res.rho.hex(), res.iterations, res.residual.hex(), res.method


def _power_corpus():
    """Every connected graph with n <= 6, then paths, cycles and random
    trees up to n = 120."""
    for n in range(1, 7):
        yield from enumerate_connected(n)
    rng = random.Random(4242)
    for n in (7, 13, 30, 64, 120):
        yield gen_named("path", n)
        yield gen_named("cycle", n)
        yield random_tree(rng, n)


class TestFusedPowerLoop:
    """The fused loop against the five-pass loop in conftest: same
    arithmetic in the same order, so every field must match bit for bit."""

    def test_bit_identical(self):
        for g in _power_corpus():
            got = _power_outcome(spectral_radius_power, g)
            assert got == _power_outcome(spectral_radius_power_five_pass, g)
            assert got[0] != "ConvergenceError"

    def test_last_estimate_identical(self):
        for g in _power_corpus():
            got = _power_outcome(spectral_radius_power, g, max_iterations=3)
            ref = _power_outcome(spectral_radius_power_five_pass, g, max_iterations=3)
            assert got == ref


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


def _charpoly_outcome(res):
    return res.rho.hex(), res.iterations, res.residual.hex(), res.method


def _uncached_outcome(g):
    coeffs = characteristic_polynomial(g)
    d1 = max((len(nb) for nb in g.neighbors), default=0)
    rho, width, iterations = largest_real_root(coeffs, d1)
    return rho.hex(), iterations, width.hex(), "charpoly"


class TestRootCache:
    """The cached root isolation returns what the uncached function does,
    bit for bit, whether the cache is cold or warm."""

    def test_cold_and_warm(self):
        graphs = [g for n in range(1, 7) for g in enumerate_connected(n)]
        expected = [_uncached_outcome(g) for g in graphs]
        _cached_root.cache_clear()
        for _ in ("cold", "warm"):
            got = [_charpoly_outcome(spectral_radius_charpoly(g)) for g in graphs]
            assert got == expected
        info = _cached_root.cache_info()
        assert info.misses == info.currsize < len(graphs)

    def test_cospectral_pair_keeps_its_own_degree(self):
        # one characteristic polynomial, maximum degrees 5 and 3; the
        # bisection starts from the degree, so the iteration counts differ
        g5 = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 4), (2, 3)])
        g3 = Graph.from_edges(6, [(0, 2), (0, 3), (0, 5), (1, 2), (1, 3), (1, 4), (2, 3)])
        assert characteristic_polynomial(g5) == characteristic_polynomial(g3)
        assert degree_sequence(g5).degrees[0] == 5
        assert degree_sequence(g3).degrees[0] == 3
        assert _uncached_outcome(g5) != _uncached_outcome(g3)
        for first, second in ((g5, g3), (g3, g5)):
            _cached_root.cache_clear()
            for g in (first, second, first, second):
                assert _charpoly_outcome(spectral_radius_charpoly(g)) == _uncached_outcome(g)

    def test_bounded_and_private(self):
        assert _cached_root.cache_info().maxsize is not None
        assert not hasattr(largest_real_root, "cache_info")


class TestCharpolyRadius:
    def test_k3(self):
        res = spectral_radius_charpoly(gen_named("complete", 3))
        assert res.method == "charpoly"
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
            assert res.residual <= 1e-13

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
        for n in range(1, 6):
            for g in enumerate_connected(n):
                rho_p = spectral_radius_power(g).rho
                rho_c = spectral_radius_charpoly(g).rho
                assert abs(rho_p - rho_c) <= 1e-9, encode_fail(g, rho_p, rho_c)

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
