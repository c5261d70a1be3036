import math
import random

import pytest

from conftest import random_connected_graph, random_tree, spectral_radius_power_five_pass
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
                    if g.has_edge(u, v):
                        continue
                    bigger = Graph.from_edges(5, list(g.edges()) + [(u, v)])
                    assert is_connected(bigger)
                    assert spectral_radius_power(bigger).rho >= rho - 1e-10


def encode_fail(g, rho_p, rho_c):
    from rho_bounds import encode_graph6

    return f"{encode_graph6(g)}: power {rho_p!r} vs charpoly {rho_c!r}"
