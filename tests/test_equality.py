import math

import pytest

from conftest import check_equality_numeric
from rho_bounds import (
    DOMINATING,
    NONE,
    REGULAR,
    DegreeSequence,
    classify_equality,
    degree_sequence,
    enumerate_connected,
    gen_join_dominating,
    gen_named,
    phi_sequence,
    spectral_radius_power,
)
from rho_bounds.equality import tight_levels


def seq_of(*degrees):
    return DegreeSequence.from_degrees(degrees)


class TestClassify:
    def test_cycle_regular(self):
        cert = classify_equality(seq_of(2, 2, 2, 2, 2))
        assert cert.kind == REGULAR
        assert cert.t is None
        assert cert.predicted_tight_levels == frozenset(range(1, 6))

    def test_star_dominating(self):
        cert = classify_equality(seq_of(3, 1, 1, 1))
        assert cert.kind == DOMINATING
        assert cert.t == 2
        assert cert.predicted_tight_levels == frozenset({2, 3, 4})

    def test_k4_minus_edge(self):
        cert = classify_equality(seq_of(3, 3, 2, 2))
        assert cert.kind == DOMINATING
        assert cert.t == 3
        assert cert.predicted_tight_levels == frozenset({3, 4})

    def test_path_none(self):
        cert = classify_equality(seq_of(2, 2, 2, 2, 1, 1))
        assert cert.kind == NONE
        assert cert.predicted_tight_levels == frozenset()

    def test_max_degree_without_dominating_tail(self):
        # d_1 = n-1 but the lower degrees are not all equal
        cert = classify_equality(seq_of(5, 4, 3, 2, 1, 1))
        assert cert.kind == NONE

    def test_needs_two_vertices(self):
        with pytest.raises(ValueError):
            classify_equality(seq_of(0))

    def test_level_one_needs_regularity(self):
        # a Dominating certificate never predicts level 1 (t >= 2)
        for n in range(2, 6):
            for g in enumerate_connected(n):
                cert = classify_equality(degree_sequence(g))
                if cert.kind == DOMINATING:
                    assert 1 not in cert.predicted_tight_levels


class TestNumericTightSet:
    def test_k5_all_levels(self):
        assert check_equality_numeric(gen_named("complete", 5)) == frozenset(range(1, 6))

    def test_p6_empty(self):
        assert check_equality_numeric(gen_named("path", 6)) == frozenset()
        rho = spectral_radius_power(gen_named("path", 6)).rho
        assert abs(rho - 2 * math.cos(math.pi / 7)) <= 1e-10

    def test_star_levels(self):
        assert check_equality_numeric(gen_named("star", 4)) == frozenset({2, 3, 4})

    def test_tight_levels_helper(self):
        assert tight_levels([2.0, 1.5, 1.500002], 1.5, tol=1e-6) == frozenset({2})
        assert tight_levels([2.0, 1.5, 1.500002], 1.5, tol=1e-3) == frozenset({2, 3})
        # the default tolerance is zero: only an exact tie counts
        assert tight_levels([2.0, 1.5, math.nextafter(1.5, 2.0)], 1.5) == frozenset({2})


class TestExhaustiveAgreement:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_iff_small(self, n):
        for g in enumerate_connected(n):
            seq = degree_sequence(g)
            cert = classify_equality(seq)
            numeric = check_equality_numeric(g)
            assert numeric == cert.predicted_tight_levels, (
                f"{seq.degrees}: {cert} vs numeric {sorted(numeric)}"
            )

    @pytest.mark.parametrize("n", range(2, 6))
    def test_dominating_chain_invariant(self, n):
        for g in enumerate_connected(n):
            seq = degree_sequence(g)
            cert = classify_equality(seq)
            if cert.kind == DOMINATING:
                d = seq.degrees
                t = cert.t
                assert d[0] == d[t - 2] == seq.n - 1
                assert d[t - 2] > d[t - 1] == d[-1]


class TestJoinFamily:
    def test_classification_round_trip(self):
        for n in range(3, 9):
            for t in range(2, n + 1):
                h = n - t + 1
                for r in range(0, h):
                    if r * h % 2:
                        continue
                    g = gen_join_dominating(n, t, r)
                    cert = classify_equality(degree_sequence(g))
                    if r == h - 1:  # every vertex universal: complete graph
                        assert cert.kind == REGULAR
                    else:
                        assert (cert.kind, cert.t) == (DOMINATING, t)

    def test_join_is_numerically_tight(self):
        g = gen_join_dominating(7, 3, 2)
        cert = classify_equality(degree_sequence(g))
        assert check_equality_numeric(g) == cert.predicted_tight_levels

    def test_star_bound_value(self):
        g = gen_named("star", 6)
        phis = phi_sequence(degree_sequence(g))
        rho = spectral_radius_power(g).rho
        assert abs(phis.values[1] - math.sqrt(5)) <= 1e-12
        assert abs(rho - math.sqrt(5)) <= 1e-10
