import math
import random

import pytest

from conftest import (
    random_connected_graph,
    random_tree,
    row_slacks_per_level,
    row_sums_scaled_per_level,
)
from rho_bounds import (
    CertificateViolationError,
    DOMINATING,
    Graph,
    REGULAR,
    classify_equality,
    degree_sequence,
    enumerate_connected,
    gen_join_dominating,
    gen_named,
    phi,
    row_sums_scaled,
    spectral_radius_power,
)
from rho_bounds.proof_replay import row_slacks


class TestScalingVector:
    """x_i = 1 + (d_i - d_level) / (phi_level + 1), read from the replay."""

    def test_regular_all_ones(self):
        g = gen_named("cycle", 4)  # degrees (2, 2, 2, 2)
        for level in range(1, 5):
            assert row_sums_scaled(g, level).x == (1.0,) * (level - 1)

    def test_star_level_two(self):
        (x1,) = row_sums_scaled(gen_named("star", 4), 2).x  # degrees (3, 1, 1, 1)
        assert abs(x1 - math.sqrt(3)) <= 1e-15

    def test_mixed_sequence(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (2, 3)])
        assert degree_sequence(g).degrees == (4, 3, 3, 2, 1, 1)
        assert row_sums_scaled(g, 4).x == (1.5, 1.25, 1.25)

    def test_empty_at_level_one(self):
        assert row_sums_scaled(gen_named("star", 4), 1).x == ()

    def test_at_least_one(self):
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                                 (1, 2), (1, 3), (1, 4), (2, 5)])
        assert degree_sequence(g).degrees == (5, 4, 3, 2, 2, 2)
        for level in range(1, 7):
            assert all(x >= 1.0 for x in row_sums_scaled(g, level).x)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            row_sums_scaled(Graph.from_edges(2, [(0, 1)]), 3)


#: Degrees (3, 2, 1) with the edge 0-1 listed twice on both sides.
_DOUBLE_EDGE = Graph(3, ((1, 1, 2), (0, 0), (0,)))


class TestRowSums:
    def test_k4_unscaled(self):
        for level in range(1, 5):
            cert = row_sums_scaled(gen_named("complete", 4), level)
            assert cert.row_sums == (3.0,) * 4
            assert cert.phi == 3.0

    def test_star_equality_case(self):
        cert = row_sums_scaled(gen_named("star", 4), 2)
        root3 = math.sqrt(3)
        assert all(abs(r - root3) <= 1e-12 for r in cert.row_sums)
        assert abs(cert.phi - root3) <= 1e-15

    def test_p6_strict_slack(self):
        cert = row_sums_scaled(gen_named("path", 6), 4)
        assert cert.phi == 2.0
        assert max(cert.row_sums) <= 2.0 + 1e-9
        assert min(cert.row_sums) < 2.0 - 1e-6  # not an equality case

    def test_relabeling_is_by_degree(self):
        # vertex 3 has the top degree; its row must come first
        g = gen_named("star", 4)
        relabeled = type(g).from_edges(4, [(3, 0), (3, 1), (3, 2)])
        cert = row_sums_scaled(relabeled, 2)
        expected = row_sums_scaled(g, 2)
        assert cert.row_sums == expected.row_sums
        assert cert.x == expected.x

    def test_violation_error_payload(self):
        # a neighbor listed twice (a double edge the constructor trusts)
        # breaks the bookkeeping: vertex 1 counts vertex 0 twice
        with pytest.raises(CertificateViolationError) as err:
            row_sums_scaled(_DOUBLE_EDGE, 2)
        exc = err.value
        assert (exc.level, exc.row, exc.slack) == (2, 2, -1)
        assert str(exc) == "row 2 has slack -1 < 0 at level 2"

    def test_single_vertex(self):
        cert = row_sums_scaled(gen_named("path", 1), 1)
        assert cert.row_sums == (0.0,)
        assert cert.phi == 0.0


class TestProofInequalities:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_bound_and_sandwich(self, n):
        for g in enumerate_connected(n):
            rho = spectral_radius_power(g).rho
            seq = degree_sequence(g)
            for level in range(1, n + 1):
                cert = row_sums_scaled(g, level)
                assert max(cert.row_sums) <= cert.phi + 1e-9
                assert rho <= max(cert.row_sums) + 1e-9
                assert cert.phi == phi(seq, level)

    def test_random_medium_graphs(self):
        # spot-check beyond the exhaustive range, through n=9
        rng = random.Random(5150)
        for _ in range(200):
            g = random_connected_graph(rng, rng.randint(6, 9), 0.45)
            rho = spectral_radius_power(g).rho
            for level in range(1, g.n + 1):
                cert = row_sums_scaled(g, level)
                assert max(cert.row_sums) <= cert.phi + 1e-9
                assert rho <= max(cert.row_sums) + 1e-9

    def test_equality_propagation_regular(self):
        for g in (gen_named("cycle", 6), gen_named("complete", 5)):
            n = g.n
            for level in range(1, n + 1):
                cert = row_sums_scaled(g, level)
                assert all(abs(r - cert.phi) <= 1e-6 for r in cert.row_sums)

    def test_equality_propagation_dominating(self):
        for n, t, r in [(4, 2, 0), (4, 3, 0), (6, 2, 2), (7, 3, 2), (8, 5, 1)]:
            g = gen_join_dominating(n, t, r)
            cert_eq = classify_equality(degree_sequence(g))
            assert cert_eq.kind == DOMINATING and cert_eq.t == t
            for level in sorted(cert_eq.predicted_tight_levels):
                cert = row_sums_scaled(g, level)
                for pos in range(level, n + 1):
                    assert abs(cert.row_sums[pos - 1] - cert.phi) <= 1e-6


def _seeded_graphs():
    """Trees, paths and dense G(n, p) graphs up to n = 120."""
    rng = random.Random(9091)
    for n in (7, 12, 20, 33, 50, 75, 120):
        yield random_tree(rng, n)
        yield gen_named("path", n)
        yield random_connected_graph(rng, n, 0.6)


class TestReplayEngine:
    """``row_slacks`` and ``row_sums_scaled`` at every level against the
    direct per-level loops in conftest."""

    def _check(self, g):
        lists = list(row_slacks(g))
        assert len(lists) == g.n
        for level, slacks in enumerate(lists, start=1):
            cert = row_sums_scaled(g, level)
            assert cert.level == level
            value, x, row_sums = row_sums_scaled_per_level(g, level)
            assert cert.slacks == tuple(slacks) == row_slacks_per_level(g, level)
            assert cert.phi == value and cert.x == x
            slack = 1e-12 * max(1.0, value)
            assert len(cert.row_sums) == len(row_sums) == g.n
            for a, b in zip(cert.row_sums, row_sums):
                assert abs(a - b) <= slack
            assert cert.violation() is None
            # a row meets phi exactly when its slack is zero and d_i >= d_l;
            # any other row is at least 1/(2n+2) below it
            d = cert.degrees[level - 1]
            for r, s, d_i in zip(cert.row_sums, cert.slacks, cert.degrees):
                assert (abs(r - value) <= 1e-9) == (s == 0 and d_i >= d)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_exhaustive(self, n):
        for g in enumerate_connected(n):
            self._check(g)

    def test_seeded_up_to_120(self):
        for g in _seeded_graphs():
            self._check(g)

    def test_level_out_of_range(self):
        g = gen_named("path", 4)
        for level in (0, 5):
            with pytest.raises(ValueError):
                row_sums_scaled(g, level)

    def test_no_violation_at_default_tol(self):
        for g in _seeded_graphs():
            assert all(min(slacks) >= 0 for slacks in row_slacks(g))

    def test_repeated_degree_reuses_the_slacks(self):
        # degrees (3, 2, 2, 1, 1, 1): levels 3 and 5, 6 repeat their
        # predecessor's degree, so they are the same list
        g = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)])
        lists = list(row_slacks(g))
        assert [a is b for a, b in zip(lists, lists[1:])] == [False, True, False, True, True]
        assert [tuple(s) for s in row_slacks(g, 5)] == [tuple(lists[4])] * 2

    def test_negative_slack_is_a_violation(self):
        assert [tuple(s) for s in row_slacks(_DOUBLE_EDGE)] == [(0, 1, 2), (0, -1, 1), (-1, -2, 1)]
        assert row_sums_scaled(_DOUBLE_EDGE, 1).slacks == (0, 1, 2)
        for level, row in ((2, 2), (3, 1)):
            with pytest.raises(CertificateViolationError) as err:
                row_sums_scaled(_DOUBLE_EDGE, level)
            assert (err.value.level, err.value.row) == (level, row)


def _equality_graphs():
    """Seeded connected G(n, p) graphs with 7 <= n <= 40, and relabeled
    members of the equality families."""
    rng = random.Random(4242)
    for n in range(7, 41):
        for p in (0.15, 0.35, 0.6, 0.85):
            yield random_connected_graph(rng, n, p)
        t = rng.randint(2, n - 1)
        h = n - t + 1
        r = rng.choice([r for r in range(h) if r * h % 2 == 0])
        g = gen_join_dominating(n, t, r)
        perm = list(range(n))
        rng.shuffle(perm)
        yield Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges()])
        yield gen_named("cycle", n)


class TestExactEquality:
    """The levels where every slack is zero are exactly the levels
    ``classify_equality`` predicts tight: equality decided in integers,
    without an eigenvalue or a tolerance."""

    @staticmethod
    def _zero_slack_levels(g):
        return frozenset(level for level, slacks in enumerate(row_slacks(g), start=1)
                         if not any(slacks))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_exhaustive(self, n):
        for g in enumerate_connected(n):
            predicted = classify_equality(degree_sequence(g)).predicted_tight_levels
            assert self._zero_slack_levels(g) == predicted

    def test_seeded_up_to_40(self):
        kinds = set()
        for g in _equality_graphs():
            cert = classify_equality(degree_sequence(g))
            kinds.add(cert.kind)
            assert self._zero_slack_levels(g) == cert.predicted_tight_levels
        assert kinds == {"Regular", "Dominating", "None"}
