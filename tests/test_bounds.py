import itertools
import math
import random
import time

import pytest
from hypothesis import given, strategies as st

from conftest import (
    brualdi_hoffman_reference,
    exact_phi_argmin,
    exact_phi_compare,
    is_graphical_reference,
    random_degree_sequence,
)
from rho_bounds import (
    CSV_COLUMNS,
    EQUAL,
    GREATER,
    LESS,
    DegreeSequence,
    Graph,
    bound_brualdi_hoffman,
    bound_hong,
    bound_hong_shu_fang,
    bound_max_degree,
    bound_report,
    bound_shu_wu,
    bound_stanley,
    classify_equality,
    compare_step,
    degree_sequence,
    enumerate_connected,
    is_graphical,
    phi,
    phi_sequence,
    spectral_radius_power,
)
from rho_bounds.bounds import (
    compare_half_surds, hong_shu_fang_surd, phi_surd, shu_wu_surd, surd_sign,
)
from rho_bounds.harness import report_row


def seq_of(*degrees) -> DegreeSequence:
    return DegreeSequence.from_degrees(degrees)


@st.composite
def degree_sequences(draw, max_n=30):
    n = draw(st.integers(1, max_n))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    p = rng.uniform(0.05, 0.95)
    degrees = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                degrees[i] += 1
                degrees[j] += 1
    return DegreeSequence.from_degrees(degrees)


class TestPhi:
    def test_p6_last_level(self):
        assert phi(seq_of(2, 2, 2, 2, 1, 1), 6) == math.sqrt(5)

    def test_mixed_sequence_exact_integer(self):
        assert phi(seq_of(4, 3, 3, 2, 1, 1), 4) == 3.0

    def test_regular_any_level(self):
        s = seq_of(3, 3, 3, 3)
        assert [phi(s, level) for level in range(1, 5)] == [3.0] * 4

    def test_level_one_is_max_degree(self):
        assert phi(seq_of(5, 2, 1, 1, 1, 1, 1), 1) == 5.0

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            phi(seq_of(1, 1), 0)
        with pytest.raises(ValueError):
            phi(seq_of(1, 1), 3)

    @given(degree_sequences())
    def test_at_least_degree(self, seq):
        for level in range(1, seq.n + 1):
            assert phi(seq, level) >= seq.degrees[level - 1]

    @given(degree_sequences())
    def test_equal_degrees_equal_phi(self, seq):
        values = [phi(seq, level) for level in range(1, seq.n + 1)]
        for s in range(seq.n):
            for t in range(s + 1, seq.n):
                if seq.degrees[s] == seq.degrees[t]:
                    assert values[s] == values[t]


class TestPhiSequence:
    def test_two_two_one_one(self):
        phis = phi_sequence(seq_of(2, 2, 1, 1))
        assert phis.values == (2.0, 2.0, math.sqrt(3), math.sqrt(3))
        assert phis.surds == ((1, 9), (1, 9), (0, 12), (0, 12))
        assert phis.argmin_levels == frozenset({3, 4})
        assert phis.pivot == 3

    def test_p6_shape(self):
        phis = phi_sequence(seq_of(2, 2, 2, 2, 1, 1))
        assert phis.values[0] == phis.values[1] == 2.0
        assert phis.values[4] == phis.values[5] == math.sqrt(5)
        assert phis.argmin_levels == frozenset({1, 2, 3, 4})
        assert phis.pivot == 4

    def test_complete_constant(self):
        phis = phi_sequence(seq_of(4, 4, 4, 4, 4))
        assert phis.values == (4.0,) * 5
        assert phis.pivot is None
        assert phis.argmin_levels == frozenset(range(1, 6))
        assert phis.minimum == 4.0


class TestShuWu:
    def test_mixed_sequence(self):
        got = bound_shu_wu(seq_of(4, 3, 3, 2, 1, 1), 4)
        assert abs(got - (1 + math.sqrt(33)) / 2) <= 1e-15
        assert got >= 3.0  # never better than phi there
        assert shu_wu_surd(seq_of(4, 3, 3, 2, 1, 1), 4) == (1, 33)

    @given(degree_sequences())
    def test_float_rounds_the_pair_once(self, seq):
        d1 = seq.degrees[0]
        for level, d in enumerate(seq.degrees, start=1):
            radicand = (d + 1) ** 2 + 4 * (level - 1) * (d1 - d)
            assert bound_shu_wu(seq, level) == (d - 1 + math.sqrt(radicand)) / 2

    def test_regular_collapses(self):
        s = seq_of(2, 2, 2, 2, 2)
        assert all(bound_shu_wu(s, level) == 2.0 for level in range(1, 6))

    def test_star_level_two(self):
        assert bound_shu_wu(seq_of(3, 1, 1, 1), 2) == math.sqrt(3)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            bound_shu_wu(seq_of(1, 1), 5)


class TestHongShuFang:
    def test_mixed(self):
        assert bound_hong_shu_fang(seq_of(4, 3, 3, 2, 1, 1)) == 3.0

    def test_regular(self):
        assert bound_hong_shu_fang(seq_of(3, 3, 3, 3)) == 3.0

    def test_p6(self):
        assert bound_hong_shu_fang(seq_of(2, 2, 2, 2, 1, 1)) == math.sqrt(5)

    @given(degree_sequences())
    def test_exact_identity_with_phi_n(self, seq):
        # the full-prefix excess telescopes, so the pairs are identical
        assert hong_shu_fang_surd(seq) == phi_surd(seq, seq.n)
        assert phi(seq, seq.n) == bound_hong_shu_fang(seq)


class TestHong:
    def test_star_tight(self):
        for n in range(2, 9):
            s = DegreeSequence.from_degrees([n - 1] + [1] * (n - 1))
            assert bound_hong(s) == math.sqrt(n - 1)

    def test_k4(self):
        assert bound_hong(seq_of(3, 3, 3, 3)) == 3.0

    def test_mixed(self):
        assert bound_hong(seq_of(4, 3, 3, 2, 1, 1)) == 3.0


class TestStanley:
    def test_k4_edges(self):
        assert bound_stanley(6) == 3.0

    def test_seven_edges(self):
        assert abs(bound_stanley(7) - (-1 + math.sqrt(57)) / 2) <= 1e-15

    def test_single_edge(self):
        assert bound_stanley(1) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bound_stanley(-1)


class TestBrualdiHoffman:
    @pytest.mark.parametrize("m,expected", [(0, 0.0), (1, 1.0), (6, 3.0), (7, 4.0)])
    def test_values(self, m, expected):
        assert bound_brualdi_hoffman(m) == expected

    def test_matches_quadratic_formula(self):
        for m in range(0, 300):
            k = math.ceil((1 + math.sqrt(1 + 8 * m)) / 2)
            while k * (k - 1) // 2 < m:  # guard against float edge cases
                k += 1
            while k > 1 and (k - 1) * (k - 2) // 2 >= m:
                k -= 1
            assert bound_brualdi_hoffman(m) == float(k - 1)

    def test_never_below_stanley(self):
        for m in range(1, 200):
            assert bound_brualdi_hoffman(m) >= bound_stanley(m) - 1e-12

    def test_matches_counting_reference(self):
        for m in range(100_001):
            assert bound_brualdi_hoffman(m) == brualdi_hoffman_reference(m), m

    def test_negative_edge_count(self):
        with pytest.raises(ValueError, match="nonnegative, got -1$"):
            bound_brualdi_hoffman(-1)

    @pytest.mark.parametrize("k", [10**15 + 7, 10**100])
    def test_huge_edge_count(self, k):
        # the counting loop would take k steps at these triangular numbers
        t = k * (k - 1) // 2
        assert bound_brualdi_hoffman(t) == float(k - 1)
        assert bound_brualdi_hoffman(t + 1) == float(k)


class TestMaxDegree:
    def test_values(self):
        assert bound_max_degree(seq_of(3, 1, 1, 1)) == 3.0
        assert bound_max_degree(seq_of(2, 2, 2)) == 2.0
        assert bound_max_degree(seq_of(4, 3, 3, 2, 1, 1)) == 4.0


class TestPredecessorChain:
    def test_all_equal_on_complete(self):
        for n in range(2, 11):
            s = DegreeSequence.from_degrees([n - 1] * n)
            assert bound_hong(s) == float(n - 1)
            assert bound_stanley(s.m) == float(n - 1)
            assert bound_brualdi_hoffman(s.m) == float(n - 1)

    def test_chain_on_connected_graphs(self):
        from rho_bounds import degree_sequence, enumerate_connected

        for n in range(2, 6):
            for g in enumerate_connected(n):
                seq = degree_sequence(g)
                hong = bound_hong(seq)
                stanley = bound_stanley(seq.m)
                bh = bound_brualdi_hoffman(seq.m)
                assert hong <= stanley + 1e-12 <= bh + 2e-12


class TestCompareStep:
    def test_strict_drop(self):
        assert compare_step(seq_of(2, 2, 1, 1), 2) == GREATER

    def test_tied_degrees(self):
        assert compare_step(seq_of(2, 2, 1, 1), 3) == EQUAL

    def test_exact_boundary(self):
        # prefix[4] = 12 = 4*3 although d_4 > d_5
        assert compare_step(seq_of(4, 3, 3, 2, 1, 1), 4) == EQUAL

    def test_less(self):
        assert compare_step(seq_of(2, 2, 1, 1), 2) == GREATER
        assert compare_step(seq_of(1, 1, 1, 1, 0, 0), 4) == LESS

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            compare_step(seq_of(1, 1), 2)

    @given(degree_sequences())
    def test_agrees_with_exact_surds(self, seq):
        for s in range(1, seq.n):
            assert compare_step(seq, s) == exact_phi_compare(seq, s, s + 1)

    @given(degree_sequences())
    def test_valley_shape(self, seq):
        seen_less = False
        for s in range(1, seq.n):
            ordering = compare_step(seq, s)
            if ordering == LESS:
                seen_less = True
            elif ordering == GREATER:
                assert not seen_less, f"rise after fall at step {s}: {seq.degrees}"


class TestMinPhi:
    """The structural minimum of ``phi_sequence``: pivot and argmin levels."""

    def test_pivot_case(self):
        phis = phi_sequence(seq_of(2, 2, 1, 1))
        assert phis.minimum == math.sqrt(3)
        assert phis.pivot == 3
        assert phis.argmin_levels == frozenset({3, 4})

    def test_plateau_before_pivot(self):
        phis = phi_sequence(seq_of(2, 2, 2, 2, 1, 1))
        assert phis.minimum == 2.0
        assert phis.pivot == 4
        assert phis.argmin_levels == frozenset({1, 2, 3, 4})

    def test_secondary_clause(self):
        # prefix[4] = 12 = 4*3 marries level 4 into the argmin of pivot 5
        phis = phi_sequence(seq_of(4, 3, 3, 2, 1, 1))
        assert phis.minimum == 3.0
        assert phis.pivot == 5
        assert phis.argmin_levels == frozenset({4, 5, 6})

    def test_complete_fallback(self):
        for n in range(1, 8):
            phis = phi_sequence(DegreeSequence.from_degrees([n - 1] * n))
            assert phis.pivot is None
            assert phis.minimum == float(n - 1)
            assert phis.argmin_levels == frozenset(range(1, n + 1))

    @given(degree_sequences())
    def test_matches_exact_scan(self, seq):
        phis = phi_sequence(seq)
        levels = phis.argmin_levels
        assert levels == exact_phi_argmin(seq)
        values = [phi(seq, level) for level in range(1, seq.n + 1)]
        assert phis.values == tuple(values)
        assert phis.minimum == values[min(levels) - 1]
        assert min(values) <= phis.minimum <= min(values) + 1e-12

    @given(degree_sequences())
    def test_pivot_definition(self, seq):
        pivot = phi_sequence(seq).pivot
        qualifying = [
            level for level in range(3, seq.n + 1)
            if seq.prefix[level] < level * (level - 1)
        ]
        assert pivot == (qualifying[0] if qualifying else None)


class TestDominance:
    @given(degree_sequences())
    def test_phi_never_above_shu_wu(self, seq):
        for level in range(1, seq.n + 1):
            assert phi(seq, level) <= bound_shu_wu(seq, level)


class TestSurdComparator:
    def test_against_high_precision(self):
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        for a1 in range(-3, 7):
            for b1 in range(0, 40):
                for a2 in range(-3, 7):
                    for b2 in range(0, 40):
                        lhs = Decimal(a1) + Decimal(b1).sqrt()
                        rhs = Decimal(a2) + Decimal(b2).sqrt()
                        diff = lhs - rhs
                        if abs(diff) < Decimal("1e-40"):
                            expected = 0
                        else:
                            expected = 1 if diff > 0 else -1
                        assert compare_half_surds(a1, b1, a2, b2) == expected, (
                            (a1, b1, a2, b2)
                        )

    @pytest.mark.parametrize("b1, b2", [(4, -1), (-1, 4)], ids=["right", "left"])
    def test_negative_radicand(self, b1, b2):
        # a = 3 puts the left side above the right for any radicands, so no
        # comparison decides before the radicand is read
        with pytest.raises(ValueError, match="radicand must be nonnegative, got -1$"):
            compare_half_surds(3, b1, 0, b2)


class TestSurdSign:
    def test_against_high_precision(self):
        from decimal import Decimal, getcontext

        getcontext().prec = 60
        for p in range(-6, 7):
            for q in range(-6, 7):
                for r in range(0, 41):
                    value = Decimal(p) + Decimal(q) * Decimal(r).sqrt()
                    expected = 0 if abs(value) < Decimal("1e-40") else (1 if value > 0 else -1)
                    assert surd_sign(p, q, r) == expected, (p, q, r)

    def test_negative_radicand(self):
        with pytest.raises(ValueError, match="radicand"):
            surd_sign(0, 0, -1)

    @pytest.mark.parametrize("q, r", [(3, 2**258 + 12345), (-7, 2**258 + 1), (5, 2**258)],
                             ids=["q3", "q-7", "square"])
    def test_near_ties_at_2_130(self, q, r):
        # |q|sqrt(r) lies in [s, s + 1) for s = isqrt(q^2 r), and equals s
        # only on a perfect square: p = -sign(q)(s + delta) puts p + q sqrt(r)
        # just below, at or just above zero, far past float resolution
        s = math.isqrt(q * q * r)
        exact = s * s == q * q * r
        sign_q = 1 if q > 0 else -1
        for delta in (-1, 0, 1):
            # the sign of |p| - |q|sqrt(r): delta's, except that delta = 0
            # is below |q|sqrt(r) off a perfect square
            below = delta if exact or delta else -1
            assert surd_sign(-sign_q * (s + delta), q, r) == -sign_q * below, delta
            assert surd_sign(sign_q * (s + delta), q, r) == sign_q, delta


class TestGraphical:
    @pytest.mark.parametrize(
        "degrees,expected",
        [
            ((3, 3, 2, 2), True),
            ((3, 1, 1, 1), True),
            ((3, 3, 3, 1), False),
            ((2, 2, 2), True),
            ((4, 4, 4, 4, 4), True),
            ((5, 1, 1, 1, 1), False),
            ((2, 1), False),  # odd sum
            ((0,), True),
        ],
    )
    def test_known(self, degrees, expected):
        assert is_graphical(degrees) == expected

    @given(degree_sequences())
    def test_graph_sequences_are_graphical(self, seq):
        assert is_graphical(seq.degrees)

    def test_matches_reference_up_to_7(self):
        # sorting is the first step of both, so sorted tuples cover every order
        for n in range(8):
            for degrees in itertools.combinations_with_replacement(range(-1, n + 1), n):
                assert is_graphical(degrees) == is_graphical_reference(degrees), degrees

    def test_matches_reference_random(self):
        rng = random.Random(20121)
        for _ in range(2000):
            n = rng.randint(1, 40)
            high = rng.choice((3, n // 2 + 1, n))
            degrees = [rng.randint(0, high) for _ in range(n)]
            assert is_graphical(degrees) == is_graphical_reference(degrees), degrees
        for _ in range(200):
            seq = random_degree_sequence(rng)
            assert is_graphical(seq.degrees) and is_graphical_reference(seq.degrees)

    def test_linear_time(self):
        start = time.perf_counter()
        assert is_graphical([1] * 100_000)
        assert time.perf_counter() - start < 2.0


class TestBoundReport:
    def test_fields(self):
        seq = seq_of(4, 3, 3, 2, 1, 1)
        report = bound_report(seq)
        assert report.phis == phi_sequence(seq)
        assert report.phis.values[3] == report.phis.values[4] == 3.0
        assert report.phis.values[-1] == report.hong_shu_fang
        assert report.phis.pivot == 5
        assert report.max_degree == 4.0
        assert report.cert == classify_equality(seq)

    def test_without_rho(self):
        # the report is the sequence's alone; the row adds the graph's rho
        seq = seq_of(2, 1, 1)
        report = bound_report(seq)
        for name in ("rho", "slack_min", "n", "m"):
            assert not hasattr(report, name)
        row = dict(zip(CSV_COLUMNS, report_row("Bg", seq, report, None)))
        assert row["rho"] is None and row["slack_min"] is None
        row = dict(zip(CSV_COLUMNS, report_row("Bg", seq, report, 1.25)))
        assert (row["n"], row["m"], row["rho"]) == (3, 2, 1.25)
        assert row["slack_min"] == report.phis.minimum - 1.25

    def test_no_certificate_at_n1(self):
        assert bound_report(seq_of(0)).cert is None
        assert bound_report(seq_of(1, 1)).cert is not None

    def test_one_report_per_sequence(self):
        # two labelings of the path 0-1-2-3 plus a pendant at 1, and a
        # non-isomorphic graph with the same degrees (3, 2, 1, 1, 1)
        graphs = [
            Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (1, 4)]),
            Graph.from_edges(5, [(4, 3), (3, 2), (2, 1), (3, 0)]),
            Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
        ]
        reports = [bound_report(degree_sequence(g)) for g in graphs]
        assert reports[0] == reports[1] == reports[2]
        assert len({hash(r) for r in reports}) == 1
        assert reports[0] != bound_report(seq_of(2, 2, 2, 1, 1))

    def test_rho_below_every_bound(self):
        for g in enumerate_connected(5):
            seq = degree_sequence(g)
            report = bound_report(seq)
            rho = spectral_radius_power(g).rho
            for value in (
                report.phis.minimum, report.hong_shu_fang, report.hong, report.stanley,
                report.brualdi_hoffman, report.max_degree, *report.phis.values,
                *(bound_shu_wu(seq, level) for level in range(1, seq.n + 1)),
            ):
                assert rho <= value + 1e-9
