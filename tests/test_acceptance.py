"""Acceptance suite: the ten exit criteria, each printing one PASS line.

The exhaustive sweeps cover every labeled connected graph up to 7 vertices
(1,893,732 graphs).  Worker count comes from RHO_BOUNDS_JOBS or the CPU
count, so the long n=7 campaign parallelizes; expect minutes, not seconds.
Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import os
import random

import pytest

from conftest import (
    exact_phi_argmin,
    random_connected_graph,
    random_degree_sequence,
)
from rho_bounds import (
    CampaignConfig,
    DegreeSequence,
    bound_hong,
    bound_hong_shu_fang,
    bound_shu_wu,
    bound_stanley,
    compare_step,
    gen_named,
    phi,
    phi_sequence,
    run_campaign,
    spectral_radius_charpoly,
    spectral_radius_power,
)
from rho_bounds.tolerances import TOLERANCES

JOBS = int(os.environ.get("RHO_BOUNDS_JOBS", "0")) or (os.cpu_count() or 1)

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

# The campaign's tolerances come from TOLERANCES; these two are the suite's
# own thresholds for the closed forms and the predecessors' tight families.
CLOSED_FORM_TOL = 1e-10
TIGHT_FAMILY_TOL = 1e-10


def _violations(result, check):
    return [v for v in result.violations if v[1] == check]


@pytest.fixture(scope="module")
def exhaustive_small():
    """All six checks (replay included) on every connected graph, n <= 6."""
    results = {}
    for n in range(1, 7):
        results[n] = run_campaign(CampaignConfig(source="enumerate", n=n, jobs=JOBS))
        assert results[n].graphs_checked == CONNECTED_COUNTS[n]
    return results


@pytest.fixture(scope="module")
def exhaustive_seven():
    """The n=7 sweep; replay is certified separately at n <= 6."""
    result = run_campaign(CampaignConfig(
        source="enumerate",
        n=7,
        jobs=JOBS,
        checks=("soundness", "dominance", "equality", "unimodality", "oracle"),
    ))
    assert result.graphs_checked == CONNECTED_COUNTS[7]
    return result


@pytest.fixture(scope="module")
def random_sequences():
    """10^4 graphical sequences with n <= 50, plus the tight families."""
    rng = random.Random(20260808)
    seqs = [DegreeSequence.from_degrees([n - 1] * n) for n in range(1, 11)]
    seqs += [
        DegreeSequence.from_degrees([n - 1] + [1] * (n - 1)) for n in range(2, 11)
    ]
    seqs += [
        DegreeSequence.from_degrees([2] * (n - 2) + [1, 1]) for n in range(2, 13)
    ]
    seqs.append(DegreeSequence.from_degrees([4, 3, 3, 2, 1, 1]))
    while len(seqs) < 10_000:
        seqs.append(random_degree_sequence(rng, max_n=50))
    return seqs


def _all_exhaustive(exhaustive_small, exhaustive_seven):
    return list(exhaustive_small.values()) + [exhaustive_seven]


def test_criterion_01_soundness_exhaustive(exhaustive_small, exhaustive_seven):
    """rho(G) <= phi_l + 1e-9 for every connected graph n <= 7 and every level."""
    total = 0
    for result in _all_exhaustive(exhaustive_small, exhaustive_seven):
        bad = _violations(result, "soundness")
        assert bad == [], bad[:5]
        total += result.graphs_checked
    assert total == sum(CONNECTED_COUNTS.values())
    print(f"\nACCEPTANCE 1 soundness: PASS ({total} graphs, every level, "
          f"tol {TOLERANCES['soundness']})")


def test_criterion_02_equality_iff_exhaustive(exhaustive_small, exhaustive_seven):
    """Predicted tight levels equal the numeric tight set on every graph."""
    tight_graphs = 0
    for result in _all_exhaustive(exhaustive_small, exhaustive_seven):
        bad = _violations(result, "equality")
        assert bad == [], bad[:5]
        tight_graphs += result.tight_instances["equality"]
    assert tight_graphs > 0
    print(f"\nACCEPTANCE 2 equality-iff: PASS ({tight_graphs} tight graphs "
          f"matched exactly, tol {TOLERANCES['equality']})")


def test_criterion_03_phi_n_is_hong_shu_fang(
    exhaustive_small, exhaustive_seven, random_sequences
):
    """phi at level n reproduces the Hong-Shu-Fang bound to <= 1 ulp."""
    for result in _all_exhaustive(exhaustive_small, exhaustive_seven):
        assert _violations(result, "dominance") == []
    worst = 0.0
    for seq in random_sequences:
        a = phi(seq, seq.n)
        b = bound_hong_shu_fang(seq)
        assert abs(a - b) <= math.ulp(max(abs(b), 1.0)), seq.degrees
        worst = max(worst, abs(a - b))
    print(f"\nACCEPTANCE 3 phi_n identity: PASS (exhaustive n<=7 plus "
          f"{len(random_sequences)} sequences, worst gap {worst})")


def test_criterion_04_dominates_shu_wu(
    exhaustive_small, exhaustive_seven, random_sequences
):
    """phi_l <= shu_wu_l + 1e-12 everywhere, strictly better on the example."""
    for result in _all_exhaustive(exhaustive_small, exhaustive_seven):
        assert _violations(result, "dominance") == []
    dominance_tol = TOLERANCES["dominance"]
    for seq in random_sequences:
        for level in range(1, seq.n + 1):
            assert phi(seq, level) <= bound_shu_wu(seq, level) + dominance_tol
    example = DegreeSequence.from_degrees([4, 3, 3, 2, 1, 1])
    improved = phi(example, 4)
    shu_wu = bound_shu_wu(example, 4)
    assert improved == 3.0
    assert abs(shu_wu - (1 + math.sqrt(33)) / 2) <= 1e-12
    assert improved < shu_wu - 0.37
    print(f"\nACCEPTANCE 4 dominance: PASS (tol {dominance_tol}; example "
          f"phi_4={improved} vs shu_wu_4={shu_wu:.10f})")


def test_criterion_05_worked_examples():
    """Path phi profile for n=6..12 and the (4,3,3,2,1,1) plateau, exactly."""
    for n in range(6, 13):
        seq = DegreeSequence.from_degrees([2] * (n - 2) + [1, 1])
        values = phi_sequence(seq).values
        assert values[0] == values[1] == 2.0
        assert values[n - 2] == values[n - 1] == math.sqrt(n - 1)
        assert 2.0 < math.sqrt(n - 1)
    example = DegreeSequence.from_degrees([4, 3, 3, 2, 1, 1])
    assert phi(example, 4) == 3.0 and phi(example, 5) == 3.0
    assert example.degrees[3] > example.degrees[4]
    print("\nACCEPTANCE 5 worked examples: PASS (paths n=6..12 exact; "
          "(4,3,3,2,1,1) plateau exact with d_4 > d_5)")


def test_criterion_06_step_comparator(
    exhaustive_small, exhaustive_seven, random_sequences
):
    """Integer step comparison matches floats at 1e-9; valley shape holds."""
    for result in _all_exhaustive(exhaustive_small, exhaustive_seven):
        bad = _violations(result, "unimodality")
        assert bad == [], bad[:5]
    comparator_tol = TOLERANCES["comparator"]
    for seq in random_sequences:
        values = phi_sequence(seq).values
        seen_less = False
        for s in range(1, seq.n):
            ordering = compare_step(seq, s)
            diff = values[s - 1] - values[s]
            float_ordering = (
                0 if abs(diff) <= comparator_tol else (1 if diff > 0 else -1)
            )
            assert ordering == float_ordering, (seq.degrees, s)
            if ordering == -1:
                seen_less = True
            else:
                assert not (seen_less and ordering == 1), (seq.degrees, s)
    print(f"\nACCEPTANCE 6 comparator: PASS (exhaustive n<=7 plus "
          f"{len(random_sequences)} sequences with n <= 50)")


def test_criterion_07_minimum_location(
    exhaustive_small, exhaustive_seven, random_sequences
):
    """Pivot-based minimum equals a direct scan; fallback only when no
    level qualifies (complete graphs in the exhaustive corpus)."""
    for result in _all_exhaustive(exhaustive_small, exhaustive_seven):
        assert _violations(result, "unimodality") == []
    # within the exhaustive corpus exactly the complete graph of each order
    # lacks a qualifying level
    for n, result in exhaustive_small.items():
        assert result.tight_instances["unimodality"] == 1, n
    assert exhaustive_seven.tight_instances["unimodality"] == 1
    comparator_tol = TOLERANCES["comparator"]
    fallbacks = 0
    for seq in random_sequences:
        phis = phi_sequence(seq)
        value, pivot, levels = phis.minimum, phis.pivot, phis.argmin_levels
        values = phis.values
        vmin = min(values)
        scanned = frozenset(
            j for j in range(1, seq.n + 1) if values[j - 1] <= vmin + comparator_tol
        )
        assert levels == scanned == exact_phi_argmin(seq), seq.degrees
        assert abs(value - vmin) <= comparator_tol
        qualifying = [
            level for level in range(3, seq.n + 1)
            if seq.prefix[level] < level * (level - 1)
        ]
        assert pivot == (qualifying[0] if qualifying else None)
        if pivot is None:
            fallbacks += 1
    assert fallbacks >= 10  # the complete-sequence family is in the corpus
    print(f"\nACCEPTANCE 7 minimum location: PASS (argmin matched exactly; "
          f"{fallbacks} fallback sequences engaged)")


def test_criterion_08_proof_replay(exhaustive_small):
    """Scaled row sums certify the bound on every graph n <= 6, every level."""
    total = 0
    for n, result in exhaustive_small.items():
        bad = _violations(result, "replay")
        assert bad == [], bad[:5]
        total += result.graphs_checked
    assert total == sum(CONNECTED_COUNTS[n] for n in range(1, 7))
    print(f"\nACCEPTANCE 8 proof replay: PASS ({total} graphs, all levels, "
          f"tol {TOLERANCES['replay']})")


def test_criterion_09_oracle_cross_validation(exhaustive_small, exhaustive_seven):
    """Power and charpoly agree to 1e-9 exhaustively (n <= 7) and on 10^4
    random graphs for each of n = 8, 9; closed forms hit to 1e-10."""
    for result in _all_exhaustive(exhaustive_small, exhaustive_seven):
        bad = _violations(result, "oracle")
        assert bad == [], bad[:5]
    rng = random.Random(20260809)
    worst = 0.0
    for n in (8, 9):
        for _ in range(10_000):
            g = random_connected_graph(rng, n, 0.5)
            gap = abs(
                spectral_radius_power(g).rho - spectral_radius_charpoly(g).rho
            )
            worst = max(worst, gap)
            assert gap <= TOLERANCES["oracle"]
    for n in range(2, 13):
        for method in (spectral_radius_power, spectral_radius_charpoly):
            assert abs(
                method(gen_named("path", n)).rho - 2 * math.cos(math.pi / (n + 1))
            ) <= CLOSED_FORM_TOL
            assert abs(
                method(gen_named("star", n)).rho - math.sqrt(n - 1)
            ) <= CLOSED_FORM_TOL
            assert abs(
                method(gen_named("complete", n)).rho - (n - 1)
            ) <= CLOSED_FORM_TOL
    print(f"\nACCEPTANCE 9 oracle cross-validation: PASS (exhaustive n<=7, "
          f"20000 random n=8,9 with worst gap {worst:.2e}, closed forms to "
          f"{CLOSED_FORM_TOL})")


def test_criterion_10_predecessor_tightness():
    """Stanley and Hong equal rho on K_n; Hong equals rho on stars (n=2..8)."""
    for n in range(2, 9):
        complete = gen_named("complete", n)
        seq_c = DegreeSequence.from_degrees([n - 1] * n)
        rho_c = spectral_radius_power(complete).rho
        assert abs(bound_stanley(seq_c.m) - rho_c) <= TIGHT_FAMILY_TOL
        assert abs(bound_hong(seq_c) - rho_c) <= TIGHT_FAMILY_TOL
        star = gen_named("star", n)
        seq_s = DegreeSequence.from_degrees([n - 1] + [1] * (n - 1))
        rho_s = spectral_radius_power(star).rho
        assert abs(bound_hong(seq_s) - rho_s) <= TIGHT_FAMILY_TOL
    print(f"\nACCEPTANCE 10 predecessor tightness: PASS (K_n and stars, "
          f"n=2..8, tol {TIGHT_FAMILY_TOL})")
