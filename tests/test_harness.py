import collections
import itertools
import math
import multiprocessing
import random
import tracemalloc

import pytest

import rho_bounds
from rho_bounds import harness

from rho_bounds import (
    BoundReport,
    CampaignConfig,
    CHECKS,
    CSV_COLUMNS,
    DOMINATING,
    DegreeSequence,
    EqualityCertificate,
    Graph,
    GraphParseError,
    NONE,
    REGULAR,
    SpectralResult,
    bound_report,
    degree_sequence,
    encode_graph6,
    enumerate_connected,
    gen_named,
    run_campaign,
    spectral_radius_power,
)
from rho_bounds.bounds import (
    EQUAL, GREATER, LESS, compare_half_surds, compare_step, hong_shu_fang_surd, phi,
    phi_surd,
)
from rho_bounds.graph_core import enumerate_blocks, enumeration_space
from rho_bounds.spectral_oracle import CHARPOLY_MAX_N

from conftest import (
    class_key, examine_graph_reference, lollipop, random_connected_graph, run_chunk_reference,
    without_vertex_0,
)


def campaign(tmp_path=None, **kwargs):
    return run_campaign(CampaignConfig(**kwargs))


class TestEnumerateCampaigns:
    def test_n5_all_checks_clean(self):
        result = campaign(source="enumerate", n=5)
        assert result.graphs_checked == 728
        assert result.skipped_disconnected == 0
        assert result.violations == []

    def test_n3_equality_tight_instances(self):
        result = campaign(source="enumerate", n=3, checks=("equality",))
        assert result.graphs_checked == 4
        # the triangle is regular, each labeled path is a dominating star
        assert result.tight_instances["equality"] == 4
        assert result.violations == []

    def test_pivot_fallback_only_complete(self):
        result = campaign(source="enumerate", n=4, checks=("unimodality",))
        assert result.tight_instances["unimodality"] == 1  # K_4 alone

    def test_soundness_tight_count_is_exact(self):
        # soundness counts a graph tight when its argmin level has zero
        # slacks, which is exactly when the graph is an equality case
        result = campaign(source="enumerate", n=5, checks=("soundness", "equality"))
        assert result.tight_instances == {"soundness": 68, "equality": 68}
        assert result.violations == []

    def test_tiny_graphs_are_tight_everywhere(self):
        # K_1 (rho = phi_1 = 0) and K_2 (rho = phi_l = 1) are regular
        for n in (1, 2):
            result = campaign(source="enumerate", n=n)
            assert result.violations == []
            assert result.tight_instances == {
                "soundness": 1, "dominance": 0, "equality": n - 1,
                "unimodality": 1, "replay": 1, "oracle": 1,
            }

    def test_rows_in_source_order(self):
        rows = []
        result = run_campaign(
            CampaignConfig(source="enumerate", n=4), row_sink=rows.append
        )
        assert len(rows) == result.graphs_checked == 38
        assert all(len(row) == len(CSV_COLUMNS) for row in rows)
        ids = [row[0] for row in rows]
        assert len(set(ids)) == 38

    def test_parallel_merge_deterministic(self):
        rows_1, rows_2 = [], []
        res_1 = run_campaign(
            CampaignConfig(source="enumerate", n=5, jobs=1), row_sink=rows_1.append
        )
        res_2 = run_campaign(
            CampaignConfig(source="enumerate", n=5, jobs=2), row_sink=rows_2.append
        )
        assert rows_1 == rows_2
        assert res_1.graphs_checked == res_2.graphs_checked
        assert res_1.violations == res_2.violations
        assert res_1.tight_instances == res_2.tight_instances


class TestFileCampaigns:
    def test_graph6_file(self, tmp_path):
        path = tmp_path / "two.g6"
        path.write_text("C~\nCh\n")
        result = campaign(source="graph6", path=str(path), checks=("soundness",))
        assert result.graphs_checked == 2
        assert result.violations == []

    def test_graph6_header_line_skipped(self, tmp_path):
        path = tmp_path / "hdr.g6"
        path.write_text(">>graph6<<\nC~\n")
        result = campaign(source="graph6", path=str(path), checks=("soundness",))
        assert result.graphs_checked == 1

    def test_disconnected_skipped_and_counted(self, tmp_path):
        path = tmp_path / "mixed.g6"
        path.write_text("A?\nA_\n")  # edgeless pair, then K_2
        result = campaign(source="graph6", path=str(path), checks=("soundness",))
        assert result.graphs_checked == 1
        assert result.skipped_disconnected == 1

    def test_parse_error_names_record(self, tmp_path):
        path = tmp_path / "bad.g6"
        path.write_text("C~\nC\n")
        with pytest.raises(GraphParseError, match="record 2"):
            campaign(source="graph6", path=str(path), checks=("soundness",))

    def test_edgelist_file(self, tmp_path):
        path = tmp_path / "p4.txt"
        path.write_text("4\n0 1\n1 2\n2 3\n")
        rows = []
        result = run_campaign(
            CampaignConfig(source="edgelist", path=str(path)),
            row_sink=rows.append,
        )
        assert result.graphs_checked == 1
        assert rows[0][0] == "Ch"  # re-encoded identifier

    def test_graph6_id_is_the_record_as_read(self, tmp_path):
        # nonzero padding bits decode to the same graph as the canonical
        # record, but the id is the record itself, past any prefix and
        # before any trailing whitespace
        canonical = encode_graph6(gen_named("path", 5))  # 10 bits in 12
        padded = canonical[:-1] + chr(63 + (ord(canonical[-1]) - 63 | 0b11))
        assert padded != canonical
        path = tmp_path / "padded.g6"
        path.write_text(f">>graph6<<{padded} \t\r\n{canonical}\n")
        rows = []
        run_campaign(CampaignConfig(source="graph6", path=str(path)), row_sink=rows.append)
        assert [row[0] for row in rows] == [padded, canonical]
        assert rows[0][1:] == rows[1][1:]

    def test_missing_file(self):
        with pytest.raises(OSError):
            campaign(source="graph6", path="/nonexistent/x.g6")


class TestRowContents:
    def test_k4_row(self):
        rows = []
        run_campaign(
            CampaignConfig(source="enumerate", n=3), row_sink=rows.append
        )
        by_id = {row[0]: dict(zip(CSV_COLUMNS, row)) for row in rows}
        triangle = by_id["Bw"]
        assert triangle["n"] == 3 and triangle["m"] == 3
        assert abs(triangle["rho"] - 2.0) <= 1e-10
        assert triangle["phi_min"] == 2.0
        assert triangle["pivot"] is None
        assert triangle["cert_kind"] == "Regular"
        assert triangle["cert_t"] is None
        path = by_id["Bg"]
        assert path["cert_kind"] == "Dominating"
        assert path["cert_t"] == 2
        assert abs(path["slack_min"]) <= 1e-9  # stars are tight


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(source="nope", n=3),
            dict(source="enumerate"),
            dict(source="graph6"),
            dict(source="enumerate", n=3, checks=("bogus",)),
            dict(source="edgelist"),
            dict(source="enumerate", n=3, jobs=0),
            dict(source="enumerate", n=9),
            dict(source="enumerate", n=0),
            dict(source="enumerate", n=8),
            dict(source="enumerate", n=3, jobs=-1),
            dict(source="enumerate", n=-1),
            dict(source="enumerate", n=3, checks=()),
            dict(source="enumerate", n=3, checks=("soundness", "soundness")),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(**kwargs))

    def test_no_tolerance_field(self):
        # every verdict is exact, so a campaign has no tolerance to set
        with pytest.raises(TypeError):
            CampaignConfig(source="enumerate", n=3, tol=1e-9)

    def test_bad_n_rejected_before_any_task(self):
        # n=9 would mean 2^36 candidate masks; the config must fail before
        # the campaign builds a single enumeration task
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="got 9"):
                run_campaign(CampaignConfig(source="enumerate", n=9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_check_names_exported(self):
        assert set(CHECKS) == {
            "soundness", "dominance", "equality", "unimodality", "replay", "oracle"
        }

    def test_every_export_resolves(self):
        assert len(set(rho_bounds.__all__)) == len(rho_bounds.__all__)
        for name in rho_bounds.__all__:
            assert getattr(rho_bounds, name) is not None, name


def _graph_check(name, g, cert=None, spec=None, **ends):
    """Graph check ``name`` on one graph.  ``cert`` replaces the report's
    equality certificate, ``spec`` the Lanczos result, and ``lo``/``hi``
    forge the ends of its enclosure."""
    seq = degree_sequence(g)
    report = bound_report(seq)
    if cert is not None:
        report = report._replace(cert=cert)
    spec = (spec or spectral_radius_power(g))._replace(**ends)
    return harness._GRAPH_CHECKS[name](g, seq, report, spec)


def _replay(g, cert=None):
    return _graph_check("replay", g, cert)


class TestReplayCheck:
    def test_equality_graphs_are_tight(self):
        assert _replay(gen_named("cycle", 5)) == ([], True)
        assert _replay(gen_named("star", 5)) == ([], True)
        assert _replay(gen_named("path", 5)) == ([], False)

    def test_unpredicted_flat_level(self):
        details, tight = _replay(gen_named("cycle", 4), EqualityCertificate(NONE, None, frozenset()))
        assert tight
        assert details == [
            "predicted tight levels [] (None) but the zero-slack levels are [1, 2, 3, 4]"]

    def test_predicted_level_not_flat(self):
        # the 4-path (2, 2, 1, 1) claimed regular: rows 3 and 4 sit below
        # phi_1 = 2 at level 1 and 2, and no level is flat
        details, tight = _replay(
            gen_named("path", 4), EqualityCertificate(REGULAR, None, frozenset({1})))
        assert not tight
        assert details == ["predicted tight levels [1] (Regular) but the zero-slack levels are []"]

    def test_negative_slack(self):
        # the forged multigraph's slacks are (0, -1, 1) at level 2 and
        # (-1, -2, 1) at level 3: each level reports its least slack
        details, tight = _replay(Graph(3, ((1, 1, 2), (0, 0), (0,))))
        assert not tight
        assert details == ["least slack -1 < 0 at level 2", "least slack -2 < 0 at level 3"]

    def test_negative_slack_under_forged_regular_certificate(self):
        # a level with a negative slack is never flat, so the one set
        # message follows the two slack violations
        cert = EqualityCertificate(REGULAR, None, frozenset({1, 2, 3}))
        details, tight = _replay(Graph(3, ((1, 1, 2), (0, 0), (0,))), cert)
        assert not tight
        assert details[:2] == ["least slack -1 < 0 at level 2", "least slack -2 < 0 at level 3"]
        assert details[2:] == [
            "predicted tight levels [1, 2, 3] (Regular) but the zero-slack levels are []"]


class TestExactVerdicts:
    """Soundness, equality and oracle decide from the certified ends of
    rho, here forged, and compare them exactly with the half-surds phi_l."""

    P4 = gen_named("path", 4)  # degrees (2, 2, 1, 1): phi_min = sqrt(3) at levels 3, 4
    STAR = gen_named("star", 4)  # rho = phi_2 = phi_3 = phi_4 = sqrt(3)
    SQRT3 = math.sqrt(3)

    def test_soundness_violated(self):
        details, tight = _graph_check("soundness", self.P4, lo=1.75, hi=1.8)
        assert details == [f"rho >= 1.75 exceeds phi_3={self.SQRT3!r}"]
        assert not tight

    def test_soundness_proved_by_the_bracket(self):
        assert _graph_check("soundness", self.P4) == ([], False)
        # one unit in the last place below phi_min is a proof
        below = math.nextafter(self.SQRT3, 0.0)
        assert _graph_check("soundness", self.P4, lo=1.0, hi=below) == ([], False)

    def test_soundness_proved_by_zero_slacks(self):
        # the star's argmin level 2 has every slack zero, so rho = phi_2
        # however wide the enclosure around it
        assert _graph_check("soundness", self.STAR) == ([], True)
        assert _graph_check("soundness", self.STAR, lo=1.0, hi=2.0) == ([], True)
        details, tight = _graph_check("soundness", self.STAR, lo=1.75, hi=2.0)
        assert details[0].startswith("rho >= 1.75 exceeds phi_2=") and not tight

    def test_soundness_undecided(self):
        # the enclosure holds phi_min and level 3 of the path has slack
        details, tight = _graph_check("soundness", self.P4, lo=1.7, hi=1.75)
        assert details == [
            f"undecided: [1.7, 1.75] holds phi_3={self.SQRT3!r} and level 3 has a nonzero slack"]
        assert not tight

    def test_equality_exact_on_real_enclosures(self):
        assert _graph_check("equality", self.STAR) == ([], True)
        assert _graph_check("equality", self.P4) == ([], False)
        assert _graph_check("equality", gen_named("cycle", 5)) == ([], True)

    def test_equality_predicted_level_outside(self):
        # phi_2 = phi_3 = phi_4 = sqrt(3) above the enclosure, then below it
        for lo, hi in ((1.0, 1.5), (1.75, 2.0)):
            details, tight = _graph_check("equality", self.STAR, lo=lo, hi=hi)
            assert details == [f"predicted [2, 3, 4] (Dominating, t=2) but [{lo}, {hi}] "
                               "disagrees at levels [2, 3, 4]"]
            assert tight

    def test_equality_unpredicted_level_inside(self):
        # level 3 of the path has slack, so an enclosure holding phi_3
        # leaves it open, and one at or above phi_3 proves it wrong
        details, tight = _graph_check("equality", self.P4, lo=1.7, hi=1.75)
        assert details == ["undecided: [1.7, 1.75] holds phi_l at unpredicted levels [3]"]
        assert not tight
        details, _ = _graph_check("equality", self.P4, lo=1.75, hi=1.8)
        assert details == ["predicted [] (None, t=None) but [1.75, 1.8] disagrees at levels [3]"]

    def test_equality_forged_certificate(self):
        # the path claimed regular: phi_1 = phi_2 = 2 are above the
        # enclosure and phi_3 = phi_4 inside it, but all four are predicted
        cert = EqualityCertificate(REGULAR, None, frozenset({1, 2, 3, 4}))
        details, _ = _graph_check("equality", self.P4, cert, lo=1.7, hi=1.75)
        assert details[0].endswith("disagrees at levels [1, 2]")
        # levels 2-4 of the star share a degree, but only level 2 is claimed:
        # a verdict is reused only where the prediction repeats too.  Their
        # slacks are all zero, so rho = phi_3 = phi_4 is proved, however
        # wide the enclosure
        cert = EqualityCertificate(DOMINATING, 2, frozenset({2}))
        for ends in ({}, {"lo": 1.0, "hi": 2.0}):
            details, _ = _graph_check("equality", self.STAR, cert, **ends)
            assert len(details) == 1 and details[0].endswith("disagrees at levels [3, 4]")

    def test_oracle_names_each_failing_end(self):
        # K3's root is 2: lo must lie below it and hi at or above it
        k3 = gen_named("complete", 3)
        below = "is not below the charpoly's largest root"
        details, tight = _graph_check("oracle", k3, lo=2.5, hi=2.6)
        assert details == [f"Lanczos lo=2.5 {below}", "[2.5, 2.6] misses [2.0, 2]"]
        assert not tight
        details, tight = _graph_check("oracle", k3, lo=1.5, hi=1.9)
        assert details == ["Lanczos hi=1.9 is below the charpoly's largest root",
                           "[1.5, 1.9] misses [2.0, 2]"]
        assert not tight
        assert _graph_check("oracle", k3, lo=2.0, hi=2.0) == ([f"Lanczos lo=2.0 {below}"], False)
        assert _graph_check("oracle", k3, lo=math.nextafter(2.0, 0.0), hi=2.0) == ([], True)

    def test_oracle_bracket_missed_exactly(self, monkeypatch):
        # 2m/n = 4/3 on the 3-path; the float 4/3 lies below it, so an
        # enclosure ending there misses [4/3, 2] although hi * n == 2m in
        # floats.  The charpoly is forged to x^2 (x - 1), whose root 1 lies
        # in (lo, hi], so only the bracket speaks.
        path = gen_named("path", 3)
        monkeypatch.setattr(harness, "characteristic_polynomial", lambda g: (0, 0, -1, 1))
        for hi, missed in ((4 / 3, True), (math.nextafter(4 / 3, 2.0), False)):
            details, tight = _graph_check("oracle", path, lo=0.5, hi=hi)
            assert details == ([f"[0.5, {hi!r}] misses [{4 / 3!r}, 2]"] if missed else [])
            assert tight

    def test_oracle_tight_when_enclosures_meet(self):
        assert _graph_check("oracle", self.P4) == ([], True)

    def test_oracle_tight_past_n7(self):
        # Lanczos's ends hold the charpoly's root on seeded G(n, p) draws
        # with 8 <= n <= 12, and on every lollipop with n <= 12
        rng = random.Random(23)
        graphs = [random_connected_graph(rng, rng.randint(8, 12), rng.uniform(0.25, 0.9))
                  for _ in range(2000)]
        graphs += [lollipop(c, n - c) for n in range(4, CHARPOLY_MAX_N + 1) for c in range(3, n)]
        for g in graphs:
            assert _graph_check("oracle", g) == ([], True), encode_graph6(g)

    def test_oracle_bracket_past_the_charpoly(self):
        # n = 13 is past the charpoly, but [2m/n, d_1] = [24/13, 2] is
        # still tested; the graph is never tight
        path = gen_named("path", 13)
        assert _graph_check("oracle", path) == ([], False)
        details, tight = _graph_check("oracle", path, lo=1.5, hi=1.8)
        assert details == [f"[1.5, 1.8] misses [{24 / 13!r}, 2]"]
        assert not tight


class TestEndVsPhi:
    """``_end_vs_phi`` is the one sign of (2p - q*a) - q*sqrt(b); it agrees
    with padding x = p/q into the surd (2p, 0) and comparing half-surds."""

    @staticmethod
    def padded(x, surd):
        p, q = x.as_integer_ratio()
        a, b = surd
        return compare_half_surds(2 * p, 0, q * a, q * q * b)

    def test_certified_ends_through_n5(self):
        for n in range(1, 6):
            for g in enumerate_connected(n):
                seq = degree_sequence(g)
                spec = spectral_radius_power(g)
                for level in range(1, n + 1):
                    surd = phi_surd(seq, level)
                    for x in (spec.lo, spec.hi):
                        assert harness._end_vs_phi(x, surd) == self.padded(x, surd), (
                            encode_graph6(g), level, x)

    def test_neighbours_of_an_integral_phi(self):
        # phi_4 of (4, 3, 3, 2, 1, 1) is (1 + sqrt(25))/2 = 3 exactly
        surd = phi_surd(DegreeSequence.from_degrees((4, 3, 3, 2, 1, 1)), 4)
        assert surd == (1, 25)
        for x, expected in ((math.nextafter(3.0, 0.0), -1), (3.0, 0),
                            (math.nextafter(3.0, math.inf), 1)):
            assert harness._end_vs_phi(x, surd) == self.padded(x, surd) == expected


def test_pool_merges_violations_in_source_order(tmp_path, monkeypatch):
    # a check that flags the graphs with an odd edge count, merged from
    # eight file chunks by a pool of two and by the serial loop
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers inherit the patched check only when forked")
    graphs = list(itertools.islice(enumerate_connected(6), 2000))
    lines = [encode_graph6(g) for g in graphs]
    path = tmp_path / "six.g6"
    path.write_text("".join(line + "\n" for line in lines))
    monkeypatch.setattr(harness, "_FILE_CHUNK", 250)
    monkeypatch.setitem(harness._GRAPH_CHECKS, "soundness", lambda g, seq, report, spec: (
        [f"m={seq.m} is odd"] if seq.m % 2 else [], False))
    cfg = dict(source="graph6", path=str(path), checks=("soundness",))
    serial, pooled = (run_campaign(CampaignConfig(**cfg, jobs=jobs)) for jobs in (1, 2))
    m = [sum(map(len, g.neighbors)) // 2 for g in graphs]
    expected = [(line, "soundness", f"m={k} is odd") for line, k in zip(lines, m) if k % 2]
    assert expected
    assert serial.violations == pooled.violations == expected


@pytest.mark.parametrize("clique, path", [(10, 50), (5, 300)])
def test_localized_perron_vector_verifies(clique, path, tmp_path):
    # the Ritz vector's tail is noise of either sign on these graphs; the
    # certified enclosure must still decide every check
    corpus = tmp_path / "lollipop.g6"
    corpus.write_text(encode_graph6(lollipop(clique, path)) + "\n")
    result = run_campaign(CampaignConfig(source="graph6", path=str(corpus)))
    assert result.graphs_checked == 1
    assert result.violations == []


def _dominance(seq, **replace):
    """The dominance check on a sequence's report with ``replace``d fields."""
    report = bound_report(seq)._replace(**replace)
    return harness._dominance(seq, report)


class TestDominanceCheck:
    """Both sides of each comparison are exact pairs (a, b) of half-surds
    (a + sqrt(b))/2, so a radicand one unit off is caught."""

    P4 = DegreeSequence.from_degrees((2, 2, 1, 1))

    def test_shu_wu_radicand_one_below_phi(self):
        report = bound_report(self.P4)
        a, b = report.phis.surds[2]
        assert report.shu_wu_surds[2] == (a, b)  # level 3 ties
        shu_wu = report.shu_wu_surds[:2] + ((a, b - 1),) + report.shu_wu_surds[3:]
        details, _ = _dominance(self.P4, shu_wu_surds=shu_wu)
        assert details == [f"phi_3 pair {(a, b)} is not at most shu_wu_3 pair {(a, b - 1)}"]

    def test_shu_wu_pair_with_another_a(self):
        # (a + 1 + sqrt(b))/2 is above phi_3, but the two formulas share a
        report = bound_report(self.P4)
        a, b = report.phis.surds[2]
        shu_wu = report.shu_wu_surds[:2] + ((a + 1, b),) + report.shu_wu_surds[3:]
        details, _ = _dominance(self.P4, shu_wu_surds=shu_wu)
        assert details == [f"phi_3 pair {(a, b)} is not at most shu_wu_3 pair {(a + 1, b)}"]

    def test_hong_shu_fang_radicand_one_off_phi_n(self, monkeypatch):
        a, b = phi_surd(self.P4, 4)
        assert hong_shu_fang_surd(self.P4) == (a, b)
        for off in (b - 1, b + 1):
            monkeypatch.setattr(harness, "hong_shu_fang_surd", lambda seq: (a, off))
            details, _ = _dominance(self.P4)
            assert details == [f"phi_n pair {(a, b)} != hong_shu_fang pair {(a, off)}"]

    def test_largest_star_ties_at_level_two(self):
        # n at the graph6 limit: phi_2 = shu_wu_2 = sqrt(n - 1), and every
        # later Shu-Wu excess is larger
        n = 258047
        assert _dominance(DegreeSequence.from_degrees([n - 1] + [1] * (n - 1))) == ([], True)

    def test_regular_is_not_tight(self):
        assert _dominance(DegreeSequence.from_degrees((3,) * 6)) == ([], False)


class TestUnimodalityCheck:
    """The step comparator and the argmin are checked against exact surd
    comparisons, so a gap below any float tolerance is still ordered."""

    def test_gap_below_a_nanounit_is_ordered(self):
        # phi_32000 - phi_32001 is about 9.75e-10: a float cross-check within
        # 1e-9 calls that step a tie and the argmin {32001..64000} ambiguous
        seq = DegreeSequence.from_degrees([32000] + [31999] * 31999 + [31998] * 32000 + [1])
        assert compare_step(seq, 32000) == GREATER
        assert 0 < phi(seq, 32000) - phi(seq, 32001) < 1e-9
        assert harness._unimodality(seq, bound_report(seq)) == ([], False)

    def test_plateau_across_a_degree_change(self):
        # phi_4 = phi_5 = phi_6 = 3 from the different pairs (1, 25) and (0, 36)
        seq = DegreeSequence.from_degrees((4, 3, 3, 2, 1, 1))
        assert phi_surd(seq, 4) != phi_surd(seq, 5)
        assert harness._unimodality(seq, bound_report(seq)) == ([], False)

    def test_forged_argmin(self):
        seq = DegreeSequence.from_degrees((4, 3, 3, 2, 1, 1))
        report = bound_report(seq)
        phis = report.phis._replace(argmin_levels=frozenset({4}))
        details, _ = harness._unimodality(seq, report._replace(phis=phis))
        assert details == ["structural argmin [4] (pivot 5) != scanned argmin [4, 5, 6]"]

    def test_valley_shape(self, monkeypatch):
        # the path's phi pairs are (1, 9), (1, 9), (0, 12), (0, 12): steps
        # EQUAL, GREATER, EQUAL.  A forged LESS at step 1 is also a comparator
        # disagreement, and the true GREATER after it is a fall after a rise
        seq = DegreeSequence.from_degrees((2, 2, 1, 1))
        monkeypatch.setattr(harness, "compare_step",
                            lambda seq, s: LESS if s == 1 else compare_step(seq, s))
        details, _ = harness._unimodality(seq, bound_report(seq))
        assert details == [
            f"integer comparator says {LESS} at step 1 but the pairs (1, 9) and (1, 9) "
            f"compare {EQUAL}",
            "phi sequence falls at step 2 after having risen",
        ]

    def test_wrong_step_ordering(self, monkeypatch):
        seq = DegreeSequence.from_degrees((2, 2, 1, 1))
        monkeypatch.setattr(harness, "compare_step", lambda seq, s: LESS)
        details, _ = harness._unimodality(seq, bound_report(seq))
        assert details == [
            f"integer comparator says {LESS} at step 1 but the pairs (1, 9) and (1, 9) "
            f"compare {EQUAL}",
            f"integer comparator says {LESS} at step 2 but the pairs (1, 9) and (0, 12) "
            f"compare {GREATER}",
            f"integer comparator says {LESS} at step 3 but the pairs (0, 12) and (0, 12) "
            f"compare {EQUAL}",
        ]


class TestSequenceMemo:
    """The per-chunk memo of the degree-sequence work changes no row, no
    violation and no tight count."""

    def test_chunks_match_reference_through_n6(self):
        for n in range(1, 7):
            chunk = ("enumerate", (n, 0, enumeration_space(n)))
            assert harness._run_chunk(CHECKS, chunk) == run_chunk_reference(CHECKS, chunk)

    def test_sequence_messages_name_no_graph(self, monkeypatch):
        # two labelings of the 4-path share one sequence; the star has its
        # own.  A step comparator that reverses every ordering disagrees
        # with the exact surd comparison at a step of each sequence, and the
        # memo hands that message to both labelings.
        graphs = [
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
            Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)]),
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        ]
        ids = [encode_graph6(g) for g in graphs]
        assert len(set(ids)) == 3
        monkeypatch.setattr(harness, "compare_step", lambda seq, s: -compare_step(seq, s))
        expected = [examine_graph_reference(g, CHECKS) for g in graphs]
        for ident, (_, violations, _) in zip(ids, expected):
            assert violations and {gid for gid, _, _ in violations} == {ident}
        chunk = ("graph6", ids)
        assert harness._run_chunk(CHECKS, chunk) == run_chunk_reference(CHECKS, chunk)

        path, star = (2, 2, 1, 1), (3, 1, 1, 1)
        memo = {}
        for state in ("cold", "warm"):
            got = []
            records = []
            for g, ident in zip(graphs, ids):
                records.append(harness._class_of(g, ident, CHECKS, memo))
                tail, found, tight = records[-1]
                got.append(((ident,) + tail, [(ident, name, detail) for name, details in found
                                              for detail in details], list(tight)))
            assert got == expected
            assert memo.keys() == {path, star}
            # a sequence seen twice has its entry, and its first graph's
            # record filed under that graph's class key
            seq, report, _, classes = memo[path]
            assert type(report) is BoundReport
            assert classes[class_key(graphs[0])] is records[0]
            # the star's, seen once in the cold pass, holds its id and its
            # record, and no report
            if state == "cold":
                assert memo[star] == (ids[2], records[2])
                assert not _holds_report(memo[star])
            else:
                assert memo[star][3] == {class_key(graphs[2]): records[2]}


def _holds_report(value):
    """Whether ``value`` is or holds, in its tuples and lists, a BoundReport."""
    return type(value) is BoundReport or (
        isinstance(value, (tuple, list)) and any(map(_holds_report, value)))


def _rooted_key(g):
    """The copy of ``g``'s block's H, with the positions of vertex 0's
    neighbours in it."""
    h = without_vertex_0(g)
    form, position = harness._relabel(h, [len(nb) for nb in h.neighbors])
    return form, frozenset(position[v] for v in g.neighbors[0])


def _relabelings(g, count, rng):
    """``count`` distinct labelings of ``g``, ``g`` itself first."""
    found = {encode_graph6(g): g}
    while len(found) < count:
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        found.setdefault(encode_graph6(h), h)
    return list(found.values())


class TestClassMemo:
    """The per-class memo (Lanczos's result and every check's outcome)
    changes no row, no violation and no tight count, and hands no
    violation from one labeling to another."""

    # degrees 3,2,2,2,2,1: a labeling moves vertex 0 between rows
    PAW_TAIL = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (4, 5)])

    def test_shuffled_relabelings_match_reference(self):
        rng = random.Random(20)
        six = list(enumerate_connected(6))
        seven = list(itertools.islice(enumerate_connected(7), 0, 30000, 997))
        classes = rng.sample(six, 4) + rng.sample(seven, 4) + [lollipop(5, 8)]
        graphs = [h for g in classes for h in _relabelings(g, 6, rng)]
        rng.shuffle(graphs)
        chunk = ("graph6", [encode_graph6(g) for g in graphs])
        got = harness._run_chunk(CHECKS, chunk)
        assert got == run_chunk_reference(CHECKS, chunk)
        assert len(got[0]) == 54 and not got[1]

    def test_key_is_a_relabeling(self):
        # equal keys therefore mean isomorphic graphs: the key is the
        # neighbour sets of some relabeling, in the relabeled order
        for n in range(1, 6):
            for g in enumerate_connected(n):
                key = class_key(g)
                assert any(
                    tuple(tuple(sorted(perm[u] for u in g.neighbors[v]))
                          for v in sorted(range(n), key=perm.__getitem__)) == key
                    for perm in itertools.permutations(range(n))
                )

    def test_key_holds_positions_only(self):
        # O(n + m): one sorted tuple of distinct positions per vertex, 2m
        # entries in all
        g = gen_named("path", 8000)
        key = class_key(g)
        assert all(type(row) is tuple and list(row) == sorted(set(row)) for row in key)
        assert sum(map(len, key)) == 2 * g.m
        assert set().union(*key) == set(range(g.n))
        # degree first, then the sum of the neighbours' squared degrees
        # (the ends' neighbours 4, inner vertices 5 or 8), ties by label
        assert key[:3] == ((2,), (3,), (0, 4))

    def test_vertex_0_at_position_0(self):
        # every H of an enumeration block has vertex 0 isolated, and its
        # copy puts vertex 0 first, so a rooted key's positions relabel by
        # a permutation that fixes vertex 0
        for n in range(1, 7):
            for h, members, member_graph in enumerate_blocks(n):
                assert h.neighbors[0] == ()
                assert harness._relabel(h, [len(nb) for nb in h.neighbors])[1][0] == 0

    def test_integer_rooted_keys_group_as_frozensets(self):
        # the chunk's key, H's copy and S's positions as an integer, and
        # _rooted_key's frozenset of the same positions split every
        # member of every block into the same groups
        for n in range(1, 7):
            pairs = {}
            for h, members, member_graph in enumerate_blocks(n):
                form, keys = harness._rooted_keys(h)
                assert len(keys) == 1 << n - 1 and keys[0] == 0
                for _, s in members:
                    g = member_graph(s)
                    root = _rooted_key(g)
                    assert root[0] == form
                    assert keys[s] == sum(1 << place for place in root[1])
                    pairs[form, keys[s]] = root
            assert len(set(pairs.values())) == len(pairs)

    def test_equal_rooted_keys_fix_vertex_0(self):
        # two graphs with one rooted key are isomorphic by a permutation
        # that fixes vertex 0: 18 keys for the 38 graphs of n = 4, 180 for
        # the 728 of n = 5
        sizes = []
        for n in range(1, 6):
            groups = collections.defaultdict(list)
            for g in enumerate_connected(n):
                groups[_rooted_key(g)].append(g)
            fixing = [(0,) + perm for perm in itertools.permutations(range(1, n))]
            for first, *rest in groups.values():
                edges = set(first.edges())
                for g in rest:
                    assert any({tuple(sorted((perm[u], perm[v]))) for u, v in g.edges()} == edges
                               for perm in fixing)
            sizes.append(len(groups))
        assert sizes == [1, 1, 4, 18, 180]

    @pytest.mark.parametrize("n, start, stop", [
        (4, 5, 40),             # both ends inside a block of 2^(n-1) masks
        (5, 37, 1000),
        (6, 100, 3000),
        (7, 3 * 2 ** 15 + 77, 3 * 2 ** 15 + 4077),  # inside an n = 7 chunk
    ])
    def test_enumerate_chunks_that_cut_blocks(self, n, start, stop):
        chunk = ("enumerate", (n, start, stop))
        got = harness._run_chunk(CHECKS, chunk)
        assert got == run_chunk_reference(CHECKS, chunk)
        assert got[0]

    def test_lanczos_once_per_record_at_n6(self, monkeypatch):
        # one chunk holds every mask of n = 6.  A graph reaches the
        # sequence memo only with a new rooted key, 1,462 times; there
        # Lanczos runs once per (sequence, class key), the key of each
        # sequence's first graph included: 174 times among the 26,704
        # graphs, for 68 sequences
        calls = []
        monkeypatch.setattr(harness, "spectral_radius_power",
                            lambda g: calls.append(g) or spectral_radius_power(g))
        chunk = ("enumerate", (6, 0, enumeration_space(6)))
        assert harness._chunks(CampaignConfig(source="enumerate", n=6)) == [chunk]
        rows = harness._run_chunk(CHECKS, chunk)[0]
        rooted, sequences, keys = set(), set(), set()
        for g in enumerate_connected(6):
            root = _rooted_key(g)
            if root in rooted:
                continue
            rooted.add(root)
            degrees = degree_sequence(g).degrees
            sequences.add(degrees)
            keys.add((degrees, class_key(g)))
        assert (len(rows), len(rooted), len(sequences), len(keys), len(calls)) == (
            26704, 1462, 68, 174, 174)

    def test_charpoly_once_per_class_key(self, monkeypatch):
        # at most one charpoly, Lanczos run and graph check per class key,
        # a sequence's first graph's key included: 40 keys (19 sequences)
        # among the 728 graphs of n = 5
        calls = collections.Counter()

        def counted(name, function):
            def call(*args):
                calls[name] += 1
                return function(*args)
            return call

        for name in ("characteristic_polynomial", "spectral_radius_power"):
            monkeypatch.setattr(harness, name, counted(name, getattr(harness, name)))
        for name, check in harness._GRAPH_CHECKS.items():
            monkeypatch.setitem(harness._GRAPH_CHECKS, name, counted(name, check))
        graphs = list(enumerate_connected(5))
        harness._run_chunk(CHECKS, ("enumerate", (5, 0, enumeration_space(5))))
        sequences = {degree_sequence(g).degrees for g in graphs}
        keys = {class_key(g) for g in graphs}
        assert (len(sequences), len(keys)) == (19, 40)
        assert calls.keys() == {"characteristic_polynomial", "spectral_radius_power",
                                *harness._GRAPH_CHECKS}
        assert max(calls.values()) <= len(keys)

    def test_first_graph_returns_after_another_class(self, monkeypatch):
        # the paw with a tail and the square with a pendant share degrees
        # 3,2,2,2,1.  The first sighting keeps the paw's id and record; the
        # square's, the second, files that record under the paw's class
        # key, so a relabeled paw after it runs no Lanczos
        paw = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
        square = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
        relabeled = next(
            h for perm in itertools.permutations(range(5))
            for h in [Graph.from_edges(5, [(perm[u], perm[v]) for u, v in paw.edges()])]
            if encode_graph6(h) != encode_graph6(paw) and class_key(h) == class_key(paw)
        )
        calls = []
        monkeypatch.setattr(harness, "spectral_radius_power",
                            lambda g: calls.append(g) or spectral_radius_power(g))
        chunk = ("graph6", [encode_graph6(g) for g in (paw, square, relabeled)])
        got = harness._run_chunk(CHECKS, chunk)
        assert got == run_chunk_reference(CHECKS, chunk)
        assert calls == [paw, square]

    def test_violations_never_shared(self, monkeypatch):
        # one class gets a forged charpoly and a negative slack at vertex
        # 0's row at every level; every member must name its own id and the
        # failing end, as the reference does, and the same replay details:
        # each level's least slack, whichever row of the labeling holds it.
        # The root 11 of (x - 11) x^(n-1) lies above every hi, the root 0 of
        # x^n at or below every lo
        rng = random.Random(3)
        members = _relabelings(self.PAW_TAIL, 8, rng)
        others = [h for family in ("path", "star")
                  for h in _relabelings(gen_named(family, 6), 3, rng)]
        ids = {encode_graph6(g) for g in members}
        charpoly, slacks = harness.characteristic_polynomial, harness.row_slacks

        def forged_slacks(g, first=1):
            row = sorted(range(g.n), key=lambda v: -len(g.neighbors[v])).index(0)
            for level_slacks in slacks(g, first):
                if encode_graph6(g) in ids:
                    level_slacks = list(level_slacks)
                    level_slacks[row] = -1
                yield level_slacks

        monkeypatch.setattr(harness, "row_slacks", forged_slacks)
        graphs = members + others
        rng.shuffle(graphs)
        chunk = ("graph6", [encode_graph6(g) for g in graphs])
        n = self.PAW_TAIL.n
        for forged, end in (((0,) * (n - 1) + (-11, 1), "hi"), ((0,) * n + (1,), "lo")):
            monkeypatch.setattr(harness, "characteristic_polynomial",
                                lambda g: forged if encode_graph6(g) in ids else charpoly(g))
            rows, violations, skipped, tight = harness._run_chunk(CHECKS, chunk)
            assert (rows, violations, skipped, tight) == run_chunk_reference(CHECKS, chunk)
            assert {gid for gid, _, _ in violations} == ids
            assert tight["oracle"] == len(others)
            replay = set()
            for ident in ids:
                mine = [(name, detail) for gid, name, detail in violations if gid == ident]
                assert [detail.split("=")[0] for name, detail in mine
                        if name == "oracle"] == [f"Lanczos {end}"]
                replay.add(tuple(detail for name, detail in mine if name == "replay"))
            assert replay == {tuple(f"least slack -1 < 0 at level {level}"
                                    for level in range(1, n + 1))}


class _InlinePool:
    """Stands in for multiprocessing.Pool: records its size, maps in-process."""

    sizes: list = []

    def __init__(self, processes):
        self.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, iterable):
        return map(func, iterable)


class TestPoolSize:
    @pytest.mark.parametrize("jobs, chunks, size", [(8, 3, 3), (2, 3, 2)])
    def test_pool_never_exceeds_chunks(self, jobs, chunks, size, tmp_path, monkeypatch):
        path = tmp_path / "three.g6"
        path.write_text("C~\nCh\nBw\n")
        monkeypatch.setattr(harness, "_FILE_CHUNK", 1)
        monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        cfg = dict(source="graph6", path=str(path))
        assert len(harness._chunks(CampaignConfig(**cfg))) == chunks
        rows, serial_rows = [], []
        result = run_campaign(CampaignConfig(**cfg, jobs=jobs), row_sink=rows.append)
        assert _InlinePool.sizes == [size]
        serial = run_campaign(CampaignConfig(**cfg), row_sink=serial_rows.append)
        assert _InlinePool.sizes == [size]  # jobs=1 starts no pool
        assert rows == serial_rows
        assert result.tight_instances == serial.tight_instances

    def test_single_chunk_starts_no_pool(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "Pool", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        run_campaign(CampaignConfig(source="enumerate", n=4, jobs=8))
        assert _InlinePool.sizes == []
