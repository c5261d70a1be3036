import math
import tracemalloc

import pytest

import rho_bounds
from rho_bounds import harness
import dataclasses

from rho_bounds import (
    CampaignConfig,
    CHECKS,
    CSV_COLUMNS,
    DegreeSequence,
    EqualityCertificate,
    Graph,
    GraphParseError,
    NONE,
    REGULAR,
    bound_report,
    degree_sequence,
    encode_graph6,
    gen_named,
    run_campaign,
    spectral_radius_power,
)
from rho_bounds.graph_core import enumeration_space

from conftest import examine_graph_reference, run_chunk_reference


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

    def test_huge_tolerance_flags_mismatches(self):
        # tol=10 makes the numeric tight set all levels, so every graph
        # without an all-levels certificate becomes a mismatch
        result = campaign(source="enumerate", n=3, checks=("equality",), tol=10.0)
        assert result.violations
        gid, check, detail = result.violations[0]
        assert check == "equality"
        assert "predicted" in detail

    def test_tol_moves_the_soundness_tight_count(self):
        # soundness counts a graph tight within the equality tolerance, so
        # --tol moves its count; at 1e-30 only bit-exact ties are left
        counts = [
            campaign(source="enumerate", n=5, checks=("soundness",), tol=tol)
            .tight_instances["soundness"] for tol in (None, 1e-30)
        ]
        assert counts == [68, 52]

    def test_tol_leaves_fixed_tolerances_alone(self):
        # --tol overrides only soundness and equality; the other
        # checks keep their fixed tolerances, so a huge tol changes nothing
        checks = ("dominance", "unimodality", "oracle")
        default = campaign(source="enumerate", n=4, checks=checks)
        loose = campaign(source="enumerate", n=4, checks=checks, tol=10.0)
        assert default.violations == loose.violations == []
        assert loose.tight_instances == default.tight_instances

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
            dict(source="enumerate", n=3, tol=0.0),
            dict(source="enumerate", n=3, jobs=0),
            dict(source="enumerate", n=9),
            dict(source="enumerate", n=0),
            dict(source="enumerate", n=8),
            dict(source="enumerate", n=3, tol=float("nan")),
            dict(source="enumerate", n=3, tol=float("inf")),
            dict(source="enumerate", n=3, checks=()),
            dict(source="enumerate", n=3, checks=("soundness", "soundness")),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(**kwargs))

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


def _replay(g, cert=None, rho=None):
    """The replay check on one graph, reading only the soundness tolerance;
    ``cert`` replaces the report's equality certificate."""
    seq = degree_sequence(g)
    report = bound_report(seq)
    if cert is not None:
        report = dataclasses.replace(report, cert=cert)
    if rho is None:
        rho = spectral_radius_power(g).rho
    return harness._replay(g, seq, report, rho, {"soundness": 1e-9})


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

    def test_rho_above_every_row(self):
        details, _ = _replay(gen_named("complete", 3), rho=2.5)
        assert details == [
            f"rho=2.5 exceeds max scaled row sum 2.0 at level {level}" for level in (1, 2, 3)
        ]

    def test_negative_slack(self):
        details, tight = _replay(Graph(3, ((1, 1, 2), (0, 0), (0,))), rho=2.0)
        assert not tight
        assert [d.split(" (")[0] for d in details] == [
            "row 2 has slack -1 < 0", "row 1 has slack -1 < 0"]

    def test_negative_slack_under_forged_regular_certificate(self):
        # a level with a negative slack is never flat, so the one set
        # message follows the two slack violations
        cert = EqualityCertificate(REGULAR, None, frozenset({1, 2, 3}))
        details, tight = _replay(Graph(3, ((1, 1, 2), (0, 0), (0,))), cert, rho=2.0)
        assert not tight
        assert [d.split(" (")[0] for d in details[:2]] == [
            "row 2 has slack -1 < 0", "row 1 has slack -1 < 0"]
        assert details[2:] == [
            "predicted tight levels [1, 2, 3] (Regular) but the zero-slack levels are []"]


def _dominance(seq, **replace):
    """The dominance check on a sequence's report with ``replace``d fields,
    reading no tolerance."""
    report = dataclasses.replace(bound_report(seq), **replace)
    return harness._dominance(seq, report, {})


class TestDominanceCheck:
    """The floats of both sides round one integer excess each, so the
    check compares them exactly."""

    P4 = DegreeSequence.from_degrees((2, 2, 1, 1))

    def test_shu_wu_one_ulp_below_phi(self):
        report = bound_report(self.P4)
        phi_3 = report.phis.values[2]
        assert report.shu_wu[2] == phi_3  # level 3 ties
        shu_wu = report.shu_wu[:2] + (math.nextafter(phi_3, -math.inf),) + report.shu_wu[3:]
        details, _ = _dominance(self.P4, shu_wu=shu_wu)
        assert details == [f"phi_3={phi_3!r} exceeds shu_wu_3={shu_wu[2]!r}"]

    def test_hong_shu_fang_one_ulp_off_phi_n(self):
        phi_n = bound_report(self.P4).phis.values[-1]
        for off in (math.nextafter(phi_n, -math.inf), math.nextafter(phi_n, math.inf)):
            details, _ = _dominance(self.P4, hong_shu_fang=off)
            assert details == [f"phi_n={phi_n!r} != hong_shu_fang={off!r}"]

    def test_largest_star_ties_at_level_two(self):
        # n at the graph6 limit: phi_2 = shu_wu_2 = sqrt(n - 1), and every
        # later Shu-Wu excess is larger
        n = 258047
        assert _dominance(DegreeSequence.from_degrees([n - 1] + [1] * (n - 1))) == ([], True)

    def test_regular_is_not_tight(self):
        assert _dominance(DegreeSequence.from_degrees((3,) * 6)) == ([], False)


class TestSequenceMemo:
    """The per-chunk memo of the degree-sequence work changes no row, no
    violation and no tight count."""

    def test_chunks_match_reference_through_n6(self):
        tols = dict(harness.TOLERANCES)
        for n in range(1, 7):
            chunk = ("enumerate", (n, 0, enumeration_space(n)))
            assert harness._run_chunk(CHECKS, tols, chunk) == run_chunk_reference(CHECKS, tols, chunk)

    def test_sequence_messages_name_no_graph(self):
        # two labelings of the 4-path share one sequence; the star has its
        # own.  A negative comparator tolerance makes every float step a
        # violation whose message the memo hands to both labelings.
        graphs = [
            Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
            Graph.from_edges(4, [(0, 2), (1, 2), (1, 3)]),
            Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        ]
        ids = [encode_graph6(g) for g in graphs]
        assert len(set(ids)) == 3
        tols = dict(harness.TOLERANCES, comparator=-1.0)
        expected = [examine_graph_reference(g, CHECKS, tols) for g in graphs]
        for ident, (_, violations, _) in zip(ids, expected):
            assert violations and {gid for gid, _, _ in violations} == {ident}
        chunk = ("graph6", (1, ids))
        assert harness._run_chunk(CHECKS, tols, chunk) == run_chunk_reference(CHECKS, tols, chunk)

        path, star = (2, 2, 1, 1), (3, 1, 1, 1)
        memo = {}
        for state in ("cold", "warm"):
            got = [harness._examine_graph(g, CHECKS, tols, memo) for g in graphs]
            assert got == expected
            assert memo.keys() == {path, star}
            assert memo[path] is not harness._SEEN
            assert (memo[star] is harness._SEEN) == (state == "cold")


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
        monkeypatch.setattr(harness.multiprocessing, "Pool", _InlinePool)
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
        monkeypatch.setattr(harness.multiprocessing, "Pool", _InlinePool)
        monkeypatch.setattr(_InlinePool, "sizes", [])
        run_campaign(CampaignConfig(source="enumerate", n=4, jobs=8))
        assert _InlinePool.sizes == []
