import tracemalloc

import pytest

from rho_bounds import (
    CampaignConfig,
    CHECKS,
    CSV_COLUMNS,
    GraphParseError,
    run_campaign,
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

    def test_huge_tolerance_flags_mismatches(self):
        # tol=10 makes the numeric tight set all levels, so every graph
        # without an all-levels certificate becomes a mismatch
        result = campaign(source="enumerate", n=3, checks=("equality",), tol=10.0)
        assert result.violations
        gid, check, detail = result.violations[0]
        assert check == "equality"
        assert "predicted" in detail

    def test_tol_leaves_fixed_tolerances_alone(self):
        # --tol overrides only soundness, equality and replay; the other
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
