import csv
import io
import itertools
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from rho_bounds import (
    CSV_COLUMNS,
    Graph,
    encode_graph6,
    gen_join_dominating,
    gen_named,
    parse_graph6,
    spectral_radius_charpoly,
)
from rho_bounds import cli, harness
from rho_bounds.cli import run
from rho_bounds.graph_core import enumerate_records
from rho_bounds.spectral_oracle import ConvergenceError


class TestBound:
    def test_text_regular_graph(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        assert run(["bound", "--input", str(path), "--format", "graph6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "cert_kind: Regular" in lines
        assert "phi_min: 3.0" in lines
        assert lines[0] == "id: C~"
        assert "degrees: (3, 3, 3, 3)" in lines
        assert "phi: (3.0, 3.0, 3.0, 3.0)" in lines
        assert "predicted_tight_levels: (1, 2, 3, 4)" in lines
        assert [line.split(":")[0] for line in lines] == [
            *CSV_COLUMNS, "degrees", "phi", "shu_wu", "argmin_levels",
            "predicted_tight_levels",
        ]

    def test_long_path_converges(self, tmp_path, capsys):
        # the spectral gap of the path P_n shrinks like 1/n^2: power
        # iteration needs about n^2 steps (past the 10**6 cap here), Lanczos
        # about n products
        n = 1700
        path = tmp_path / "path.g6"
        path.write_text(encode_graph6(gen_named("path", n)) + "\n")
        assert run(["bound", "--input", str(path), "--format", "graph6",
                    "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["rho"] - 2 * math.cos(math.pi / (n + 1))) <= 1e-12

    @pytest.mark.parametrize("fmt, text, empty, present", [
        ("sequence", "4,3,3,2,1,1\n", ["rho:", "cert_t:", "slack_min:"],
         ["cert_kind: None", "pivot: 5"]),
        ("graph6", "@\n", ["cert_kind:", "cert_t:", "pivot:"], ["rho: 0.0"]),
    ], ids=["sequence", "K1"])
    def test_text_absent_values_print_empty(self, fmt, text, empty, present, tmp_path, capsys):
        path = tmp_path / "input"
        path.write_text(text)
        assert run(["bound", "--input", str(path), "--format", fmt]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in empty + present:
            assert line in lines
        # "None" is only ever the equality kind, and no line ends in a blank
        assert [line for line in lines if "None" in line] == (
            ["cert_kind: None"] if fmt == "sequence" else [])
        assert not any(line.endswith(" ") for line in lines)

    def test_json_sequence(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", _Stdin("4,3,3,2,1,1\n"))
        assert run(["bound", "--input", "-", "--format", "sequence",
                    "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi"][3] == doc["phi"][4] == 3.0
        assert doc["hong_shu_fang"] == 3.0
        assert abs(doc["shu_wu"][3] - (1 + math.sqrt(33)) / 2) <= 1e-12
        assert doc["pivot"] == 5
        assert doc["rho"] is None
        assert doc["cert_kind"] == "None"

    def test_csv_graph(self, tmp_path, capsys):
        path = tmp_path / "p6.el"
        path.write_text("6\n0 1\n1 2\n2 3\n3 4\n4 5\n")
        assert run(["bound", "--input", str(path), "--format", "edgelist",
                    "--output", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("id,n,m,rho,phi_min,pivot,")
        cells = lines[1].split(",")
        assert cells[1] == "6" and cells[2] == "5"
        assert cells[4] == "2.0"  # phi_min of the 6-path

    @pytest.mark.parametrize(
        "graph",
        [gen_named("complete", 4), gen_named("path", 6), gen_join_dominating(6, 3, 2),
         gen_named("complete", 1)],
        ids=["K4", "P6", "join_dominating_6_3_2", "K1"],
    )
    def test_csv_row_matches_verify(self, graph, tmp_path, capsys):
        path = tmp_path / "g.el"
        path.write_text(f"{graph.n}\n" + "".join(f"{u} {v}\n" for u, v in graph.edges()))
        argv = ["--input", str(path), "--format", "edgelist"]
        assert run(["bound", *argv, "--output", "csv"]) == 0
        bound_lines = capsys.readouterr().out.splitlines()
        assert run(["verify", *argv]) == 0
        verify_lines = capsys.readouterr().out.splitlines()
        assert len(bound_lines) == len(verify_lines) == 2
        assert bound_lines == verify_lines
        # the JSON document opens with the same row, keyed by CSV_COLUMNS
        assert run(["bound", *argv, "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert run(["verify", *argv, "--output", "json"]) == 0
        (verify_row,) = json.loads(capsys.readouterr().out)["rows"]
        assert {key: doc[key] for key in CSV_COLUMNS} == verify_row
        assert list(doc)[:len(CSV_COLUMNS)] == list(CSV_COLUMNS)
        if graph.n == 1:
            assert doc["id"] == "@" and doc["cert_kind"] == ""
            assert doc["predicted_tight_levels"] == []

    def test_disconnected_refused(self, tmp_path, capsys):
        path = tmp_path / "discon.el"
        path.write_text("4\n0 1\n2 3\n")
        assert run(["bound", "--input", str(path), "--format", "edgelist"]) == 2
        assert "disconnected" in capsys.readouterr().err

    def test_nongraphical_sequence_warns(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("3 3 3 1\n")
        assert run(["bound", "--input", str(path), "--format", "sequence"]) == 0
        assert "not graphical" in capsys.readouterr().err

    @pytest.mark.parametrize("output", ["text", "csv", "json"])
    @pytest.mark.parametrize("degrees", ["1 1 0 0", "0 0", "1 1 1 1", "2 2 2 0"])
    def test_sequence_without_connected_graph_refused(self, degrees, output, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text(degrees + "\n")
        assert run(["bound", "--input", str(path), "--format", "sequence",
                    "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: no connected graph has degree sequence "
            f"{tuple(map(int, degrees.split()))}; the bounds assume a connected graph\n")

    @pytest.mark.parametrize("output", ["text", "csv", "json"])
    def test_single_vertex_sequence_accepted(self, output, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text("0\n")
        assert run(["bound", "--input", str(path), "--format", "sequence",
                    "--output", output]) == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    def test_missing_file(self, capsys):
        assert run(["bound", "--input", "/no/such/file", "--format", "graph6"]) == 2
        assert "error" in capsys.readouterr().err

    def test_huge_degrees_finish(self, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text(f"{10**30} {10**30}\n")
        assert run(["bound", "--input", str(path), "--format", "sequence",
                    "--output", "json"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["max_degree"] == 1e30
        assert doc["brualdi_hoffman"] == 1414213562373095.0  # about sqrt(2m)
        assert "not graphical" in captured.err

    @pytest.mark.parametrize("output", ["text", "csv", "json"])
    def test_degrees_beyond_float_exit_2(self, output, tmp_path, capsys):
        path = tmp_path / "seq.txt"
        path.write_text(f"{10**200} {10**200}\n")
        assert run(["bound", "--input", str(path), "--format", "sequence",
                    "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err


class TestVerify:
    def test_enumerate_clean(self, capsys):
        assert run(["verify", "--n", "4"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].split(",")[0] == "id"
        assert len(lines) == 39  # header + 38 graphs
        assert "0 violations" in captured.err

    def test_n4_report_matches_reference(self, capsys):
        """The CSV bytes, the JSON rows and the tight counts of ``verify --n 4``
        against the committed report (tests/data/verify_n4.csv)."""
        reference = (Path(__file__).parent / "data" / "verify_n4.csv").read_text("ascii")
        tight = {"soundness": 14, "dominance": 34, "equality": 14, "unimodality": 1,
                 "replay": 14, "oracle": 38}
        assert run(["verify", "--n", "4"]) == 0
        captured = capsys.readouterr()
        assert captured.out == reference
        assert [line for line in captured.err.splitlines() if "tight instances" in line] == [
            f"  {name}: {count} tight instances" for name, count in tight.items()]
        assert run(["verify", "--n", "4", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tight_instances"] == tight
        header, *cells = csv.reader(reference.splitlines())
        assert len(cells) == len(doc["rows"]) == 38
        assert all(list(row) == header for row in doc["rows"])
        assert [
            ["" if v is None else repr(v) if isinstance(v, float) else str(v)
             for v in row.values()]
            for row in doc["rows"]
        ] == cells

    def test_n4_reference_rho_matches_charpoly(self):
        """The pinned rho bytes of tests/data/verify_n4.csv lie within
        1e-12 of the independent charpoly oracle."""
        reference = (Path(__file__).parent / "data" / "verify_n4.csv").read_text("ascii")
        header, *cells = csv.reader(reference.splitlines())
        column = {name: i for i, name in enumerate(header)}
        assert len(cells) == 38
        for row in cells:
            g = parse_graph6(row[column["id"]])
            rho = float(row[column["rho"]])
            assert abs(rho - spectral_radius_charpoly(g).rho) <= 1e-12, row

    def test_input_stdin_matches_file(self, tmp_path, monkeypatch, capsys):
        """``verify --input -`` reads the n=4 stream from stdin and prints the
        bytes ``verify --input FILE`` prints, the committed n=4 report."""
        reference = (Path(__file__).parent / "data" / "verify_n4.csv").read_text("ascii")
        assert run(["enumerate", "--n", "4"]) == 0
        stream = capsys.readouterr().out
        path = tmp_path / "all4.g6"
        path.write_text(stream)
        assert run(["verify", "--input", str(path)]) == 0
        from_file = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", _Stdin(stream))
        assert run(["verify", "--input", "-"]) == 0
        assert capsys.readouterr().out == from_file == reference

    def test_jobs_byte_identical(self, capsys):
        assert run(["verify", "--n", "4", "--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert run(["verify", "--n", "4", "--jobs", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_json_report(self, capsys):
        assert run(["verify", "--n", "3", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["graphs_checked"] == 3 + 1
        assert doc["violations"] == []
        assert len(doc["rows"]) == 4
        assert doc["rows"][0]["id"] == "Bo"
        assert set(doc["tight_instances"]) == {
            "soundness", "dominance", "equality", "unimodality", "replay", "oracle"
        }

    def test_violations_exit_code(self, capsys, monkeypatch):
        monkeypatch.setitem(harness._GRAPH_CHECKS, "equality",
                            lambda g, seq, report, spec: (["forged"], False))
        code = run(["verify", "--n", "3", "--checks", "equality"])
        assert code == 1
        captured = capsys.readouterr()
        assert "violation [equality] Bo: forged" in captured.err

    def test_violations_past_fifty_are_counted(self, capsys, monkeypatch):
        # every graph of n = 5 fails one check: stderr shows the first 50
        # violations and counts the rest, and the JSON report keeps all 728
        monkeypatch.setitem(harness._GRAPH_CHECKS, "oracle",
                            lambda g, seq, report, spec: (["forged"], False))
        assert run(["verify", "--n", "5", "--output", "json"]) == 1
        captured = capsys.readouterr()
        violations = json.loads(captured.out)["violations"]
        assert len({v["id"] for v in violations}) == len(violations) == 728
        assert "violation [" not in captured.err
        assert run(["verify", "--n", "5"]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-51:] == [
            *(f"violation [oracle] {v['id']}: forged" for v in violations[:50]),
            "... and 678 more",
        ]

    def test_selected_checks_only(self, capsys):
        assert run(["verify", "--n", "3", "--checks", "soundness,dominance"]) == 0
        err = capsys.readouterr().err
        assert "soundness" in err and "equality" not in err

    def test_unknown_check(self, capsys):
        assert run(["verify", "--n", "3", "--checks", "bogus"]) == 2

    def test_needs_exactly_one_source(self, capsys):
        assert run(["verify"]) == 2
        assert run(["verify", "--n", "3", "--input", "x.g6"]) == 2

    def test_graph6_corpus(self, tmp_path, capsys):
        path = tmp_path / "two.g6"
        path.write_text("C~\nCh\n")
        assert run(["verify", "--input", str(path), "--checks", "soundness"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 3

    def test_bad_corpus_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("C~\nnot-a-record\n")
        assert run(["verify", "--input", str(path)]) == 2
        assert "record 2" in capsys.readouterr().err

    def test_tol_flag_is_gone(self, capsys):
        # every verdict is exact; the flag is an unknown argument
        with pytest.raises(SystemExit) as err:
            run(["verify", "--n", "3", "--tol", "1e-9"])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --tol" in captured.err

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize(
        "bad", [["--n", "9"], ["--n", "4", "--checks", "bogus"], ["--n", "3", "--checks", ""],
                ["--n", "4", "--checks", "soundness,soundness"]],
        ids=["n9", "checks_bogus", "checks_empty", "checks_repeated"],
    )
    def test_config_error_leaves_stdout_empty(self, bad, output, capsys):
        assert run(["verify", *bad, "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize("corpus", [None, "C~\nnot-a-record\nCh\n"],
                             ids=["missing_file", "record_2_malformed"])
    def test_input_error_leaves_stdout_empty(self, corpus, output, tmp_path, capsys):
        path = "/no/such.g6"
        if corpus is not None:
            path = tmp_path / "bad.g6"
            path.write_text(corpus)
        assert run(["verify", "--input", str(path), "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_bad_record_past_the_first_chunk(self, output, tmp_path, capsys):
        # record 5,001 opens the second file chunk; it is checked with all
        # the others before any chunk runs, so no row reaches stdout
        path = tmp_path / "late.g6"
        path.write_text("C~\n" * 5000 + "Dx!\n")
        assert run(["verify", "--input", str(path), "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "record 5001" in captured.err

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_edge_list_vertex_limit(self, output, tmp_path, capsys):
        path = tmp_path / "huge.el"
        path.write_text("1000000000\n0 1\n")
        assert run(["verify", "--input", str(path), "--format", "edgelist",
                    "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds the graph6 limit 258047" in captured.err

    @pytest.mark.parametrize("output", ["csv", "json"])
    def test_error_in_a_later_chunk_keeps_the_rows_before_it(
            self, output, tmp_path, monkeypatch, capsys):
        # 5,200 records make two file chunks; Lanczos fails on the second
        # chunk's graphs, after the first chunk's rows went to the report.
        # Those rows are on stdout, as the report had them, and the exit is 2
        records = [record for record, _ in itertools.islice(enumerate_records(6), 5200)]
        assert harness._FILE_CHUNK == 5000
        first, both = tmp_path / "first.g6", tmp_path / "both.g6"
        first.write_text("\n".join(records[:5000]) + "\n")
        both.write_text("\n".join(records) + "\n")
        assert run(["verify", "--input", str(first), "--output", output]) == 0
        report = capsys.readouterr().out
        expected = report if output == "csv" else report[:report.rindex('], "graphs_checked"')]
        late = set(records[5000:])
        lanczos = harness.spectral_radius_power

        def failing(g):
            if encode_graph6(g) in late:
                raise ConvergenceError("no convergence", 0.0)
            return lanczos(g)

        monkeypatch.setattr(harness, "spectral_radius_power", failing)
        assert run(["verify", "--input", str(both), "--output", output]) == 2
        captured = capsys.readouterr()
        assert captured.out == expected
        assert captured.err == "error: no convergence\n"

    def test_empty_corpus_csv_header(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert run(["verify", "--input", str(path)]) == 0
        assert capsys.readouterr().out == ",".join(CSV_COLUMNS) + "\n"

    def test_empty_corpus_json(self, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert run(["verify", "--input", str(path), "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"] == [] and doc["graphs_checked"] == 0


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["bound", "--format", "graph6"], ["replay", "--level", "2"]],
    ids=["verify", "bound", "replay"],
)
@pytest.mark.parametrize("text", [">>graph6<<\nC~\n", "\nC~\n"],
                         ids=["header_line", "leading_blank_line"])
def test_graph6_file_first_record(argv, text, tmp_path, capsys):
    path = tmp_path / "k4.g6"
    path.write_text(text)
    assert run([*argv, "--input", str(path), "--output", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc.get("rows", [doc])[0]["id"] == "C~"  # verify nests its rows



def _uncached_reports(rows) -> tuple[str, str]:
    """The CSV report and the JSON rows as ``csv.writer`` and ``json.dumps``
    write them, row by row, with no cache."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return out.getvalue(), ", ".join(json.dumps(dict(zip(CSV_COLUMNS, row))) for row in rows)


def _cached_reports(rows) -> tuple[str, str]:
    """The same two texts through ``_CsvReport`` and ``_JsonReport``."""
    csv_out, json_out = io.StringIO(), io.StringIO()
    reports = cli._CsvReport(csv_out), cli._JsonReport(json_out)
    for row in rows:
        for report in reports:
            report.add_row(row)
    for report in reports:
        report.finish(harness.CampaignResult())
    text = json_out.getvalue()
    assert text.startswith('{"rows": [') and json.loads(text)["rows"] == [
        dict(zip(CSV_COLUMNS, row)) for row in rows]
    return csv_out.getvalue(), text[len('{"rows": ['):text.rindex('], "graphs_checked"')]


def _bound_rows(tmp_path, monkeypatch) -> list[tuple]:
    """The rows that ``bound --output csv`` writes for a graph6 record, an
    edge list and two degree sequences (no rho and no slack_min)."""
    rows = []
    monkeypatch.setattr(cli._CsvReport, "add_row", lambda self, row: rows.append(row))
    inputs = (("graph6", "C~\n"), ("graph6", "E?bw\n"), ("edgelist", "4\n0 1\n1 2\n2 3\n"),
              ("sequence", "3 2 2 1\n"), ("sequence", "2 2 2\n"))
    for number, (fmt, text) in enumerate(inputs):
        path = tmp_path / f"bound{number}.txt"
        path.write_text(text)
        assert run(["bound", "--input", str(path), "--format", fmt, "--output", "csv"]) == 0
    monkeypatch.undo()
    assert len(rows) == len(inputs)
    return rows


class _Writes(io.StringIO):
    """A stream that keeps each ``write``'s text."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestReportText:
    """Each report writer formats a row's tail once and caches the text; its
    report is what uncached ``csv.writer`` and ``json.dumps`` write."""

    @staticmethod
    def _verify_rows(n):
        rows = []
        harness.run_campaign(harness.CampaignConfig(source="enumerate", n=n),
                             row_sink=rows.append)
        return rows

    def test_cache_matches_uncached(self, tmp_path, monkeypatch):
        rows = self._verify_rows(5)
        bound = _bound_rows(tmp_path, monkeypatch)
        # a real record with a backslash, which JSON escapes and CSV keeps
        record, g = next((r, g) for r, g in enumerate_records(6) if "\\" in r)
        slash = (record,) + harness._class_of(g, record, harness.CHECKS, {})[0]
        # empty fields: pivot and cert_t (n = 5), rho and slack_min (sequences)
        assert any(row[5] is None for row in rows) and any(row[13] is None for row in rows)
        assert all(row[3] is None and row[14] is None for row in bound[-2:])
        cli._csv_text.cache_clear()
        cli._json_text.cache_clear()
        mixed = rows + bound + [slash] + rows[:50] + bound
        assert _cached_reports(mixed) == _uncached_reports(mixed)
        assert f"\n{record}," in _cached_reports([slash])[0]
        assert cli._csv_text.cache_info().hits > 0

    def test_more_tails_than_the_cache_holds(self):
        base = self._verify_rows(4)[0]
        tails = cli._TEXT_CACHE + 100
        rows = [(f"id{i}", *base[1:3], 1.0 + i / 7, *base[4:]) for i in range(tails)]
        # every tail twice, the second time after it has been evicted
        rows += rows[::-1] + rows[:10]
        cli._csv_text.cache_clear()
        cli._json_text.cache_clear()
        assert _cached_reports(rows) == _uncached_reports(rows)
        for text in (cli._csv_text, cli._json_text):
            info = text.cache_info()
            assert info.maxsize == info.currsize == cli._TEXT_CACHE
            assert info.misses > tails

    def test_rows_past_one_batch(self):
        # each writer holds cli._BATCH lines and writes them at once, and
        # the rest at finish: what it writes is the uncached report
        rows = self._verify_rows(6)
        assert len(rows) > 2 * cli._BATCH
        csv_text, json_rows = _uncached_reports(rows)
        json_text = '{"rows": [' + json_rows + '], "graphs_checked": 0'
        for report, lines in ((cli._CsvReport, "\n"), (cli._JsonReport, '{"id"')):
            out = _Writes()
            writer = report(out)
            for row in rows:
                writer.add_row(row)
            # the CSV header is one more line in the first batch
            counts = [text.count(lines) for text in out.writes]
            counts[0] -= report is cli._CsvReport
            assert counts == [cli._BATCH] * (len(rows) // cli._BATCH)
            writer.finish(harness.CampaignResult())
            assert len(out.writes) == len(rows) // cli._BATCH + 1
            if report is cli._CsvReport:
                assert out.getvalue() == csv_text
            else:
                assert out.getvalue().startswith(json_text)

    def test_every_column_has_one_type(self, tmp_path, monkeypatch):
        # the cache keys by equality, and 0.0 == -0.0 and 1 == 1.0 hash
        # alike: a column with two types, or a float -0.0, could print
        # another row's text
        types = (str, int, int, float, float, int, float, float, float, float, float,
                 float, str, int, float)
        rows = self._verify_rows(5) + _bound_rows(tmp_path, monkeypatch)
        assert len(types) == len(CSV_COLUMNS)
        for column, (name, kind) in enumerate(zip(CSV_COLUMNS, types)):
            found = {type(row[column]) for row in rows} - {type(None)}
            assert found == {kind}, name
        for row in rows:
            assert not any(type(x) is float and x == 0 and math.copysign(1.0, x) < 0
                           for x in row), row


class TestEnumerate:
    def test_n4_stream(self, capsys):
        assert run(["enumerate", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 38
        from rho_bounds import parse_graph6

        assert all(parse_graph6(line).n == 4 for line in lines)

    def test_n6_stream_in_batches(self, monkeypatch):
        # the records of enumerate_records, cli._BATCH lines per write
        out = _Writes()
        monkeypatch.setattr(sys, "stdout", out)
        assert run(["enumerate", "--n", "6"]) == 0
        records = [record for record, _ in enumerate_records(6)]
        assert out.getvalue() == "".join(record + "\n" for record in records)
        assert [text.count("\n") for text in out.writes] == (
            [cli._BATCH] * (len(records) // cli._BATCH) + [len(records) % cli._BATCH])

    def test_large_gate(self, capsys):
        assert run(["enumerate", "--n", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "1 <= n <= 7, got 8" in captured.err


# sqrt(3) as repr prints it, and the float just above it
_R3 = "1.7320508075688772"
_R3_UP = "1.7320508075688774"


class TestReplay:
    def test_star_level_two(self, tmp_path, capsys):
        path = tmp_path / "star.g6"
        path.write_text("Cs\n")  # K_{1,3}: edges (0,1),(0,2),(0,3)
        assert run(["replay", "--input", str(path), "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert "slacks: (0, 0, 0, 0)\n" in out

    @pytest.mark.parametrize("level, text", [
        (1, "id: Cs\nlevel: 1\nphi: 3.0\nx: ()\nrow_sums: (3.0, 1.0, 1.0, 1.0)\n"
            "slacks: (0, 2, 2, 2)\n"),
        # the float row sum of the hub is one ulp above phi; its integer
        # slack, which decides the row, is 0
        (2, f"id: Cs\nlevel: 2\nphi: {_R3}\nx: ({_R3})\n"
            f"row_sums: ({_R3_UP}, {_R3}, {_R3}, {_R3})\nslacks: (0, 0, 0, 0)\n"),
        (4, f"id: Cs\nlevel: 4\nphi: {_R3}\nx: ({_R3}, 1.0, 1.0)\n"
            f"row_sums: ({_R3_UP}, {_R3}, {_R3}, {_R3})\nslacks: (0, 0, 0, 0)\n"),
    ])
    def test_star_full_text(self, level, text, tmp_path, capsys):
        path = tmp_path / "star.g6"
        path.write_text("Cs\n")
        assert run(["replay", "--input", str(path), "--level", str(level)]) == 0
        assert capsys.readouterr().out == text

    @pytest.mark.parametrize("level", [1, 2, 4])
    def test_star_json_fields(self, level, tmp_path, capsys):
        path = tmp_path / "star.g6"
        path.write_text("Cs\n")
        assert run(["replay", "--input", str(path), "--level", str(level),
                    "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["id", "level", "phi", "x", "row_sums", "slacks"]
        slacks = [0, 2, 2, 2] if level == 1 else [0, 0, 0, 0]
        assert (doc["id"], doc["level"], doc["slacks"]) == ("Cs", level, slacks)

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        assert run(["replay", "--input", str(path), "--level", "3",
                    "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["row_sums"] == [3.0, 3.0, 3.0, 3.0]
        assert doc["phi"] == 3.0
        assert doc["slacks"] == [0, 0, 0, 0]

    def test_level_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        for level in ("0", "9"):
            for output in ("text", "json"):
                assert run(["replay", "--input", str(path), "--level", level,
                            "--output", output]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"level {level} out of range 1..4" in captured.err

    def test_negative_slack_exits_1(self, monkeypatch, capsys):
        # edge 0-1 listed twice on both sides: the bookkeeping counts it
        # twice, and the certificate fails on a negative slack
        double = Graph(3, ((1, 1, 2), (0, 0), (0,)))
        monkeypatch.setattr(cli, "_read_graph", lambda args: double)
        for output in ("text", "json"):
            assert run(["replay", "--input", "-", "--level", "2", "--output", output]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "certificate violation: row 2 has slack -1 < 0 at level 2\n"

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "d.el"
        path.write_text("4\n0 1\n2 3\n")
        assert run(["replay", "--input", str(path), "--format", "edgelist",
                    "--level", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify"], ["bound", "--format", "graph6"], ["replay", "--level", "1"],
], ids=["verify", "bound", "replay"])
def test_bad_byte_reads_the_same_from_file_and_stdin(argv, tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.g6"
    path.write_bytes(b"C\xe9\n")
    outcomes = []
    for source in (str(path), "-"):
        monkeypatch.setattr("sys.stdin", _Stdin(b"C\xe9\n"))
        code = run([argv[0], "--input", source, *argv[1:]])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1] == (2, "", "error: non-ASCII input byte 233 (at offset 1)\n")


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rho_bounds", "enumerate", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == ["Bo", "Bg", "BW", "Bw"]

    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rho_bounds", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_start_up_imports_no_multiprocessing(self):
        # a campaign imports it only where it opens a pool
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rho_bounds.cli; print('multiprocessing' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.stdout == "False\n"

    def test_start_up_imports_no_dataclasses(self):
        # the value types are named tuples: dataclasses would pull in
        # inspect, ast, dis and tokenize on every run
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, rho_bounds.cli; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
            capture_output=True,
            text=True,
        )
        assert proc.stdout == "[]\n"


class _Stdin:
    """Stands in for sys.stdin: ``data`` (text is ASCII-encoded) on its buffer."""

    def __init__(self, data):
        self.buffer = io.BytesIO(data.encode("ascii") if isinstance(data, str) else data)
