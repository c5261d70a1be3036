import json
import math
import subprocess
import sys

import pytest

from rho_bounds import CSV_COLUMNS, gen_join_dominating, gen_named
from rho_bounds.cli import run


class TestBound:
    def test_text_regular_graph(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        assert run(["bound", "--input", str(path), "--format", "graph6"]) == 0
        out = capsys.readouterr().out
        assert "certificate: Regular" in out
        assert "phi_min=3.0" in out

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
        [gen_named("complete", 4), gen_named("path", 6), gen_join_dominating(6, 3, 2)],
        ids=["K4", "P6", "join_dominating_6_3_2"],
    )
    def test_csv_row_matches_verify(self, graph, tmp_path, capsys):
        path = tmp_path / "g.el"
        path.write_text(f"{graph.n}\n" + "".join(f"{u} {v}\n" for u, v in graph.edges()))
        assert run(["bound", "--input", str(path), "--format", "edgelist",
                    "--output", "csv"]) == 0
        bound_lines = capsys.readouterr().out.splitlines()
        assert run(["verify", "--input", str(path), "--format", "edgelist"]) == 0
        verify_lines = capsys.readouterr().out.splitlines()
        assert len(bound_lines) == len(verify_lines) == 2
        assert bound_lines == verify_lines

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

    def test_missing_file(self, capsys):
        assert run(["bound", "--input", "/no/such/file", "--format", "graph6"]) == 2
        assert "error" in capsys.readouterr().err


class TestVerify:
    def test_enumerate_clean(self, capsys):
        assert run(["verify", "--n", "4"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0].split(",")[0] == "id"
        assert len(lines) == 39  # header + 38 graphs
        assert "0 violations" in captured.err

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

    def test_violations_exit_code(self, capsys):
        code = run(["verify", "--n", "3", "--checks", "equality", "--tol", "10"])
        assert code == 1
        captured = capsys.readouterr()
        assert "violation" in captured.err

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

    def test_tolerance_must_be_positive(self, capsys):
        assert run(["verify", "--n", "3", "--tol", "-1"]) == 2

    @pytest.mark.parametrize("output", ["csv", "json"])
    @pytest.mark.parametrize(
        "bad", [["--n", "9"], ["--n", "4", "--checks", "bogus"], ["--n", "4", "--tol", "-1"]],
        ids=["n9", "checks_bogus", "tol_negative"],
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


class TestEnumerate:
    def test_n4_stream(self, capsys):
        assert run(["enumerate", "--n", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 38
        from rho_bounds import parse_graph6

        assert all(parse_graph6(line).n == 4 for line in lines)

    def test_large_gate(self, capsys):
        assert run(["enumerate", "--n", "8"]) == 2
        assert "allow_large" in capsys.readouterr().err


# sqrt(3) as repr prints it, and the float just above it
_R3 = "1.7320508075688772"
_R3_UP = "1.7320508075688774"


class TestReplay:
    def test_star_level_two(self, tmp_path, capsys):
        path = tmp_path / "star.g6"
        path.write_text("Cs\n")  # K_{1,3}: edges (0,1),(0,2),(0,3)
        assert run(["replay", "--input", str(path), "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert "max_row_sum: 1.73" in out

    @pytest.mark.parametrize("level, text", [
        (1, "id: Cs\nlevel: 1\nphi: 3.0\nx: ()\nrow_sums: (3.0, 1.0, 1.0, 1.0)\n"
            "max_row_sum: 3.0\nslack: 0.0\n"),
        (2, f"id: Cs\nlevel: 2\nphi: {_R3}\nx: ({_R3})\n"
            f"row_sums: ({_R3_UP}, {_R3}, {_R3}, {_R3})\n"
            f"max_row_sum: {_R3_UP}\nslack: -2.220446049250313e-16\n"),
        (4, f"id: Cs\nlevel: 4\nphi: {_R3}\nx: ({_R3}, 1.0, 1.0)\n"
            f"row_sums: ({_R3_UP}, {_R3}, {_R3}, {_R3})\n"
            f"max_row_sum: {_R3_UP}\nslack: -2.220446049250313e-16\n"),
    ])
    def test_star_full_text(self, level, text, tmp_path, capsys):
        path = tmp_path / "star.g6"
        path.write_text("Cs\n")
        assert run(["replay", "--input", str(path), "--level", str(level)]) == 0
        assert capsys.readouterr().out == text

    def test_json_output(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        assert run(["replay", "--input", str(path), "--level", "3",
                    "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["row_sums"] == [3.0, 3.0, 3.0, 3.0]
        assert doc["phi"] == 3.0
        assert doc["slack"] == 0.0

    def test_level_out_of_range(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text("C~\n")
        assert run(["replay", "--input", str(path), "--level", "9"]) == 2

    def test_disconnected(self, tmp_path, capsys):
        path = tmp_path / "d.el"
        path.write_text("4\n0 1\n2 3\n")
        assert run(["replay", "--input", str(path), "--format", "edgelist",
                    "--level", "1"]) == 2


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


class _Stdin:
    def __init__(self, text):
        self._text = text

    def read(self):
        return self._text
