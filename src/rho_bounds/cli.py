"""Command-line interface.

Subcommands: ``bound`` (all bounds for one graph or degree sequence),
``verify`` (a checking campaign over a corpus), ``enumerate`` (emit the
graph6 stream of all connected graphs on n vertices), and ``replay``
(the row-sum certificate for one graph and level).

Exit codes: 0 all checks passed, 1 at least one violation, 2 input or
configuration error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .bounds import bound_report, bound_shu_wu, is_graphical
from .graph_core import (
    DegreeSequence,
    Graph,
    GraphParseError,
    degree_sequence,
    encode_graph6,
    enumerate_blocks,
    graph6_records,
    is_connected,
    parse_edge_list,
    parse_graph6,
    read_input,
)
from .harness import CSV_COLUMNS, CHECKS, CampaignConfig, report_row, run_campaign
from .proof_replay import CertificateViolationError, row_sums_scaled
from .spectral_oracle import ConvergenceError, spectral_radius_power

def _read_graph(args) -> Graph:
    """The graph in the first record of ``args.input``; the bounds assume a
    connected graph, so a disconnected one is refused."""
    text = read_input(args.input)
    if args.format == "graph6":
        records = graph6_records(text)
        g = parse_graph6(records[0] if records else "")
    else:
        g = parse_edge_list(text)
    if not is_connected(g):
        raise ValueError("input graph is disconnected; the bounds assume a connected graph")
    return g


def _print_doc(doc: dict, output: str) -> None:
    """One JSON object, or one ``key: value`` line per entry (scalars as CSV cells)."""
    if output == "json":
        print(json.dumps(doc))
        return
    for key, value in doc.items():
        # str() of a float is its repr
        text = (f"({', '.join(map(repr, value))})" if isinstance(value, tuple)
                else "" if value is None else str(value))
        print(f"{key}: {text}" if text else f"{key}:")


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    if args.format == "sequence":
        text = read_input(args.input)
        seq = DegreeSequence.from_degrees(int(tok) for tok in text.replace(",", " ").split())
        if seq.n > 1 and (seq.degrees[-1] == 0 or seq.m < seq.n - 1):
            raise ValueError(f"no connected graph has degree sequence {seq.degrees}; "
                             "the bounds assume a connected graph")
        if not is_graphical(seq.degrees):
            print(
                f"warning: {seq.degrees} is not graphical; bounds are formal",
                file=sys.stderr,
            )
        ident, rho = "sequence", None
    else:
        g = _read_graph(args)
        seq = degree_sequence(g)
        ident, rho = encode_graph6(g), spectral_radius_power(g).rho
    report = bound_report(seq)
    row = report_row(ident, seq, report, rho)
    if args.output == "csv":
        writer = _CsvReport(sys.stdout)
        writer.add_row(row)
        writer.flush()
        return 0
    # the campaign row, then the report's per-level entries
    cert = report.cert
    _print_doc({
        **dict(zip(CSV_COLUMNS, row)),
        "degrees": seq.degrees,
        "phi": report.phis.values,
        "shu_wu": tuple(bound_shu_wu(seq, level) for level in range(1, seq.n + 1)),
        "argmin_levels": tuple(sorted(report.phis.argmin_levels)),
        "predicted_tight_levels": tuple(sorted(cert.predicted_tight_levels)) if cert else (),
    }, args.output)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Each report opens at its first row or in finish(): an earlier error leaves stdout empty.
# A row's tail (the row without its id) is fixed by the graph's isomorphism
# class, so a labeled sweep has no more distinct tails than classes (853
# connected ones at n = 7): each writer formats a tail once and writes a
# row as its id and the tail's cached text.  The cache keys by equality, so
# each column holds one type (or None) and no float is -0.0 (tests pin it).
_TEXT_CACHE = 4096
#: Lines a writer holds before it writes them: one ``write`` per batch, so
#: an unbuffered stdout (``python -u``) is not written once per line.
_BATCH = 256


@functools.lru_cache(maxsize=_TEXT_CACHE)
def _csv_text(tail: tuple) -> str:
    """The CSV fields of ``tail`` and the line's end, as ``csv.writer``
    writes them after a row's id (None as an empty field, a float as its
    repr)."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(tail)
    return out.getvalue()


@functools.lru_cache(maxsize=_TEXT_CACHE)
def _json_text(tail: tuple) -> str:
    """The JSON members of ``tail`` and the closing brace, as they follow a
    row's id."""
    return json.dumps(dict(zip(CSV_COLUMNS[1:], tail)))[1:]


class _Lines:
    """Text for ``stream``, held as a list of lines and written by
    :meth:`flush` in one ``write``; :meth:`add` flushes every ``_BATCH``
    lines, so the list stays bounded."""

    def __init__(self, stream):
        self._stream = stream
        self._lines: list[str] = []

    def add(self, line: str) -> None:
        self._lines.append(line)
        if len(self._lines) >= _BATCH:
            self.flush()

    def flush(self) -> None:
        if self._lines:
            self._stream.write("".join(self._lines))
            self._lines.clear()


class _CsvReport(_Lines):
    """The CSV report: the header before the first row, one line per row.
    ``finish`` writes what is held; a caller that stops at an error calls
    ``flush`` instead, which writes the rows added so far."""

    _opening = ",".join(CSV_COLUMNS) + "\n"

    def add_row(self, row) -> None:
        # a graph6 record never needs quoting: no comma, quote or line end
        self.add(f"{self._opening}{row[0]},{_csv_text(row[1:])}")
        self._opening = ""

    def finish(self, result) -> None:
        if self._opening:  # no row came: the header alone
            self.add(self._opening)
            self._opening = ""
        self.flush()


class _JsonReport(_Lines):
    """The JSON report: its rows, then the campaign's summary.  ``finish``
    and ``flush`` write what is held, as for :class:`_CsvReport`."""

    _opening = '{"rows": ['

    def add_row(self, row) -> None:
        # json.dumps escapes the backslash that a graph6 record may hold
        self.add(f'{self._opening}{{"id": {json.dumps(row[0])}, {_json_text(row[1:])}')
        self._opening = ", "

    def finish(self, result) -> None:
        summary = {
            "graphs_checked": result.graphs_checked,
            "skipped_disconnected": result.skipped_disconnected,
            "violations": [
                {"id": gid, "check": check, "detail": detail}
                for gid, check, detail in result.violations
            ],
            "tight_instances": result.tight_instances,
        }
        opening = "" if self._opening == ", " else self._opening  # no row came
        self.add(opening + "], " + json.dumps(summary)[1:] + "\n")
        self.flush()


def cmd_verify(args) -> int:
    if (args.n is None) == (args.input is None):
        print("error: verify needs exactly one of --n or --input", file=sys.stderr)
        return 2
    if args.checks == "all":
        checks = CHECKS
    else:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    cfg = CampaignConfig(
        source="enumerate" if args.n is not None else args.format,
        n=args.n,
        path=args.input,
        checks=checks,
        jobs=args.jobs,
    )
    report = _CsvReport(sys.stdout) if args.output == "csv" else _JsonReport(sys.stdout)
    try:
        result = run_campaign(cfg, row_sink=report.add_row)
    finally:
        report.flush()  # the rows so far, also when the campaign stops at an error
    report.finish(result)

    print(
        f"checked {result.graphs_checked} connected graphs "
        f"({result.skipped_disconnected} disconnected skipped) in "
        f"{result.wall_time:.2f}s; {len(result.violations)} violations",
        file=sys.stderr,
    )
    for name in cfg.checks:
        print(f"  {name}: {result.tight_instances[name]} tight instances",
              file=sys.stderr)
    if args.output != "json":
        for gid, check, detail in result.violations[:50]:
            print(f"violation [{check}] {gid}: {detail}", file=sys.stderr)
        if len(result.violations) > 50:
            print(f"... and {len(result.violations) - 50} more", file=sys.stderr)
    return 1 if result.violations else 0


# ---------------------------------------------------------------------------
# enumerate / replay
# ---------------------------------------------------------------------------

def cmd_enumerate(args) -> int:
    out = _Lines(sys.stdout)
    for _, members, _ in enumerate_blocks(args.n):
        for record, _ in members:
            out.add(record + "\n")
    out.flush()
    return 0


def cmd_replay(args) -> int:
    g = _read_graph(args)
    try:
        cert = row_sums_scaled(g, args.level)
    except CertificateViolationError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 1
    _print_doc({
        "id": encode_graph6(g),
        "level": cert.level,
        "phi": cert.phi,
        "x": cert.x,
        "row_sums": cert.row_sums,
        "slacks": cert.slacks,
    }, args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rho-bounds",
        description="Degree-sequence spectral-radius bounds and their "
                    "verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="all bounds for one graph or sequence")
    p_bound.add_argument("--input", required=True, help="path or - for stdin")
    p_bound.add_argument("--format", required=True,
                         choices=("graph6", "edgelist", "sequence"))
    p_bound.add_argument("--output", default="text",
                         choices=("text", "csv", "json"))
    p_bound.set_defaults(func=cmd_bound)

    p_verify = sub.add_parser("verify", help="run a checking campaign")
    p_verify.add_argument("--n", type=int, help="enumerate all connected graphs on n vertices")
    p_verify.add_argument("--input", help="corpus file instead of enumeration")
    p_verify.add_argument("--format", default="graph6",
                          choices=("graph6", "edgelist"))
    p_verify.add_argument("--checks", default="all",
                          help=f"comma list from {','.join(CHECKS)} (default all)")
    p_verify.add_argument("--output", default="csv", choices=("csv", "json"))
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes (default 1)")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="emit graph6 stream for n")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.set_defaults(func=cmd_enumerate)

    p_replay = sub.add_parser("replay", help="row-sum certificate for one graph")
    p_replay.add_argument("--input", required=True, help="path or - for stdin")
    p_replay.add_argument("--format", default="graph6",
                          choices=("graph6", "edgelist"))
    p_replay.add_argument("--level", type=int, required=True)
    p_replay.add_argument("--output", default="text", choices=("text", "json"))
    p_replay.set_defaults(func=cmd_replay)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphParseError, ConvergenceError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
