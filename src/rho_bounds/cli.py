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
import json
import sys

from .bounds import bound_report, is_graphical
from .graph_core import (
    DegreeSequence,
    Graph,
    GraphParseError,
    degree_sequence,
    encode_graph6,
    enumerate_connected,
    graph6_records,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .harness import (
    CSV_COLUMNS,
    CHECKS,
    TOLERANCES,
    CampaignConfig,
    report_row,
    run_campaign,
)
from .proof_replay import CertificateViolationError, row_sums_scaled
from .spectral_oracle import ConvergenceError, spectral_radius_power

def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graph(text: str, fmt: str) -> Graph:
    if fmt == "graph6":
        records = graph6_records(text)
        return parse_graph6(records[0] if records else "")
    return parse_edge_list(text)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _levels_str(levels) -> str:
    return "{" + ",".join(str(v) for v in sorted(levels)) + "}"


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def cmd_bound(args) -> int:
    text = _read_input(args.input)
    if args.format == "sequence":
        degrees = [int(tok) for tok in text.replace(",", " ").split()]
        seq = DegreeSequence.from_degrees(degrees)
        if not is_graphical(seq.degrees):
            print(
                f"warning: {seq.degrees} is not graphical; bounds are formal",
                file=sys.stderr,
            )
        rho = None
        ident = "sequence"
    else:
        g = _load_graph(text, args.format)
        if not is_connected(g):
            print(
                "error: input graph is disconnected; the bounds assume a "
                "connected graph",
                file=sys.stderr,
            )
            return 2
        seq = degree_sequence(g)
        rho = spectral_radius_power(g).rho
        ident = encode_graph6(g)

    report = bound_report(seq)
    phis = report.phis
    cert = report.cert
    slack_min = phis.minimum - rho if rho is not None else None

    if args.output == "json":
        doc = {
            "id": ident,
            "n": seq.n,
            "m": seq.m,
            "rho": rho,
            "phi": list(phis.values),
            "phi_min": phis.minimum,
            "pivot": phis.pivot,
            "argmin_levels": sorted(phis.argmin_levels),
            "shu_wu": list(report.shu_wu),
            "hong_shu_fang": report.hong_shu_fang,
            "hong": report.hong,
            "stanley": report.stanley,
            "brualdi_hoffman": report.brualdi_hoffman,
            "max_degree": report.max_degree,
            "cert_kind": cert.kind if cert else None,
            "cert_t": cert.t if cert else None,
            "predicted_tight_levels": sorted(cert.predicted_tight_levels) if cert else [],
            "slack_min": slack_min,
        }
        print(json.dumps(doc))
        return 0

    if args.output == "csv":
        _CsvReport(sys.stdout).add_row(report_row(ident, seq, report, rho))
        return 0

    print(f"input: {ident}")
    print(f"n={seq.n} m={seq.m}")
    if rho is not None:
        print(f"rho={rho!r} (power iteration)")
    print("level  degree  phi                 shu_wu")
    for level in range(1, seq.n + 1):
        print(
            f"{level:5d}  {seq.degrees[level - 1]:6d}  "
            f"{phis.values[level - 1]!r:<18}  {report.shu_wu[level - 1]!r}"
        )
    pivot = phis.pivot if phis.pivot is not None else "none"
    print(
        f"phi_min={phis.minimum!r} pivot={pivot} "
        f"argmin_levels={_levels_str(phis.argmin_levels)}"
    )
    print(
        f"hong_shu_fang={report.hong_shu_fang!r} hong={report.hong!r} "
        f"stanley={report.stanley!r} brualdi_hoffman={report.brualdi_hoffman!r} "
        f"max_degree={report.max_degree!r}"
    )
    if cert is not None:
        print(
            f"certificate: {cert.kind}"
            + (f" t={cert.t}" if cert.t is not None else "")
            + f" predicted_tight_levels={_levels_str(cert.predicted_tight_levels)}"
        )
    if slack_min is not None:
        print(f"slack_min={slack_min!r}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Each report opens at its first row or in finish(): an earlier error leaves stdout empty.

class _CsvReport:
    def __init__(self, stream):
        self._writer = csv.writer(stream, lineterminator="\n")
        self._started = False

    def add_row(self, row) -> None:
        self.finish(None)  # the header, before the first row only
        self._writer.writerow([_cell(v) for v in row])

    def finish(self, result) -> None:
        if not self._started:
            self._started = True
            self._writer.writerow(CSV_COLUMNS)


class _JsonReport:
    def __init__(self, stream):
        self._stream = stream
        self._started = False

    def add_row(self, row) -> None:
        self._stream.write(", " if self._started else '{"rows": [')
        self._started = True
        self._stream.write(json.dumps(dict(zip(CSV_COLUMNS, row))))

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
        opening = "" if self._started else '{"rows": ['
        self._stream.write(opening + "], " + json.dumps(summary)[1:] + "\n")


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
        tol=args.tol,
        jobs=args.jobs,
    )
    report = _CsvReport(sys.stdout) if args.output == "csv" else _JsonReport(sys.stdout)
    result = run_campaign(cfg, row_sink=report.add_row)
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
    for g in enumerate_connected(args.n):
        print(encode_graph6(g))
    return 0


def cmd_replay(args) -> int:
    g = _load_graph(_read_input(args.input), args.format)
    if not is_connected(g):
        print("error: input graph is disconnected", file=sys.stderr)
        return 2
    if not 1 <= args.level <= g.n:
        print(f"error: level must be in 1..{g.n}, got {args.level}", file=sys.stderr)
        return 2
    try:
        cert = row_sums_scaled(g, args.level)
    except CertificateViolationError as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return 1
    doc = {
        "id": encode_graph6(g),
        "level": cert.level,
        "phi": cert.phi,
        "x": cert.x,
        "row_sums": cert.row_sums,
        "max_row_sum": cert.max_row_sum,
        "slack": cert.phi - cert.max_row_sum,
    }
    if args.output == "json":
        print(json.dumps(doc))
        return 0
    for key, value in doc.items():
        if isinstance(value, tuple):
            value = f"({', '.join(map(repr, value))})"
        print(f"{key}: {value}")
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
    p_verify.add_argument("--tol", type=float, default=None,
                          help="override check tolerances (default {soundness:g} soundness, "
                               "{replay:g} replay, {equality:g} equality)".format_map(TOLERANCES))
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
    except (GraphParseError, ConvergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
