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
import os
import sys

from .bounds import bound_report, is_graphical
from .equality import classify_equality
from .graph_core import (
    DegreeSequence,
    Graph,
    GraphParseError,
    degree_sequence,
    encode_graph6,
    enumerate_connected,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .harness import (
    CSV_COLUMNS,
    CHECKS,
    CampaignConfig,
    report_row,
    run_campaign,
    validate_config,
)
from .proof_replay import CertificateViolationError, row_sums_scaled
from .spectral_oracle import ConvergenceError, spectral_radius_power

JOBS_ENV_VAR = "RHO_BOUNDS_JOBS"


def _default_jobs() -> int:
    raw = os.environ.get(JOBS_ENV_VAR)
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(f"{JOBS_ENV_VAR}={raw!r} is not an integer") from None
    if jobs < 1:
        raise ValueError(f"{JOBS_ENV_VAR} must be >= 1, got {jobs}")
    return jobs


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="ascii") as fh:
        return fh.read()


def _load_graph(text: str, fmt: str) -> Graph:
    if fmt == "graph6":
        first = next((ln for ln in text.splitlines() if ln.strip()), "")
        return parse_graph6(first)
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

    report = bound_report(seq, rho)
    cert = classify_equality(seq) if seq.n >= 2 else None

    if args.output == "json":
        doc = {
            "id": ident,
            "n": report.n,
            "m": report.m,
            "rho": report.rho,
            "phi": list(report.phi_at),
            "phi_min": report.phi_min,
            "pivot": report.pivot,
            "argmin_levels": sorted(report.argmin_levels),
            "shu_wu": list(report.shu_wu),
            "hong_shu_fang": report.hong_shu_fang,
            "hong": report.hong,
            "stanley": report.stanley,
            "brualdi_hoffman": report.brualdi_hoffman,
            "max_degree": report.max_degree,
            "cert_kind": cert.kind if cert else None,
            "cert_t": cert.t if cert else None,
            "predicted_tight_levels": sorted(cert.predicted_tight_levels) if cert else [],
            "slack_min": report.slack_min,
        }
        print(json.dumps(doc))
        return 0

    if args.output == "csv":
        _CsvReport(sys.stdout).add_row(report_row(ident, report, cert))
        return 0

    print(f"input: {ident}")
    print(f"n={report.n} m={report.m}")
    if report.rho is not None:
        print(f"rho={report.rho!r} (power iteration)")
    print("level  degree  phi                 shu_wu")
    for level in range(1, report.n + 1):
        print(
            f"{level:5d}  {seq.degrees[level - 1]:6d}  "
            f"{report.phi_at[level - 1]!r:<18}  {report.shu_wu[level - 1]!r}"
        )
    pivot = report.pivot if report.pivot is not None else "none"
    print(
        f"phi_min={report.phi_min!r} pivot={pivot} "
        f"argmin_levels={_levels_str(report.argmin_levels)}"
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
    if report.slack_min is not None:
        print(f"slack_min={report.slack_min!r}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class _CsvReport:
    def __init__(self, stream):
        self._writer = csv.writer(stream, lineterminator="\n")
        self._writer.writerow(CSV_COLUMNS)

    def add_row(self, row) -> None:
        self._writer.writerow([_cell(v) for v in row])

    def finish(self, result) -> None:
        pass


class _JsonReport:
    def __init__(self, stream):
        self._stream = stream
        self._first = True
        stream.write('{"rows": [')

    def add_row(self, row) -> None:
        if not self._first:
            self._stream.write(", ")
        self._first = False
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
        self._stream.write("], " + json.dumps(summary)[1:] + "\n")


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
        allow_large=args.allow_large,
    )
    validate_config(cfg)  # before the report's first byte reaches stdout
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
    for g in enumerate_connected(args.n, allow_large=args.allow_large):
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
    if args.output == "json":
        print(json.dumps({
            "id": encode_graph6(g),
            "level": cert.level,
            "phi": cert.phi,
            "x": list(cert.x),
            "row_sums": list(cert.row_sums),
            "max_row_sum": cert.max_row_sum,
            "slack": cert.phi - cert.max_row_sum,
        }))
        return 0
    print(f"id: {encode_graph6(g)}")
    print(f"level: {cert.level}")
    print(f"phi: {cert.phi!r}")
    print(f"x: ({', '.join(repr(v) for v in cert.x)})")
    print(f"row_sums: ({', '.join(repr(v) for v in cert.row_sums)})")
    print(f"max_row_sum: {cert.max_row_sum!r}")
    print(f"slack: {cert.phi - cert.max_row_sum!r}")
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
                          help="override check tolerances (default 1e-9 "
                               "soundness/replay, 1e-6 equality)")
    p_verify.add_argument("--output", default="csv", choices=("csv", "json"))
    p_verify.add_argument("--jobs", type=int, default=None,
                          help=f"worker processes (default ${JOBS_ENV_VAR} or 1)")
    p_verify.add_argument("--allow-large", action="store_true",
                          help="unlock n=8 enumeration")
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="emit graph6 stream for n")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--allow-large", action="store_true")
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
        if getattr(args, "jobs", "missing") is None:
            args.jobs = _default_jobs()
        return args.func(args)
    except (GraphParseError, ConvergenceError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
