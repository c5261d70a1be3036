"""Verification campaigns over graph corpora.

A campaign streams graphs from a source (exhaustive enumeration or a file),
filters to connected graphs, runs the enabled checks on each, and aggregates
violations deterministically: results are merged in source order no matter
how many worker processes run, so identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import contextlib
import functools
import math
import multiprocessing
import time
from dataclasses import dataclass, field

from .bounds import GREATER, LESS, BoundReport, bound_report, compare_step
from .equality import tight_levels
from .graph_core import (
    DegreeSequence,
    Graph,
    GraphParseError,
    check_enumeration_n,
    encode_graph6,
    enumerate_connected,
    enumeration_space,
    graph6_records,
    is_connected,
    parse_edge_list,
    parse_graph6,
    read_input,
)
from .proof_replay import ScalingCertificate, row_slacks, scaled_row_sum
from .spectral_oracle import CHARPOLY_MAX_N, spectral_radius_charpoly, spectral_radius_power
from .tolerances import OVERRIDDEN_BY_TOL, TOLERANCES

CSV_COLUMNS = (
    "id", "n", "m", "rho", "phi_min", "pivot", "phi_n", "hong_shu_fang",
    "hong", "stanley", "brualdi_hoffman", "max_degree", "cert_kind",
    "cert_t", "slack_min",
)

_ENUM_CHUNK = 1 << 15
_FILE_CHUNK = 5000


# ---------------------------------------------------------------------------
# checks: each returns (violation details, whether the graph counts as a
# tight instance).  A graph check takes the graph, its degree sequence, the
# sequence's bound report, the graph's rho and the tolerance table; a
# sequence check takes only the sequence, its report and the tolerances, so
# its details never name the graph and one result serves every graph with
# that sequence.
# ---------------------------------------------------------------------------

def _soundness(g, seq, report, rho, tols):
    values = report.phis.values
    vmin = min(values)
    details = []
    if rho > vmin + tols["soundness"]:
        level = values.index(vmin) + 1
        details.append(f"rho={rho!r} exceeds phi_{level}={vmin!r} by {rho - vmin!r}")
    return details, abs(rho - vmin) <= tols["equality"]


def _dominance(seq, report, tols):
    # phi_l and shu_wu_l (and phi_n and hong_shu_fang) are one monotone
    # bounds._prefix_bound of one d and an integer excess each, so the
    # floats are ordered as the excesses are; the radicand is below
    # 5n^2 < 2^39 for every graph verify reads, where distinct excesses
    # round apart, so equal floats mean equal excesses
    details = []
    tight = False
    d1 = seq.degrees[0]
    values = report.phis.values
    for level, (v, sw) in enumerate(zip(values, report.shu_wu), start=1):
        if v > sw:
            details.append(f"phi_{level}={v!r} exceeds shu_wu_{level}={sw!r}")
        # at levels with d_level = d_1 the two formulas coincide; a tie
        # is only notable where the prefix sum could have been smaller
        if v == sw and seq.degrees[level - 1] < d1:
            tight = True
    hsf = report.hong_shu_fang
    if values[-1] != hsf:
        details.append(f"phi_n={values[-1]!r} != hong_shu_fang={hsf!r}")
    return details, tight


def _equality(g, seq, report, rho, tols):
    cert = report.cert
    if cert is None:
        return [], False
    details = []
    numeric = tight_levels(report.phis.values, rho, tols["equality"])
    if numeric != cert.predicted_tight_levels:
        details.append(
            f"predicted {sorted(cert.predicted_tight_levels)} "
            f"({cert.kind}, t={cert.t}) but numeric tight set is "
            f"{sorted(numeric)} at rho={rho!r}"
        )
    return details, bool(cert.predicted_tight_levels)


def _unimodality(seq, report, tols):
    details = []
    phis = report.phis
    values = phis.values
    tol = tols["comparator"]
    seen_less = False
    for s in range(1, seq.n):
        ordering = compare_step(seq, s)
        if ordering == LESS:
            seen_less = True
        elif ordering == GREATER and seen_less:
            details.append(f"phi sequence falls at step {s} after having risen")
        diff = values[s - 1] - values[s]
        float_ordering = 0 if abs(diff) <= tol else (GREATER if diff > 0 else LESS)
        if float_ordering != ordering:
            details.append(
                f"integer comparator says {ordering} at step {s} but "
                f"float difference is {diff!r}"
            )
    vmin = min(values)
    scan = frozenset(j for j, v in enumerate(values, start=1) if v <= vmin + tol)
    if scan != phis.argmin_levels or abs(phis.minimum - vmin) > tol:
        details.append(
            f"structural argmin {sorted(phis.argmin_levels)} "
            f"(pivot {phis.pivot}) != scanned argmin {sorted(scan)}"
        )
    return details, phis.pivot is None  # counts pivot-fallback inputs


def _replay(g, seq, report, rho, tols):
    degrees = seq.degrees
    tol = tols["soundness"]
    details = []
    flat = set()
    last = None
    for level, slacks in enumerate(row_slacks(g), start=1):
        if slacks is not last:
            # a new degree: a new excess and new slacks (a repeated degree
            # repeats both, and phi, and so every verdict below)
            last = slacks
            value = report.phis.values[level - 1]
            excess = seq.prefix[level - 1] - (level - 1) * degrees[level - 1]
            low = min(slacks)
            if low >= 0:
                # rho <= max row sum tests the oracle, not the certificate,
                # so it stays a float comparison: max(rows) + tol >= rho
                # exactly when some row has row + tol >= rho (float + is
                # monotone), so the rows are tried one at a time, from one
                # of least slack
                args = degrees, level, value, excess
                reached = rho <= scaled_row_sum(*args, low, slacks.index(low) + 1) + tol or any(
                    rho <= scaled_row_sum(*args, slack, row) + tol
                    for row, slack in enumerate(slacks, start=1)
                )
                # a row meets phi exactly when its slack is zero; the level
                # is flat (rho(B) = phi) when every row does
                zero = not any(slacks)
        if low < 0:
            details.append(str(ScalingCertificate.at_level(seq, level, slacks, value).violation()))
            continue
        if not reached:
            top = ScalingCertificate.at_level(seq, level, slacks, value).max_row_sum
            details.append(f"rho={rho!r} exceeds max scaled row sum {top!r} at level {level}")
        if zero:
            flat.add(level)
    cert = report.cert
    if cert is not None and flat != cert.predicted_tight_levels:
        details.append(
            f"predicted tight levels {sorted(cert.predicted_tight_levels)} ({cert.kind}) "
            f"but the zero-slack levels are {sorted(flat)}"
        )
    return details, bool(flat)


def _oracle(g, seq, report, rho, tols):
    if seq.n > CHARPOLY_MAX_N:
        return [], False
    details = []
    tol = tols["oracle"]
    cp = spectral_radius_charpoly(g)
    gap = abs(cp.rho - rho)
    if gap > tol:
        details.append(f"power {rho!r} vs charpoly {cp.rho!r} differ by {gap!r}")
    avg = 2 * seq.m / seq.n
    d1 = seq.degrees[0]
    if rho < avg - tol or rho > d1 + tol:
        details.append(f"rho={rho!r} outside bracket [{avg!r}, {d1}]")
    return details, gap <= tols["oracle_tight"]


#: Check names in canonical (report) order.  'oracle' cross-validates the
#: two spectral methods and is only meaningful for graphs small enough for
#: the exact characteristic polynomial.
CHECKS = ("soundness", "dominance", "equality", "unimodality", "replay", "oracle")
_GRAPH_CHECKS = {
    "soundness": _soundness,
    "equality": _equality,
    "replay": _replay,
    "oracle": _oracle,
}
_SEQUENCE_CHECKS = {
    "dominance": _dominance,
    "unimodality": _unimodality,
}


def report_row(ident: str, seq: DegreeSequence, report: BoundReport, rho: float | None) -> tuple:
    """One report row, laid out as CSV_COLUMNS; ``rho`` None leaves rho and
    slack_min empty."""
    phis = report.phis
    cert = report.cert
    return (
        ident, seq.n, seq.m, rho, phis.minimum, phis.pivot,
        phis.values[-1], report.hong_shu_fang, report.hong, report.stanley,
        report.brualdi_hoffman, report.max_degree,
        cert.kind if cert is not None else "",
        cert.t if cert is not None else None,
        phis.minimum - rho if rho is not None else None,
    )


@dataclass(frozen=True)
class CampaignConfig:
    """What to verify: source, checks, tolerances, and parallelism.

    ``tol`` of None means the defaults in ``TOLERANCES``; a given value
    overrides the entries named in ``OVERRIDDEN_BY_TOL``.
    """

    source: str                       # 'enumerate' | 'graph6' | 'edgelist'
    n: int | None = None
    path: str | None = None
    checks: tuple[str, ...] = CHECKS
    tol: float | None = None
    jobs: int = 1


@dataclass
class CampaignResult:
    graphs_checked: int = 0
    skipped_disconnected: int = 0
    violations: list[tuple[str, str, str]] = field(default_factory=list)
    tight_instances: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0


def validate_config(cfg: CampaignConfig) -> None:
    """Raise ValueError for a configuration ``run_campaign`` would reject."""
    if cfg.source not in ("enumerate", "graph6", "edgelist"):
        raise ValueError(f"unknown source {cfg.source!r}")
    if cfg.source == "enumerate":
        if cfg.n is None:
            raise ValueError("enumerate source requires n")
    elif cfg.path is None:
        raise ValueError(f"{cfg.source} source requires a path")
    if not cfg.checks:
        raise ValueError(f"no checks given; valid checks: {CHECKS}")
    unknown = [c for c in cfg.checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid checks: {CHECKS}")
    repeated = sorted({c for c in cfg.checks if cfg.checks.count(c) > 1})
    if repeated:
        raise ValueError(f"checks given more than once: {repeated}")
    if cfg.tol is not None and not math.isfinite(cfg.tol):
        raise ValueError(f"tol must be finite, got {cfg.tol}")
    if cfg.tol is not None and cfg.tol <= 0:
        raise ValueError(f"tol must be positive, got {cfg.tol}")
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    if cfg.source == "enumerate":
        check_enumeration_n(cfg.n)


#: The memo's marker for a degree sequence seen once in the chunk.
_SEEN = object()


def _sequence_entry(degrees: tuple[int, ...], checks: tuple[str, ...], tols: dict) -> tuple:
    """The part of every check that depends only on the degree sequence:
    (seq, report, {sequence check name: (details, tight)})."""
    seq = DegreeSequence.from_degrees(degrees)
    report = bound_report(seq)
    results = {
        name: check(seq, report, tols)
        for name, check in _SEQUENCE_CHECKS.items() if name in checks
    }
    return seq, report, results


def _examine_graph(g: Graph, checks: tuple[str, ...], tols: dict, memo: dict):
    """Run the enabled checks (canonical order) on one connected graph.

    ``memo`` maps sorted degree tuples to ``_sequence_entry`` results for
    one chunk, whose checks and tolerances are fixed.  A sequence's first
    sighting stores only ``_SEEN``, and its second the entry, so a corpus
    of distinct sequences holds no reports.  Returns (row, violations,
    names of checks tight here).
    """
    degrees = tuple(sorted(map(len, g.neighbors), reverse=True))
    entry = memo.get(degrees)
    if entry is None or entry is _SEEN:
        fresh = _sequence_entry(degrees, checks, tols)
        memo[degrees] = _SEEN if entry is None else fresh
        entry = fresh
    seq, report, sequence_results = entry
    rho = spectral_radius_power(g).rho
    ident = encode_graph6(g)
    violations = []
    tight = []
    for name in checks:
        outcome = sequence_results.get(name)
        if outcome is None:
            outcome = _GRAPH_CHECKS[name](g, seq, report, rho, tols)
        details, is_tight = outcome
        violations.extend((ident, name, detail) for detail in details)
        if is_tight:
            tight.append(name)
    return report_row(ident, seq, report, rho), violations, tight


# ---------------------------------------------------------------------------
# chunked execution
# ---------------------------------------------------------------------------

def _chunks(cfg: CampaignConfig) -> list[tuple]:
    """Split the source into picklable chunks: ("enumerate", (n, start, stop)),
    ("graph6", (first_record, lines)) or ("edgelist", text)."""
    if cfg.source == "enumerate":
        total = enumeration_space(cfg.n)
        return [
            ("enumerate", (cfg.n, start, min(start + _ENUM_CHUNK, total)))
            for start in range(0, total, _ENUM_CHUNK)
        ]
    text = read_input(cfg.path)
    if cfg.source == "edgelist":
        return [("edgelist", text)]
    records = graph6_records(text)
    return [
        ("graph6", (start + 1, records[start:start + _FILE_CHUNK]))
        for start in range(0, max(len(records), 1), _FILE_CHUNK)
    ]


def _chunk_graphs(kind: str, payload):
    """Yield the graphs of a chunk in source order."""
    if kind == "enumerate":
        n, start, stop = payload
        yield from enumerate_connected(n, mask_range=(start, stop))
    elif kind == "graph6":
        first_record, lines = payload
        for record, line in enumerate(lines, start=first_record):
            try:
                yield parse_graph6(line)
            except GraphParseError as exc:
                raise GraphParseError(f"record {record}: {exc}") from exc
    else:
        yield parse_edge_list(payload)


def _run_chunk(checks: tuple[str, ...], tols: dict, chunk: tuple) -> tuple:
    """Examine one chunk; returns (rows, violations, skipped, tight counts)."""
    rows: list = []
    violations: list[tuple[str, str, str]] = []
    tight_counts = dict.fromkeys(checks, 0)
    skipped = 0
    memo: dict = {}
    kind, payload = chunk
    for g in _chunk_graphs(kind, payload):
        if kind != "enumerate" and not is_connected(g):
            skipped += 1
            continue
        row, viols, tight = _examine_graph(g, checks, tols, memo)
        rows.append(row)
        violations.extend(viols)
        for name in tight:
            tight_counts[name] += 1
    return rows, violations, skipped, tight_counts


def run_campaign(cfg: CampaignConfig, row_sink=None) -> CampaignResult:
    """Run every enabled check over the configured source.

    ``row_sink`` receives one per-graph row tuple (see CSV_COLUMNS) in
    source order; None discards the rows.  Violations and counters are
    aggregated in source order regardless of ``jobs``.
    """
    validate_config(cfg)
    started = time.perf_counter()
    tols = dict(TOLERANCES)
    if cfg.tol is not None:
        tols.update(dict.fromkeys(OVERRIDDEN_BY_TOL, cfg.tol))
    run = functools.partial(_run_chunk, tuple(c for c in CHECKS if c in cfg.checks), tols)
    chunks = _chunks(cfg)
    result = CampaignResult(tight_instances=dict.fromkeys(cfg.checks, 0))

    with contextlib.ExitStack() as stack:
        outcomes = map(run, chunks)
        if cfg.jobs > 1 and len(chunks) > 1:
            pool = multiprocessing.Pool(min(cfg.jobs, len(chunks)))
            outcomes = stack.enter_context(pool).imap(run, chunks)
        for rows, violations, skipped, tights in outcomes:
            if row_sink is not None:
                for row in rows:
                    row_sink(row)
            result.violations.extend(violations)
            result.graphs_checked += len(rows)
            result.skipped_disconnected += skipped
            for name, count in tights.items():
                result.tight_instances[name] += count

    result.wall_time = time.perf_counter() - started
    return result
