"""Verification campaigns over graph corpora.

A campaign streams graphs from a source (exhaustive enumeration or a file),
filters to connected graphs, runs the enabled checks on each, and aggregates
violations deterministically: results are merged in source order no matter
how many worker processes run, so identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field

from .bounds import GREATER, LESS, BoundReport, bound_report, compare_step
from .equality import EQUALITY_TOL, REGULAR, EqualityCertificate, classify_equality, tight_levels
from .graph_core import (
    Graph,
    GraphParseError,
    check_enumeration_n,
    degree_sequence,
    encode_graph6,
    enumerate_connected,
    enumeration_space,
    is_connected,
    parse_edge_list,
    parse_graph6,
)
from .proof_replay import ROW_SUM_TOL, CertificateViolationError, row_sums_scaled
from .spectral_oracle import CHARPOLY_MAX_N, spectral_radius_charpoly, spectral_radius_power

CSV_COLUMNS = (
    "id", "n", "m", "rho", "phi_min", "pivot", "phi_n", "hong_shu_fang",
    "hong", "stanley", "brualdi_hoffman", "max_degree", "cert_kind",
    "cert_t", "slack_min",
)

#: Every tolerance the checks use.  ``CampaignConfig.tol`` overrides the
#: soundness, equality and replay entries; the rest are fixed.  'tight'
#: decides the tight-instance counts, 'oracle_tight' the oracle's.
TOLERANCES = {
    "soundness": ROW_SUM_TOL,
    "equality": EQUALITY_TOL,
    "replay": ROW_SUM_TOL,
    "dominance": 1e-12,
    "comparator": 1e-9,
    "oracle": 1e-9,
    "tight": EQUALITY_TOL,
    "oracle_tight": 1e-12,
}

_ENUM_CHUNK = 1 << 15
_FILE_CHUNK = 5000


# ---------------------------------------------------------------------------
# checks: each takes one graph's values and the tolerance table and returns
# (violation details, whether the graph counts as a tight instance)
# ---------------------------------------------------------------------------

def _soundness(g, seq, report, cert, rho, tols):
    values = report.phi_at
    vmin = min(values)
    details = []
    if rho > vmin + tols["soundness"]:
        level = values.index(vmin) + 1
        details.append(f"rho={rho!r} exceeds phi_{level}={vmin!r} by {rho - vmin!r}")
    return details, abs(rho - vmin) <= tols["tight"]


def _dominance(g, seq, report, cert, rho, tols):
    details = []
    tight = False
    d1 = seq.degrees[0]
    for level, (v, sw) in enumerate(zip(report.phi_at, report.shu_wu), start=1):
        if v > sw + tols["dominance"]:
            details.append(f"phi_{level}={v!r} exceeds shu_wu_{level}={sw!r}")
        # at levels with d_level = d_1 the two formulas coincide; a tie
        # is only notable where the prefix sum could have been smaller
        if v == sw and seq.degrees[level - 1] < d1:
            tight = True
    hsf = report.hong_shu_fang
    if abs(report.phi_at[-1] - hsf) > math.ulp(max(abs(hsf), 1.0)):
        details.append(f"phi_n={report.phi_at[-1]!r} != hong_shu_fang={hsf!r}")
    return details, tight


def _equality(g, seq, report, cert, rho, tols):
    if cert is None:
        return [], False
    details = []
    numeric = tight_levels(report.phi_at, rho, tols["equality"])
    if numeric != cert.predicted_tight_levels:
        details.append(
            f"predicted {sorted(cert.predicted_tight_levels)} "
            f"({cert.kind}, t={cert.t}) but numeric tight set is "
            f"{sorted(numeric)} at rho={rho!r}"
        )
    return details, bool(cert.predicted_tight_levels)


def _unimodality(g, seq, report, cert, rho, tols):
    details = []
    values = report.phi_at
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
    if scan != report.argmin_levels or abs(report.phi_min - vmin) > tol:
        details.append(
            f"structural argmin {sorted(report.argmin_levels)} "
            f"(pivot {report.pivot}) != scanned argmin {sorted(scan)}"
        )
    return details, report.pivot is None  # counts pivot-fallback inputs


def _replay(g, seq, report, cert, rho, tols):
    details = []
    tight = False
    tol, tight_tol = tols["replay"], tols["tight"]
    for level in range(1, seq.n + 1):
        try:
            rcert = row_sums_scaled(g, level, tol)
        except CertificateViolationError as exc:
            details.append(str(exc))
            continue
        if rho > rcert.max_row_sum + tol:
            details.append(
                f"rho={rho!r} exceeds max scaled row sum "
                f"{rcert.max_row_sum!r} at level {level}"
            )
        # the scaling saturates the top row at every level by construction;
        # a certificate is only notably tight when every row meets the
        # bound, which forces rho(B) = phi at this level
        if all(abs(r - rcert.phi) <= tight_tol for r in rcert.row_sums):
            tight = True
        if cert is not None and level in cert.predicted_tight_levels:
            # Regular: every row; Dominating (level >= t): rows from level on
            first = 1 if cert.kind == REGULAR else level
            for i, r in enumerate(rcert.row_sums[first - 1:], start=first):
                if abs(r - rcert.phi) > tight_tol:
                    details.append(
                        f"predicted-tight level {level} ({cert.kind}) has "
                        f"row {i} sum {r!r} != phi {rcert.phi!r}"
                    )
    return details, tight


def _oracle(g, seq, report, cert, rho, tols):
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


#: Check name -> check function, in canonical (report) order.  'oracle'
#: cross-validates the two spectral methods and is only meaningful for
#: graphs small enough for the exact characteristic polynomial.
_CHECK_FUNCTIONS = {
    "soundness": _soundness,
    "dominance": _dominance,
    "equality": _equality,
    "unimodality": _unimodality,
    "replay": _replay,
    "oracle": _oracle,
}
CHECKS = tuple(_CHECK_FUNCTIONS)


def report_row(ident: str, report: BoundReport, cert: EqualityCertificate | None) -> tuple:
    """One report row, laid out as CSV_COLUMNS."""
    return (
        ident, report.n, report.m, report.rho, report.phi_min, report.pivot,
        report.phi_at[-1], report.hong_shu_fang, report.hong, report.stanley,
        report.brualdi_hoffman, report.max_degree,
        cert.kind if cert is not None else "",
        cert.t if cert is not None else None,
        report.slack_min,
    )


@dataclass(frozen=True)
class CampaignConfig:
    """What to verify: source, checks, tolerances, and parallelism.

    ``tol`` of None means the defaults in ``TOLERANCES``; a given value
    overrides the soundness, equality and replay tolerances.
    """

    source: str                       # 'enumerate' | 'graph6' | 'edgelist'
    n: int | None = None
    path: str | None = None
    checks: tuple[str, ...] = CHECKS
    tol: float | None = None
    jobs: int = 1
    allow_large: bool = False


@dataclass
class CampaignResult:
    graphs_checked: int = 0
    skipped_disconnected: int = 0
    violations: list[tuple[str, str, str]] = field(default_factory=list)
    tight_instances: dict[str, int] = field(default_factory=dict)
    wall_time: float = 0.0


def _validate_config(cfg: CampaignConfig) -> None:
    if cfg.source not in ("enumerate", "graph6", "edgelist"):
        raise ValueError(f"unknown source {cfg.source!r}")
    if cfg.source == "enumerate":
        if cfg.n is None:
            raise ValueError("enumerate source requires n")
    elif cfg.path is None:
        raise ValueError(f"{cfg.source} source requires a path")
    unknown = [c for c in cfg.checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; valid checks: {CHECKS}")
    if cfg.tol is not None and cfg.tol <= 0:
        raise ValueError(f"tol must be positive, got {cfg.tol}")
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    if cfg.source == "enumerate":
        check_enumeration_n(cfg.n, cfg.allow_large)


def _examine_graph(g: Graph, checks: tuple[str, ...], tols: dict, want_rows: bool):
    """Run the enabled checks (canonical order) on one connected graph.

    Returns (row or None, violations, names of checks tight here).
    """
    seq = degree_sequence(g)
    rho = spectral_radius_power(g).rho
    report = bound_report(seq, rho)
    cert = classify_equality(seq) if seq.n >= 2 else None
    found = []
    tight = []
    for name in checks:
        details, is_tight = _CHECK_FUNCTIONS[name](g, seq, report, cert, rho, tols)
        found.extend((name, detail) for detail in details)
        if is_tight:
            tight.append(name)
    ident = encode_graph6(g) if want_rows or found else None
    row = report_row(ident, report, cert) if want_rows else None
    return row, [(ident, name, detail) for name, detail in found], tight


# ---------------------------------------------------------------------------
# chunked execution
# ---------------------------------------------------------------------------

def _make_tasks(cfg: CampaignConfig, common: dict) -> list[dict]:
    """Split the source into tasks; ``common`` (checks, tolerances, whether
    rows are wanted) goes into every task."""
    if cfg.source == "enumerate":
        total = enumeration_space(cfg.n)
        return [
            {"kind": "enumerate", "n": cfg.n, "allow_large": cfg.allow_large,
             "range": (start, min(start + _ENUM_CHUNK, total)), **common}
            for start in range(0, total, _ENUM_CHUNK)
        ]
    if cfg.source == "graph6":
        with open(cfg.path, "r", encoding="ascii") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.strip()]
        if lines and lines[0].strip() == ">>graph6<<":
            lines = lines[1:]
        return [
            {"kind": "graph6", "lines": lines[start:start + _FILE_CHUNK],
             "first_record": start + 1, **common}
            for start in range(0, max(len(lines), 1), _FILE_CHUNK)
        ]
    with open(cfg.path, "r", encoding="ascii") as fh:
        text = fh.read()
    return [{"kind": "edgelist", "text": text, **common}]


def _task_graphs(task: dict):
    """Yield (graph, known_connected) for a task."""
    if task["kind"] == "enumerate":
        graphs = enumerate_connected(
            task["n"], allow_large=task["allow_large"], mask_range=task["range"]
        )
        yield from ((g, True) for g in graphs)
    elif task["kind"] == "graph6":
        for offset, line in enumerate(task["lines"]):
            record = task["first_record"] + offset
            try:
                yield parse_graph6(line), False
            except GraphParseError as exc:
                raise GraphParseError(f"record {record}: {exc}") from exc
    else:
        yield parse_edge_list(task["text"]), False


def _run_chunk(task: dict) -> dict:
    checks, tols, want_rows = task["checks"], task["tols"], task["want_rows"]
    rows: list = []
    violations: list[tuple[str, str, str]] = []
    tight_counts = dict.fromkeys(checks, 0)
    checked = skipped = 0
    for g, known_connected in _task_graphs(task):
        if not known_connected and not is_connected(g):
            skipped += 1
            continue
        checked += 1
        row, viols, tight = _examine_graph(g, checks, tols, want_rows)
        if want_rows:
            rows.append(row)
        violations.extend(viols)
        for name in tight:
            tight_counts[name] += 1
    return {"rows": rows, "violations": violations, "checked": checked,
            "skipped": skipped, "tights": tight_counts}


def run_campaign(cfg: CampaignConfig, row_sink=None) -> CampaignResult:
    """Run every enabled check over the configured source.

    ``row_sink`` receives one per-graph row tuple (see CSV_COLUMNS) in
    source order; pass None to skip row generation entirely.  Violations
    and counters are aggregated in source order regardless of ``jobs``.
    """
    _validate_config(cfg)
    started = time.perf_counter()
    tols = dict(TOLERANCES)
    if cfg.tol is not None:
        tols.update(soundness=cfg.tol, equality=cfg.tol, replay=cfg.tol)
    tasks = _make_tasks(cfg, {
        "checks": tuple(c for c in CHECKS if c in cfg.checks),
        "tols": tols,
        "want_rows": row_sink is not None,
    })
    result = CampaignResult(tight_instances=dict.fromkeys(cfg.checks, 0))

    if cfg.jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(cfg.jobs) as pool:
            _merge(result, pool.imap(_run_chunk, tasks), row_sink)
    else:
        _merge(result, map(_run_chunk, tasks), row_sink)

    result.wall_time = time.perf_counter() - started
    return result


def _merge(result: CampaignResult, outcomes, row_sink) -> None:
    for out in outcomes:
        if row_sink is not None:
            for row in out["rows"]:
                row_sink(row)
        result.violations.extend(out["violations"])
        result.graphs_checked += out["checked"]
        result.skipped_disconnected += out["skipped"]
        for name, count in out["tights"].items():
            result.tight_instances[name] += count
