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
import time
from dataclasses import dataclass, field

from .bounds import (
    EQUAL, GREATER, LESS, BoundReport, bound_report, compare_half_surds, compare_step,
    hong_shu_fang_surd, surd_sign,
)
from .graph_core import (
    DegreeSequence,
    Graph,
    GraphParseError,
    check_enumeration_n,
    check_graph6,
    decode_graph6,
    encode_graph6,
    enumerate_blocks,
    enumeration_space,
    graph6_records,
    is_connected,
    parse_edge_list,
    read_input,
)
from .proof_replay import row_slacks
from .spectral_oracle import (
    CHARPOLY_MAX_N, at_or_above_root, characteristic_polynomial, derivative_chain,
    spectral_radius_power,
)

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
# sequence's bound report and the graph's Lanczos SpectralResult; a sequence
# check takes only the sequence and its report, so its details never name
# the graph and one result serves every graph with that sequence.  No check
# reads a tolerance: the sequence checks compare exact pairs (a, b) of
# half-surds (a + sqrt(b))/2, and the graph checks the certified ends
# lo <= rho <= hi, each a dyadic compared exactly with phi_l.  Lanczos's
# result and every graph check's outcome depend only on the graph's
# isomorphism class, so one result serves every graph of a class.
# ---------------------------------------------------------------------------

def _end_vs_phi(x: float, surd: tuple[int, int]) -> int:
    """Exact sign of x - phi for a float x and phi = (a + sqrt(b))/2: with
    x = p/q and q > 0, the sign of (2p - q*a) - q*sqrt(b)."""
    p, q = x.as_integer_ratio()
    a, b = surd
    return surd_sign(2 * p - q * a, -q, b)


def _soundness(g, seq, report, spec):
    # every slack zero at a level means rho = phi_l (Perron-Frobenius)
    level = min(report.phis.argmin_levels)
    surd = report.phis.surds[level - 1]
    vmin = report.phis.minimum
    if _end_vs_phi(spec.hi, surd) < 0:
        return [], False
    if _end_vs_phi(spec.lo, surd) > 0:
        return [f"rho >= {spec.lo!r} exceeds phi_{level}={vmin!r}"], False
    if any(next(row_slacks(g, level))):
        return [f"undecided: [{spec.lo!r}, {spec.hi!r}] holds phi_{level}={vmin!r} "
                f"and level {level} has a nonzero slack"], False
    return [], True


def _dominance(seq, report):
    # phi_l and shu_wu_l are the exact pairs (d_l - 1, (d_l + 1)^2 + 4E) of
    # one d_l, E the prefix excess or (l - 1)(d_1 - d_l): with a shared a the
    # radicands decide, and a pair with another a is wrong.  phi_n's pair
    # must be hong_shu_fang's
    details = []
    tight = False
    d1 = seq.degrees[0]
    surds = report.phis.surds
    for level, (surd, shu_wu) in enumerate(zip(surds, report.shu_wu_surds), start=1):
        if surd[0] != shu_wu[0] or surd[1] > shu_wu[1]:
            details.append(f"phi_{level} pair {surd} is not at most shu_wu_{level} pair {shu_wu}")
        # at levels with d_level = d_1 the two formulas coincide; a tie
        # is only notable where the prefix sum could have been smaller
        elif surd == shu_wu and seq.degrees[level - 1] < d1:
            tight = True
    hsf = hong_shu_fang_surd(seq)
    if surds[-1] != hsf:
        details.append(f"phi_n pair {surds[-1]} != hong_shu_fang pair {hsf}")
    return details, tight


def _equality(g, seq, report, spec):
    # a predicted level's phi lies in [lo, hi], any other level's above hi.
    # An unpredicted phi_l at most hi is wrong when rho = phi_l is proved
    # (lo >= phi_l, or every slack at the level zero, as in soundness) and
    # undecided otherwise.  With nothing predicted the minimum is the one to
    # test, and a repeated degree repeats phi and the slacks, so the verdict
    cert = report.cert
    if cert is None:
        return [], False
    predicted = cert.predicted_tight_levels
    levels = range(1, seq.n + 1) if predicted else (min(report.phis.argmin_levels),)
    wrong, undecided = [], []
    last = None
    for level in levels:
        key = seq.degrees[level - 1], level in predicted
        if key != last:
            last, surd = key, report.phis.surds[level - 1]
            above = _end_vs_phi(spec.hi, surd) < 0
            if key[1]:
                verdict = wrong if above or _end_vs_phi(spec.lo, surd) > 0 else None
            else:
                verdict = (None if above else wrong if _end_vs_phi(spec.lo, surd) >= 0
                           or not any(next(row_slacks(g, level))) else undecided)
        if verdict is not None:
            verdict.append(level)
    enclosure = f"[{spec.lo!r}, {spec.hi!r}]"
    details = [
        f"predicted {sorted(predicted)} ({cert.kind}, t={cert.t}) but "
        f"{enclosure} disagrees at levels {wrong}"
    ] if wrong else []
    if undecided:
        details.append(f"undecided: {enclosure} holds phi_l at unpredicted levels {undecided}")
    return details, bool(predicted)


def _unimodality(seq, report):
    # compare_step's closed form against the direct comparison of phi's
    # pairs, which a repeated degree repeats (EQUAL without a comparison),
    # and the structural argmin against an exact scan of the distinct pairs
    details = []
    phis = report.phis
    surds = phis.surds
    seen_less = False
    for s in range(1, seq.n):
        ordering = compare_step(seq, s)
        if ordering == LESS:
            seen_less = True
        elif ordering == GREATER and seen_less:
            details.append(f"phi sequence falls at step {s} after having risen")
        left, right = surds[s - 1], surds[s]
        direct = EQUAL if left == right else compare_half_surds(*left, *right)
        if direct != ordering:
            details.append(f"integer comparator says {ordering} at step {s} but "
                           f"the pairs {left} and {right} compare {direct}")
    distinct = set(surds)
    least = min(distinct, key=functools.cmp_to_key(lambda x, y: compare_half_surds(*x, *y)))
    lowest = {surd for surd in distinct if compare_half_surds(*surd, *least) == EQUAL}
    scan = frozenset(j for j, surd in enumerate(surds, start=1) if surd in lowest)
    if scan != phis.argmin_levels:
        details.append(f"structural argmin {sorted(phis.argmin_levels)} "
                       f"(pivot {phis.pivot}) != scanned argmin {sorted(scan)}")
    return details, phis.pivot is None  # counts pivot-fallback inputs


def _replay(g, seq, report, spec):
    details = []
    flat = set()
    last = None
    for level, slacks in enumerate(row_slacks(g), start=1):
        if slacks is not last:
            # a new degree: new slacks (a repeated degree repeats them, and
            # phi, and so both verdicts below)
            last = slacks
            low = min(slacks)
            # a row meets phi exactly when its slack is zero; the level is
            # flat (rho(B) = phi) when every row does.  The least slack,
            # unlike the row that holds it, is the same on every labeling
            zero = not any(slacks)
        if low < 0:
            details.append(f"least slack {low} < 0 at level {level}")
        elif zero:
            flat.add(level)
    cert = report.cert
    if cert is not None and flat != cert.predicted_tight_levels:
        details.append(
            f"predicted tight levels {sorted(cert.predicted_tight_levels)} ({cert.kind}) "
            f"but the zero-slack levels are {sorted(flat)}"
        )
    return details, bool(flat)


def _oracle(g, seq, report, spec):
    # lo < rho <= hi for the charpoly's largest root rho, by exact signs of
    # the polynomial and its derivatives at each end
    details = []
    if seq.n <= CHARPOLY_MAX_N:
        chain = derivative_chain(characteristic_polynomial(g))
        if not at_or_above_root(chain, spec.hi):
            details.append(f"Lanczos hi={spec.hi!r} is below the charpoly's largest root")
        if at_or_above_root(chain, spec.lo):
            details.append(f"Lanczos lo={spec.lo!r} is not below the charpoly's largest root")
    tight = seq.n <= CHARPOLY_MAX_N and not details
    # [2m/n, d_1] meets [lo, hi]: 2m/n <= hi = p/q and lo <= d_1, exactly
    p, q = spec.hi.as_integer_ratio()
    d1 = seq.degrees[0]
    if seq.n * p < 2 * seq.m * q or spec.lo > d1:
        details.append(f"[{spec.lo!r}, {spec.hi!r}] misses [{2 * seq.m / seq.n!r}, {d1}]")
    return details, tight


#: Check names in canonical (report) order.  'oracle' tests Lanczos's
#: enclosure against [2m/n, d_1] at every n and, for graphs small enough for
#: the exact characteristic polynomial, holds its largest root in (lo, hi].
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
    """What to verify: source, checks, and parallelism."""

    source: str                       # 'enumerate' | 'graph6' | 'edgelist'
    n: int | None = None
    path: str | None = None
    checks: tuple[str, ...] = CHECKS
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
    if cfg.jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {cfg.jobs}")
    if cfg.source == "enumerate":
        check_enumeration_n(cfg.n)


#: The memo's marker for a degree sequence seen once in the chunk.
_SEEN = object()


def _sequence_entry(degrees: tuple[int, ...], checks: tuple[str, ...]) -> tuple:
    """The part of every check that depends only on the degree sequence:
    (seq, report, {sequence check name: (details, tight)}, classes), where
    ``classes`` is an empty dict for the class records of the graphs with
    this sequence."""
    seq = DegreeSequence.from_degrees(degrees)
    report = bound_report(seq)
    results = {
        name: check(seq, report)
        for name, check in _SEQUENCE_CHECKS.items() if name in checks
    }
    return seq, report, results, {}


def _relabel(g: Graph, degree: list[int]) -> tuple[tuple, list[int]]:
    """An isomorphic copy of ``g``, given its degree list, and each vertex's
    position in it: the vertices ordered by degree, then by the sum of their
    neighbours' squared degrees, ties by label, and the copy's neighbour
    sets (frozensets of positions) in that order.  Both invariants are
    packed into one integer, since the sum is below n^3, so no neighbour
    list is sorted; the copy takes O(n + m) memory.  The copy is a graph's
    class key: equal copies are relabelings of one graph, so their graphs
    are isomorphic; isomorphic graphs may still differ.  An isolated vertex
    has the least integer, 0, so the isolated vertex with the least label
    takes position 0: vertex 0 of an enumerated block's H always does."""
    neighbors = g.neighbors
    n = g.n
    weight = [d * d for d in degree].__getitem__
    scale = n * n * n
    rank = [d * scale + sum(map(weight, nb)) for d, nb in zip(degree, neighbors)]
    order = sorted(range(n), key=rank.__getitem__)
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    place = position.__getitem__
    return tuple([frozenset(map(place, neighbors[v])) for v in order]), position


def _class_record(g: Graph, checks: tuple[str, ...], seq, report, sequence_results) -> tuple:
    """What ``g``'s isomorphism class fixes, given its sequence's entry:
    (its report row without the id, [(check, details)] for the checks with
    details, in canonical order, names of the checks tight here)."""
    spec = spectral_radius_power(g)
    found = []
    tight = []
    for name in checks:
        details, is_tight = sequence_results.get(name) or _GRAPH_CHECKS[name](g, seq, report, spec)
        if details:
            found.append((name, details))
        if is_tight:
            tight.append(name)
    return report_row("", seq, report, spec.rho)[1:], found, tight


def _class_of(g: Graph, checks: tuple[str, ...], memo: dict) -> tuple:
    """The class record (see :func:`_class_record`) of one connected graph.

    ``memo`` maps sorted degree tuples to ``_sequence_entry`` results for
    one chunk, whose checks are fixed.  A sequence's first sighting stores
    only ``_SEEN``, and its second the entry, so a corpus of distinct
    sequences holds no reports.  From a sequence's second sighting on, each
    graph's class key (:func:`_relabel`) also indexes the entry's classes,
    which keep a ``_class_record``: Lanczos's result is the same bit for bit
    on every labeling (see ``spectral_oracle``), and so is every check's
    outcome.
    So per graph there remain the degree list, its sort and memo lookup,
    and the class key.
    """
    degree = list(map(len, g.neighbors))
    degrees = tuple(sorted(degree, reverse=True))
    entry = memo.get(degrees)
    seen = entry is not None
    if entry is None or entry is _SEEN:
        fresh = _sequence_entry(degrees, checks)
        memo[degrees] = fresh if seen else _SEEN
        entry = fresh
    seq, report, sequence_results, classes = entry
    # a new degree tuple has no isomorph earlier in the chunk
    key = _relabel(g, degree)[0] if seen else None
    record = classes.get(key)
    if record is None:
        record = _class_record(g, checks, seq, report, sequence_results)
        if seen:
            classes[key] = record
    return record


# ---------------------------------------------------------------------------
# chunked execution
# ---------------------------------------------------------------------------

def _chunks(cfg: CampaignConfig) -> list[tuple]:
    """Split the source into picklable chunks: ("enumerate", (n, start, stop)),
    ("graph6", records) or ("edgelist", text).  Every graph6 record is
    checked here, before any chunk runs, so a bad one leaves no report
    behind.  A chunk holds each record as :func:`check_graph6` returns it,
    without any ``>>graph6<<`` prefix or trailing whitespace: its graph's id
    and what :func:`decode_graph6` reads."""
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
    for number, record in enumerate(records, start=1):
        try:
            records[number - 1] = check_graph6(record)
        except GraphParseError as exc:
            raise GraphParseError(f"record {number}: {exc}") from exc
    return [
        ("graph6", records[start:start + _FILE_CHUNK])
        for start in range(0, max(len(records), 1), _FILE_CHUNK)
    ]


def _chunk_classes(kind: str, payload, checks: tuple[str, ...]):
    """Yield (id, class record) for the graphs of a chunk in source order,
    with None for a disconnected graph; the id is the graph's graph6
    record, as the enumerator or the source has it or as
    :func:`encode_graph6` writes it.

    A file's graphs each go through :func:`_class_of`.  An enumeration
    chunk comes in blocks (:func:`enumerate_blocks`): a graph H on vertices
    1..n-1, with vertex 0 isolated, and its members, H plus vertex 0 joined
    to a set S.  Vertex 0 takes position 0 in :func:`_relabel`'s copy of H,
    so two members with equal rooted keys, H's copy and the frozenset of
    S's positions in it, are isomorphic by a relabeling that fixes vertex
    0, and share a class record.  The chunk keeps one record per rooted
    key, and only a new rooted key goes through :func:`_class_of`.
    """
    memo: dict = {}
    if kind == "enumerate":
        n, start, stop = payload
        rooted: dict = {}
        for h, members in enumerate_blocks(n, (start, stop)):
            form, position = _relabel(h, list(map(len, h.neighbors)))
            records = rooted.setdefault(form, {})
            place = position.__getitem__
            for ident, g in members:
                key = frozenset(map(place, g.neighbors[0]))
                record = records.get(key)
                if record is None:
                    record = records[key] = _class_of(g, checks, memo)
                yield ident, record
        return
    if kind == "graph6":
        graphs = ((record, decode_graph6(record)) for record in payload)  # checked by _chunks
    else:
        g = parse_edge_list(payload)
        graphs = [(encode_graph6(g), g)]
    for ident, g in graphs:
        yield ident, _class_of(g, checks, memo) if is_connected(g) else None


def _run_chunk(checks: tuple[str, ...], chunk: tuple) -> tuple:
    """Examine one chunk; returns (rows, violations, skipped, tight counts).

    The chunk's only state is its memos: per degree sequence and class key
    (:func:`_class_of`) and, for an enumeration chunk, per rooted key
    (:func:`_chunk_classes`), which relies on vertex 0 taking position 0
    in the copy of each block's H.  A graph's row is its id before its
    class record's row.
    """
    rows: list = []
    violations: list[tuple[str, str, str]] = []
    tight_counts = dict.fromkeys(checks, 0)
    skipped = 0
    kind, payload = chunk
    for ident, record in _chunk_classes(kind, payload, checks):
        if record is None:
            skipped += 1
            continue
        tail, found, tight = record
        rows.append((ident,) + tail)
        if found:
            violations.extend((ident, name, detail) for name, details in found for detail in details)
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
    run = functools.partial(_run_chunk, tuple(c for c in CHECKS if c in cfg.checks))
    chunks = _chunks(cfg)
    result = CampaignResult(tight_instances=dict.fromkeys(cfg.checks, 0))

    with contextlib.ExitStack() as stack:
        outcomes = map(run, chunks)
        if cfg.jobs > 1 and len(chunks) > 1:
            import multiprocessing  # here, where a pool opens: it slows start-up

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
