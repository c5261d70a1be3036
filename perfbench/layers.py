"""The campaign's per-graph work, replayed call by call under spans.

``examine`` calls the public function of each module in the order and with
the arguments that ``rho_bounds.harness`` uses for a campaign with a row
sink, and records one span around each call (or each per-level loop of
calls) under a per-graph span.  It makes no verdicts: the program under test
does that.  It returns the report rows built from the calls' results, so
the same pass serves as the reference the CLI's output is checked against,
and as the proof that the trace follows the program's own path.
"""

from __future__ import annotations

from rho_bounds.bounds import (
    bound_brualdi_hoffman,
    bound_hong,
    bound_hong_shu_fang,
    bound_shu_wu,
    bound_stanley,
    compare_step,
    phi_sequence,
)
from rho_bounds.equality import classify_equality, tight_levels
from rho_bounds.graph_core import (
    degree_sequence,
    encode_graph6,
    enumerate_connected,
    enumeration_space,
    is_connected,
    parse_graph6,
)
from rho_bounds.proof_replay import row_sums_scaled
from rho_bounds.spectral_oracle import (
    CHARPOLY_MAX_N,
    characteristic_polynomial,
    largest_real_root,
    spectral_radius_power,
)

from spans import ROOT, Tracer, now

GRAPH = "graph"
ENUMERATE = "graph_core.enumerate_connected"
PARSE = "graph_core.parse_graph6"
CONNECTED = "graph_core.is_connected"
ENCODE = "graph_core.encode_graph6"
DEGREES = "graph_core.degree_sequence"
PHIS = "bounds.phi_sequence"
STEP = "bounds.compare_step"
SHU_WU = "bounds.bound_shu_wu"
HSF = "bounds.bound_hong_shu_fang"
ROW_BOUNDS = "bounds.row_bounds"
CLASSIFY = "equality.classify_equality"
TIGHT = "equality.tight_levels"
POWER = "spectral_oracle.spectral_radius_power"
CHARPOLY = "spectral_oracle.characteristic_polynomial"
ROOT_ISOLATION = "spectral_oracle.largest_real_root"
REPLAY = "proof_replay.row_sums_scaled"

#: Layers whose work exists only to build report rows; a campaign run
#: with row_sink=None skips them.
ROW_LAYERS = (ENCODE, ROW_BOUNDS)


def _graphs(source: tuple, tr: Tracer):
    """Yield (graph span, graph or None when disconnected) from the source."""
    kind, arg = source
    if kind == "enumerate":
        enum_id, graph_id = tr.layer(ENUMERATE), tr.layer(GRAPH)
        stream = enumerate_connected(arg)
        tr.count("masks_scanned", enumeration_space(arg))
        while True:
            t0 = now()
            g = next(stream, None)
            t1 = now()
            if g is None:
                tr.record(enum_id, t0, t1, ROOT)
                return
            span = tr.open(graph_id, t0)
            tr.record(enum_id, t0, t1, span)
            yield span, g
    else:
        parse_id, conn_id, graph_id = tr.layer(PARSE), tr.layer(CONNECTED), tr.layer(GRAPH)
        for line in arg:
            t0 = now()
            span = tr.open(graph_id, t0)
            g = parse_graph6(line)
            t1 = now()
            connected = is_connected(g)
            t2 = now()
            tr.record(parse_id, t0, t1, span)
            tr.record(conn_id, t1, t2, span)
            if not connected:
                tr.close(span, t2)
            yield span, (g if connected else None)


def examine(source: tuple, checks: tuple[str, ...], tr: Tracer) -> list[tuple]:
    """Replay the campaign's calls for every connected graph of ``source``.

    ``source`` is ("enumerate", n) or ("graph6", lines).  Returns one row
    per connected graph, in source order, laid out like the CSV report.
    Per-layer call and iteration counts go to ``tr.counts``.
    """
    ids = {name: tr.layer(name) for name in (
        DEGREES, PHIS, POWER, CLASSIFY, SHU_WU, HSF, TIGHT, STEP, REPLAY,
        CHARPOLY, ROOT_ISOLATION, ENCODE, ROW_BOUNDS)}
    rec = tr.record
    rows = []
    power_max = 0
    for span, g in _graphs(source, tr):
        if g is None:
            continue
        n = g.n
        t0 = now()
        seq = degree_sequence(g)
        t1 = now()
        phis = phi_sequence(seq)
        t2 = now()
        power = spectral_radius_power(g)
        t3 = now()
        rec(ids[DEGREES], t0, t1, span)
        rec(ids[PHIS], t1, t2, span)
        rec(ids[POWER], t2, t3, span)
        rho = power.rho
        tr.count(POWER, power.iterations)
        power_max = max(power_max, power.iterations)
        cert = None
        if n >= 2:
            t0 = now()
            cert = classify_equality(seq)
            rec(ids[CLASSIFY], t0, now(), span)

        if "dominance" in checks:
            t0 = now()
            for level in range(1, n + 1):
                bound_shu_wu(seq, level)
            t1 = now()
            bound_hong_shu_fang(seq)
            t2 = now()
            rec(ids[SHU_WU], t0, t1, span)
            rec(ids[HSF], t1, t2, span)
        if "equality" in checks and cert is not None:
            t0 = now()
            tight_levels(phis.values, rho)
            rec(ids[TIGHT], t0, now(), span)
        if "unimodality" in checks:
            t0 = now()
            for s in range(1, n):
                compare_step(seq, s)
            rec(ids[STEP], t0, now(), span)
        if "replay" in checks:
            t0 = now()
            for level in range(1, n + 1):
                row_sums_scaled(g, level)
            rec(ids[REPLAY], t0, now(), span)
            tr.count(REPLAY, n)
        if "oracle" in checks and n <= CHARPOLY_MAX_N:
            t0 = now()
            coeffs = characteristic_polynomial(g)
            t1 = now()
            _, _, iterations = largest_real_root(coeffs, seq.degrees[0])
            t2 = now()
            rec(ids[CHARPOLY], t0, t1, span)
            rec(ids[ROOT_ISOLATION], t1, t2, span)
            tr.count(ROOT_ISOLATION, iterations)

        t0 = now()
        ident = encode_graph6(g)
        t1 = now()
        row_bounds = (bound_hong_shu_fang(seq), bound_hong(seq),
                      bound_stanley(seq.m), bound_brualdi_hoffman(seq.m))
        t2 = now()
        rec(ids[ENCODE], t0, t1, span)
        rec(ids[ROW_BOUNDS], t1, t2, span)
        values = phis.values
        rows.append((
            ident, n, seq.m, rho, phis.minimum, phis.pivot, values[-1],
            *row_bounds, float(seq.degrees[0]),
            cert.kind if cert is not None else "",
            cert.t if cert is not None else None,
            phis.minimum - rho,
        ))
        tr.close(span, now())
    tr.counts["power_iterations_max"] = power_max
    return rows
