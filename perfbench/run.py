#!/usr/bin/env python3
"""Benchmark of ``rho-bounds verify`` campaigns.

Run from the root of a source checkout (stdlib only; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload enum-n6 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all          # every workload, both modes,
                                            # and rewrite BENCHMARK.json

With ``--trace 0`` the workload runs through the CLI in child processes,
``python -m rho_bounds verify ...``, for about ``--seconds`` seconds, and
the end-to-end metrics are reported.  With ``--trace 1`` traced in-process
replays of the same per-graph calls (``layers.py``) alternate with untraced
in-process campaigns for about ``--seconds`` seconds, one CLI run is checked
against them, and the per-layer metrics are reported.  Every CLI run's
output is checked; see README.md for the metrics and the checks.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

ALL_CHECKS = ("soundness", "dominance", "equality", "unimodality", "replay", "oracle")
ACCEPTANCE_CHECKS = ("soundness", "dominance", "equality", "unimodality", "oracle")

#: Labeled connected graphs on n vertices (OEIS A001187).
CONNECTED_LABELED = {1: 1, 2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}

#: Position of rho in a report row (rho_bounds.CSV_COLUMNS).
RHO = 3

MAIN_TIMEOUT_S = 150.0
SETUP_TIMEOUT_S = 30.0
MIN_MAIN_RUNS = 2
SETUP_RUNS_FIRST = 6
TRACE_SETUP_RUNS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    checks: tuple[str, ...]
    jobs: int
    output: str
    n: int | None = None         # enumeration source
    corpus: str | None = None    # generator in corpus.py
    size: int = 0                # graphs in the corpus


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "enum-n6",
            "all 26,704 connected n=6 graphs, all six checks, serial, CSV: "
            "enumeration, charpoly and replay on tiny graphs that fall into "
            "only 112 isomorphism classes",
            ALL_CHECKS, jobs=1, output="csv", n=6,
        ),
        Workload(
            "corpus-mid",
            "seeded graph6 corpus, 13 <= n <= 120 (trees, paths, cycles, dense "
            "G(n,p), join-dominating), all checks, CSV: power iteration and "
            "replay dominate, no charpoly",
            ALL_CHECKS, jobs=1, output="csv", corpus="corpus_mid", size=250,
        ),
        Workload(
            "n7-jobs2",
            "seeded sample of 10,000 labeled connected n=7 graphs, acceptance "
            "checks without replay, --jobs 2, JSON: worker pool, chunk merge "
            "and JSON writer",
            ACCEPTANCE_CHECKS, jobs=2, output="json", corpus="n7_sample", size=10000,
        ),
    )
}

#: Tiny sizes for the benchmark's own tests.
SMOKE = {
    "enum-n6": {"n": 4},
    "corpus-mid": {"size": 10},
    "n7-jobs2": {"size": 40},
}

#: (name, unit, better, bound) -- bound is the share of the parent's median
#: by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("graphs_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_kgraph", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
)

#: (name, unit, better); README.md maps each to the end-to-end metric and
#: workload it should move.
PER_LAYER = (
    ("graph_core.enumerate_connected.us_per_graph", "us", "lower"),
    ("graph_core.enumerate_connected.connected_share", "ratio", "higher"),
    ("graph_core.parse_graph6.us_per_graph", "us", "lower"),
    ("graph_core.is_connected.us_per_graph", "us", "lower"),
    ("graph_core.encode_graph6.us_per_graph", "us", "lower"),
    ("graph_core.degree_sequence.us_per_graph", "us", "lower"),
    ("bounds.phi_sequence.us_per_graph", "us", "lower"),
    ("bounds.compare_step.us_per_graph", "us", "lower"),
    ("bounds.bound_shu_wu.us_per_graph", "us", "lower"),
    ("equality.classify_equality.us_per_graph", "us", "lower"),
    ("spectral_oracle.spectral_radius_power.us_per_graph", "us", "lower"),
    ("spectral_oracle.spectral_radius_power.iterations_per_graph", "count", "lower"),
    ("spectral_oracle.spectral_radius_power.iterations_max", "count", "lower"),
    ("spectral_oracle.characteristic_polynomial.us_per_graph", "us", "lower"),
    ("spectral_oracle.largest_real_root.us_per_graph", "us", "lower"),
    ("spectral_oracle.largest_real_root.iterations_per_graph", "count", "lower"),
    ("proof_replay.row_sums_scaled.us_per_graph", "us", "lower"),
    ("proof_replay.row_sums_scaled.calls_per_graph", "count", "lower"),
    ("harness.tasks", "count", "higher"),
    ("harness.parallel_share", "ratio", "higher"),
    ("harness.overhead_s", "s", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("cli.report_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

RUN_SECONDS = 30


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _loadavg_1m() -> float | None:
    try:
        return os.getloadavg()[0]
    except OSError:
        return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "loadavg_1m": _loadavg_1m(),
        "kernel_ms": speed.probe_s() * 1e3,
    }


# ---------------------------------------------------------------------------
# inputs and the reference report
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    source: tuple          # what layers.examine replays
    argv: list[str]        # the CLI's verify arguments
    empty_argv: list[str]  # the same flags over an empty corpus
    expected: int          # connected graphs the campaign must check


def prepare(w: Workload, seed: int, workdir: Path) -> Inputs:
    import corpus

    empty = workdir / "empty.g6"
    empty.write_text("")
    flags = ["--checks", ",".join(w.checks), "--jobs", str(w.jobs), "--output", w.output]
    if w.n is not None:
        return Inputs(("enumerate", w.n), ["verify", "--n", str(w.n), *flags],
                      ["verify", "--input", str(empty), *flags],
                      CONNECTED_LABELED[w.n])
    lines = getattr(corpus, w.corpus)(seed, w.size)
    path = workdir / "corpus.g6"
    path.write_text("".join(line + "\n" for line in lines))
    return Inputs(("graph6", lines), ["verify", "--input", str(path), *flags],
                  ["verify", "--input", str(empty), *flags], len(lines))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def expected_report(w: Workload, rows: list[tuple]) -> bytes:
    """The report bytes the CLI must print for these rows.

    CSV: the whole report.  JSON: everything before the summary object.
    """
    from rho_bounds import CSV_COLUMNS

    if w.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows([_cell(v) for v in row] for row in rows)
        return buf.getvalue().encode("ascii")
    body = ", ".join(json.dumps(dict(zip(CSV_COLUMNS, row))) for row in rows)
    return ('{"rows": [' + body + "], ").encode("ascii")


@dataclass
class Reference:
    report: bytes      # see expected_report
    digest: str        # sha256 of report
    expected: int      # graphs_checked the campaign must report


def reference_for(w: Workload, rows: list[tuple], expected: int) -> Reference:
    report = expected_report(w, rows)
    return Reference(report, hashlib.sha256(report).hexdigest(), expected)


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------

@dataclass
class CliRun:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float          # user + sys of the process tree
    rss_mib: float        # largest resident set in the tree
    timed_out: bool
    stdout: bytes = b""
    problems: tuple[str, ...] = ()


def invoke(argv: list[str], workdir: Path, timeout: float) -> CliRun:
    """Run ``python -m rho_bounds <argv>`` under launch.py and wait for it.

    Wall time runs from spawn to reaping; CPU time and peak RSS cover the
    CLI and every descendant it waited for (its pool workers).
    """
    env = dict(os.environ)
    env.pop("RHO_BOUNDS_JOBS", None)
    env["PYTHONPATH"] = str(SRC)
    out_path, report_path = workdir / "stdout", workdir / "launch.json"
    report_path.unlink(missing_ok=True)
    timed_out = False
    with open(out_path, "wb") as out, open(workdir / "stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py"), str(report_path),
             sys.executable, "-m", "rho_bounds", *argv],
            stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True,
        )
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            timed_out = True
        finally:
            if proc.returncode is None:
                with suppress(ProcessLookupError):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    if timed_out or proc.returncode != 0:
        return CliRun(argv, proc.returncode, timeout, 0.0, 0.0, timed_out,
                      out_path.read_bytes())
    report = json.loads(report_path.read_text())
    return CliRun(argv, report["code"], report["wall_s"], report["cpu_s"],
                  report["rss_kib"] / 1024.0, False, out_path.read_bytes())


def check_run(w: Workload, run: CliRun, ref: Reference) -> tuple[str, ...]:
    """Why a CLI run failed: exit code, count, violations, digest, timeout."""
    problems = []
    if run.timed_out:
        problems.append("timed out")
    if run.code != 0:
        problems.append(f"exit code {run.code}")
    data = run.stdout
    if w.output == "csv":
        checked = data.count(b"\n") - 1
        digest = hashlib.sha256(data).hexdigest()
    else:
        head = data[:len(ref.report)]
        digest = hashlib.sha256(head).hexdigest()
        try:
            summary = json.loads(b"{" + data[len(ref.report):])
        except ValueError:
            summary = {}
        checked = summary.get("graphs_checked")
        if summary.get("violations") != []:
            problems.append(f"violations: {summary.get('violations')!r:.200}")
        if summary.get("skipped_disconnected") != 0:
            problems.append("disconnected graphs in the corpus")
        if sorted(summary.get("tight_instances", {})) != sorted(w.checks):
            problems.append("tight_instances does not list the checks")
    if checked != ref.expected:
        problems.append(f"graphs_checked {checked} != {ref.expected}")
    if digest != ref.digest:
        problems.append(f"report digest {digest[:16]} != reference {ref.digest[:16]}")
    return tuple(problems)


def run_checked(w, argv, ref, workdir, timeout) -> CliRun:
    run = invoke(argv, workdir, timeout)
    run.problems = check_run(w, run, ref)
    return run


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> (value, unit)
    notes: list[str]        # human-readable extra lines
    record: dict            # written to the work directory


def measure_end_to_end(w: Workload, seed: int, seconds: float,
                       corrupt: str | None = None) -> Result:
    """Repeat the CLI campaign for about ``seconds``; report medians.

    Throughout, speed.Sampler times a fixed kernel on the program's cores,
    and a campaign run's wall and CPU times are scaled to reference host
    speed by the samples taken while it ran.  setup_s is not scaled: the
    set-up runs are shorter than the sampling period, and process start-up
    does not follow the kernel's speed.
    """
    import layers
    from spans import Tracer

    workdir = WORK / w.name
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = prepare(w, seed, workdir)
    rows = layers.examine(inputs.source, (), Tracer())
    problems = []
    if len(rows) != inputs.expected:
        problems.append(f"reference has {len(rows)} graphs, expected {inputs.expected}")
    ref = _corrupted(reference_for(w, rows, inputs.expected), corrupt)
    empty_ref = reference_for(w, [], 0)

    invoke(inputs.empty_argv, workdir, SETUP_TIMEOUT_S)  # fills __pycache__
    setups: list[CliRun] = []
    mains: list[tuple[CliRun, float]] = []   # run, speed.Sampler.slowdown while it ran
    deadline = time.perf_counter() + seconds
    with speed.Sampler() as sampler:
        for _ in range(SETUP_RUNS_FIRST - 1):
            setups.append(run_checked(w, inputs.empty_argv, empty_ref, workdir, SETUP_TIMEOUT_S))
        while True:
            setups.append(run_checked(w, inputs.empty_argv, empty_ref, workdir, SETUP_TIMEOUT_S))
            started = time.perf_counter()
            run = run_checked(w, inputs.argv, ref, workdir, MAIN_TIMEOUT_S)
            mains.append((run, sampler.slowdown(started, time.perf_counter())))
            if len(mains) >= MIN_MAIN_RUNS and time.perf_counter() + run.wall_s >= deadline:
                break

    digests = {hashlib.sha256(r.stdout).hexdigest() for r, _ in mains}
    if len(digests) > 1:
        problems.append(f"{len(digests)} different reports across runs")
    good = [(r, k) for r, k in mains if not r.problems] or mains
    graphs = inputs.expected
    metrics = {
        "graphs_per_s": (statistics.median([graphs * k / r.wall_s for r, k in good]), "1/s"),
        "cpu_s_per_kgraph":
            (statistics.median([r.cpu_s / k * 1000.0 / graphs for r, k in good]), "s"),
        "setup_s": (statistics.median([r.wall_s for r in setups]), "s"),
        "peak_rss_mib": (statistics.median([r.rss_mib for r, _ in good]), "MiB"),
    }
    runs = setups + [r for r, _ in mains]
    samples = [took for _, took in sampler.samples]
    failed = sum(1 for r in runs if r.problems)
    notes = [
        f"failed_share {failed / len(runs)!r} ({failed} of {len(runs)} CLI runs)",
        f"samples: {len(mains)} campaign runs, {len(setups)} set-up runs",
        "graphs_per_s and cpu_s_per_kgraph are scaled to reference host speed; "
        f"unscaled medians {statistics.median([graphs / r.wall_s for r, _ in good]):.1f} "
        f"and {statistics.median([r.cpu_s * 1000.0 / graphs for r, _ in good]):.4f}",
        "campaign runs, graphs_per_s unscaled/scaled: " + " ".join(
            f"{graphs / r.wall_s:.1f}/{graphs * k / r.wall_s:.1f}" for r, k in good),
        f"kernel samples: {len(samples)}, ms min {min(samples) * 1e3:.2f} median "
        f"{statistics.median(samples) * 1e3:.2f} max {max(samples) * 1e3:.2f} "
        f"(reference {speed.REFERENCE_UNIT_S * 1e3:.2f})",
    ]
    for r in runs:
        for p in r.problems:
            notes.append(f"FAILED {' '.join(r.argv[:3])}: {p}")
    notes.extend(f"FAILED: {p}" for p in problems)
    record = {
        "runs": [
            {"argv": r.argv, "code": r.code, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
             "rss_mib": r.rss_mib, "problems": list(r.problems)}
            for r in runs
        ],
        "kernel_samples": sampler.samples,
        "slowdowns": [k for _, k in mains],
    }
    return Result(not problems and failed == 0, len(runs), failed + len(problems),
                  metrics, notes, record)


def _corrupted(ref: Reference, corrupt: str | None) -> Reference:
    """Test hook: spoil the reference so every check against it fails."""
    if corrupt == "digest":
        return replace(ref, digest="0" * 64)
    if corrupt == "count":
        return replace(ref, expected=ref.expected + 1)
    return ref


@contextmanager
def count_pool_tasks(counter: list[int]):
    """Count the tasks handed to any multiprocessing pool in this process."""
    from multiprocessing import pool

    names = ("map", "imap", "imap_unordered", "starmap")
    originals = {name: getattr(pool.Pool, name) for name in names}

    def counting(original):
        def method(self, func, iterable, *args, **kwargs):
            def items():
                for item in iterable:
                    counter[0] += 1
                    yield item
            return original(self, func, items(), *args, **kwargs)
        return method

    for name, original in originals.items():
        setattr(pool.Pool, name, counting(original))
    try:
        yield
    finally:
        for name, original in originals.items():
            setattr(pool.Pool, name, original)


def _cpu_now() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _rho_column(w: Workload, data: bytes) -> list[float]:
    if w.output == "csv":
        reader = csv.reader(io.StringIO(data.decode("ascii")))
        next(reader)
        return [float(rec[RHO]) for rec in reader]
    return [row["rho"] for row in json.loads(data)["rows"]]


@dataclass
class TracedPass:
    tracer: object          # spans.Tracer
    rows: list[tuple]
    traced_wall: float      # the traced replay, seconds
    campaign_wall: float    # the untraced in-process run_campaign
    campaign_cpu: float
    tasks: int              # tasks handed to a pool by run_campaign
    problems: list[str]


def traced_pass(w: Workload, inputs: Inputs, workdir: Path) -> TracedPass:
    """One traced replay, then one untraced in-process campaign."""
    import layers
    from rho_bounds import CampaignConfig, run_campaign
    from spans import Tracer

    tr = Tracer()
    started = time.perf_counter()
    rows = layers.examine(inputs.source, w.checks, tr)
    traced_wall = time.perf_counter() - started

    cfg = CampaignConfig(
        source="enumerate" if w.n is not None else "graph6",
        n=w.n,
        path=None if w.n is not None else str(workdir / "corpus.g6"),
        checks=w.checks,
        jobs=w.jobs,
    )
    tasks = [0]
    with count_pool_tasks(tasks):
        cpu0, wall0 = _cpu_now(), time.perf_counter()
        result = run_campaign(cfg, row_sink=None)
        campaign_wall = time.perf_counter() - wall0
        campaign_cpu = _cpu_now() - cpu0
    problems = []
    if len(rows) != inputs.expected:
        problems.append(f"traced run saw {len(rows)} graphs, expected {inputs.expected}")
    if result.graphs_checked != inputs.expected or result.violations:
        problems.append(
            f"in-process campaign: {result.graphs_checked} graphs, "
            f"{len(result.violations)} violations"
        )
    return TracedPass(tr, rows, traced_wall, campaign_wall, campaign_cpu, tasks[0], problems)


def layer_metrics(w: Workload, p: TracedPass, main: CliRun, setup_cpu: float) -> dict:
    import layers

    graphs = max(len(p.rows), 1)
    self_ns = {name: ns for name, (ns, _) in p.tracer.self_times().items()}
    counts = p.tracer.counts

    def us(name):
        return self_ns.get(name, 0) / 1e3 / graphs

    layer_s = sum(ns for name, ns in self_ns.items()
                  if name != layers.GRAPH and name not in layers.ROW_LAYERS) / 1e9
    row_s = sum(self_ns.get(name, 0) for name in layers.ROW_LAYERS) / 1e9
    masks = counts.get("masks_scanned", 0)
    return {
        "graph_core.enumerate_connected.us_per_graph": (us(layers.ENUMERATE), "us"),
        "graph_core.enumerate_connected.connected_share":
            (len(p.rows) / masks if masks else 0.0, "ratio"),
        "graph_core.parse_graph6.us_per_graph": (us(layers.PARSE), "us"),
        "graph_core.is_connected.us_per_graph": (us(layers.CONNECTED), "us"),
        "graph_core.encode_graph6.us_per_graph": (us(layers.ENCODE), "us"),
        "graph_core.degree_sequence.us_per_graph": (us(layers.DEGREES), "us"),
        "bounds.phi_sequence.us_per_graph": (us(layers.PHIS), "us"),
        "bounds.compare_step.us_per_graph": (us(layers.STEP), "us"),
        "bounds.bound_shu_wu.us_per_graph": (us(layers.SHU_WU), "us"),
        "equality.classify_equality.us_per_graph": (us(layers.CLASSIFY), "us"),
        "spectral_oracle.spectral_radius_power.us_per_graph": (us(layers.POWER), "us"),
        "spectral_oracle.spectral_radius_power.iterations_per_graph":
            (counts.get(layers.POWER, 0) / graphs, "count"),
        "spectral_oracle.spectral_radius_power.iterations_max":
            (counts.get("power_iterations_max", 0), "count"),
        "spectral_oracle.characteristic_polynomial.us_per_graph": (us(layers.CHARPOLY), "us"),
        "spectral_oracle.largest_real_root.us_per_graph": (us(layers.ROOT_ISOLATION), "us"),
        "spectral_oracle.largest_real_root.iterations_per_graph":
            (counts.get(layers.ROOT_ISOLATION, 0) / graphs, "count"),
        "proof_replay.row_sums_scaled.us_per_graph": (us(layers.REPLAY), "us"),
        "proof_replay.row_sums_scaled.calls_per_graph":
            (counts.get(layers.REPLAY, 0) / graphs, "count"),
        "harness.tasks": (p.tasks, "count"),
        "harness.parallel_share": (p.campaign_cpu / (w.jobs * p.campaign_wall), "ratio"),
        "harness.overhead_s": (p.campaign_cpu - layer_s, "s"),
        "cli.report_bytes": (len(main.stdout), "bytes"),
        "cli.report_s": (main.cpu_s - setup_cpu - p.campaign_cpu, "s"),
        "trace.overhead_share": ((p.traced_wall - row_s) / p.campaign_cpu, "ratio"),
    }


def measure_layers(w: Workload, seed: int, seconds: float,
                   corrupt: str | None = None) -> Result:
    """Traced replays of the per-graph calls, each followed by an untraced
    in-process campaign, repeated for about ``seconds``; one CLI run is
    checked against the first replay.  Metrics are medians over the passes."""
    workdir = WORK / w.name
    workdir.mkdir(parents=True, exist_ok=True)
    inputs = prepare(w, seed, workdir)
    deadline = time.perf_counter() + seconds
    first = traced_pass(w, inputs, workdir)
    passes = [first]
    problems = list(first.problems)
    ref = _corrupted(reference_for(w, first.rows, inputs.expected), corrupt)
    empty_ref = reference_for(w, [], 0)

    invoke(inputs.empty_argv, workdir, SETUP_TIMEOUT_S)  # fills __pycache__
    setups = [run_checked(w, inputs.empty_argv, empty_ref, workdir, SETUP_TIMEOUT_S)
              for _ in range(TRACE_SETUP_RUNS)]
    main = run_checked(w, inputs.argv, ref, workdir, MAIN_TIMEOUT_S)
    if main.code == 0 and not main.timed_out:
        try:
            cli_rho = _rho_column(w, main.stdout)
        except (ValueError, KeyError, IndexError, StopIteration) as exc:
            cli_rho = []
            problems.append(f"report unreadable: {exc}")
        traced_rho = [row[RHO] for row in first.rows]
        if cli_rho != traced_rho:
            bad = next((i for i, (a, b) in enumerate(zip(cli_rho, traced_rho)) if a != b),
                       min(len(cli_rho), len(traced_rho)))
            problems.append(f"traced rho differs from the report's rho at row {bad + 1}")

    while time.perf_counter() + passes[-1].traced_wall + passes[-1].campaign_wall < deadline:
        p = traced_pass(w, inputs, workdir)
        problems.extend(p.problems)
        if p.rows != first.rows:
            problems.append("traced replays disagree")
        passes.append(p)

    setup_cpu = statistics.median([r.cpu_s for r in setups])
    per_pass = [layer_metrics(w, p, main, setup_cpu) for p in passes]
    m = {name: (statistics.median([pm[name][0] for pm in per_pass]), unit)
         for name, (_, unit) in per_pass[0].items()}

    runs = setups + [main]
    failed = sum(1 for r in runs if r.problems)
    last = passes[-1]
    notes = [
        f"failed_share {failed / len(runs)!r} ({failed} of {len(runs)} CLI runs)",
        f"samples: {len(passes)} traced passes, each with an in-process campaign",
        "harness.overhead_s is estimated: CPU seconds of the untraced in-process "
        "run_campaign(row_sink=None) minus the traced layers' self time",
        "last pass: in-process campaign "
        f"{last.campaign_wall:.3f} s wall, {last.campaign_cpu:.3f} s CPU; "
        f"traced replay {last.traced_wall:.3f} s wall",
        "last pass, self time by layer (s, spans, calls or iterations):",
    ]
    counts = last.tracer.counts
    self_times = last.tracer.self_times()
    for name, (ns, spans) in sorted(self_times.items(), key=lambda kv: -kv[1][0]):
        notes.append(f"  {name:45s} {ns / 1e9:10.4f} {spans:8d} {counts.get(name, spans):10d}")
    for r in runs:
        for p in r.problems:
            notes.append(f"FAILED {' '.join(r.argv[:3])}: {p}")
    notes.extend(f"FAILED: {p}" for p in problems)
    spans_path = WORK / f"{w.name}-spans.tsv"
    last.tracer.write(spans_path)
    record = {
        "spans": str(spans_path.relative_to(ROOT)),
        "passes": [{name: value for name, (value, _) in pm.items()} for pm in per_pass],
        "self_s": {name: ns / 1e9 for name, (ns, _) in self_times.items()},
        "counts": counts,
    }
    return Result(not problems and failed == 0, len(runs), failed + len(problems),
                  m, notes, record)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def workload(name: str, smoke: bool) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **SMOKE[name]) if smoke else w


def run_one(w: Workload, seed: int, seconds: float, trace: bool, out=sys.stdout,
            corrupt: str | None = None) -> Result:
    with speed.workload_cpus(w.jobs):
        env_start = environment()
        if trace:
            result = measure_layers(w, seed, seconds, corrupt)
        else:
            result = measure_end_to_end(w, seed, seconds, corrupt)
        env = dict(env_start, loadavg_1m_end=_loadavg_1m(), kernel_ms_end=speed.probe_s() * 1e3)
    print(f"# perfbench workload={w.name} seed={seed} trace={int(trace)}", file=out)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()), file=out)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}", file=out)
    for line in result.notes:
        print(line, file=out)
    record = dict(result.record, workload=w.name, seed=seed, trace=int(trace), env=env,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()})
    path = WORK / f"{w.name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result


def result_line(result: Result) -> str:
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
    })


def manifest() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in both modes and write BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if (args.workload is None) == (not args.all):
        parser.error("give exactly one of --workload or --all")
    if not (SRC / "rho_bounds" / "__init__.py").is_file():
        print(f"error: no rho_bounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    # turn SIGTERM into SystemExit, so a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not args.all:
        result = run_one(workload(args.workload, args.smoke), args.seed, args.seconds,
                         bool(args.trace))
        print(result_line(result))
        return 0 if result.correct else 1

    correct = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_one(workload(name, args.smoke), args.seed, args.seconds, trace)
            print(result_line(result))
            correct &= result.correct
    (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
