"""DualTable wall-clock benchmark: one closed-loop client over HiveSession.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dml_churn --seed 1 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 40

One run builds the workload's table from ``--seed`` (five times; the
median is ``setup_s``), then sends seeded statements to
``HiveSession.execute`` one after another for ``--seconds`` and at
least the workload's identity window, checking every result against a
NumPy model of the table.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` runs the identity window twice from fresh
set-ups, untraced and then traced, checks that both give the same
simulated clock and ledger, and reports per-layer metrics; the spans
go to ``perfbench/out/`` as a Chrome trace.  ``--all`` runs every
workload in both modes, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give every metric with its unit and sample count, and the
environment the numbers come from.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED_ENV = ("REPRO_ENGINE", "REPRO_MERGE", "REPRO_BATCH_ROWS")
SETUPS = 5
#: Clock of every reported duration: the CPU time of this process.  The
#: program runs single-threaded and in memory (no I/O, no sleeps), so
#: on an idle core a statement's CPU time is its wall time; on a shared
#: virtual machine it leaves out the time the host runs other guests,
#: which wall time includes and which can double a statement's latency.
#: Wall-clock latencies are printed beside it for reference.
CLOCK = time.process_time
#: CPU time of one :func:`speed_probe` on the reference machine (a
#: 2-core VM, Python 3.11.7, quiet).  Durations are reported at that
#: speed; see :class:`Speed`.
REFERENCE_PROBE_MS = 1.8
#: CPU seconds of work between two speed probes, and how many recent
#: probes set the current speed.
PROBE_EVERY_S = 0.1
PROBE_WINDOW = 7


class BenchError(Exception):
    """The benchmark cannot run here; nothing is measured."""


def load_program():
    """Import the program from ``src/``; refuse non-default overrides."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError("no program at %s (run from a checkout of the "
                         "repository)" % SRC)
    overridden = [name for name in PINNED_ENV if os.environ.get(name)]
    if overridden:
        raise BenchError("unset %s: the benchmark measures the default "
                         "production path" % ", ".join(overridden))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


# ----------------------------------------------------------------------
# Measurement.
# ----------------------------------------------------------------------
def speed_probe():
    """CPU milliseconds of a fixed piece of pure-Python work.

    Tuple building, dict folding and a keyed sort, like the engine's
    inner loops.  GC is off inside, so the probe measures interpreter
    speed, not the heap it runs next to.
    """
    gc.disable()
    try:
        started = CLOCK()
        rows = [(i, i * 7 % 13, "g%d" % (i % 5), i / 8.0)
                for i in range(3000)]
        sums = {}
        for row in rows:
            sums[row[2]] = sums.get(row[2], 0) + row[1]
        sorted(rows, key=lambda row: (row[1], row[0]))
        return (CLOCK() - started) * 1000.0
    finally:
        gc.enable()


class Speed:
    """How fast this machine runs Python right now, from speed probes.

    On a shared machine the CPU time of the same work moves by up to
    half within minutes (other guests share caches and cores).  Every
    reported duration is multiplied by :attr:`scale`: the reference
    probe time over the median of the last ``PROBE_WINDOW`` probes, so
    work done at a slow or a fast moment reports the same numbers.  The
    raw, unscaled values are printed as well.
    """

    def __init__(self):
        self.samples = []
        self.scale = 1.0
        self._next = 0.0

    def probe(self):
        self.samples.append(speed_probe())
        self.scale = REFERENCE_PROBE_MS / statistics.median(
            self.samples[-PROBE_WINDOW:])
        self._next = CLOCK() + PROBE_EVERY_S

    def maybe_probe(self):
        if CLOCK() >= self._next:
            self.probe()


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] \
        if len(values) > 1 else values[0]


class Phase:
    """One closed-loop pass of a statement stream over a set-up table."""

    def __init__(self, workload, seed, session, model, speed):
        self.workload = workload
        self.speed = speed
        self.session = session
        self.model = model
        self.stream = workload.stream(seed, model)
        self.latency = {}            # class -> [scaled CPU ms]
        self.cpu = {}                # class -> [CPU ms]
        self.wall = {}               # class -> [wall ms]
        self.plans = {}              # class -> {plan: count}
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.errors = []
        self.busy_s = 0.0            # scaled CPU time inside execute()
        self.sim_s = 0.0
        self.affected = 0
        self.window = None           # identity-window snapshot

    def run(self, seconds, recorder=None):
        """Execute until ``seconds`` passed and the window is complete."""
        window = self.workload.window
        started = time.perf_counter()
        while (self.attempted < window
               or time.perf_counter() - started < seconds):
            self.speed.maybe_probe()
            self.step(recorder)
            if self.attempted == window:
                self.window = self.snapshot()

    def step(self, recorder):
        stmt = next(self.stream)
        self.attempted += 1
        if recorder is not None:
            recorder.stmt = self.attempted
        wall0, t0 = time.perf_counter(), CLOCK()
        try:
            result = self.session.execute(stmt.sql)
        except Exception as exc:   # a statement the program failed
            self.busy_s += (CLOCK() - t0) * self.speed.scale
            self.failed += 1
            self.errors.append("%s: %s: %s" % (stmt.sql,
                                               type(exc).__name__, exc))
            return
        elapsed = CLOCK() - t0
        wall = time.perf_counter() - wall0
        self.busy_s += elapsed * self.speed.scale
        self.latency.setdefault(stmt.cls, []).append(
            elapsed * self.speed.scale * 1000.0)
        self.cpu.setdefault(stmt.cls, []).append(elapsed * 1000.0)
        self.wall.setdefault(stmt.cls, []).append(wall * 1000.0)
        plans = self.plans.setdefault(stmt.cls, {})
        plans[result.plan] = plans.get(result.plan, 0) + 1
        if self.attempted <= self.workload.window:
            self.sim_s += result.sim_seconds
        if stmt.cls == "dml":
            self.affected += result.affected or 0
        problem = stmt.check(result)
        if problem:
            self.mismatches.append("%s: %s" % (stmt.sql, problem))
        if stmt.apply is not None:
            stmt.apply()

    def snapshot(self):
        """sim_s, bytes/row and the ledger fingerprint at the window."""
        from repro.shard.identity import ledger_identity_view

        handler = self.session.table("t").handler
        view = ledger_identity_view(self.session.cluster.ledger.snapshot())
        view = {field: ({"/".join(key): value
                         for key, value in sorted(entries.items())}
                        if isinstance(entries, dict) else entries)
                for field, entries in view.items()}
        text = json.dumps({"sim_s": repr(self.sim_s), "ledger": view},
                          sort_keys=True)
        return {"sim_s": self.sim_s,
                "bytes_per_row": handler.data_bytes() / self.model.live_rows,
                "fingerprint": hashlib.sha256(text.encode()).hexdigest(),
                # High-water mark after the set-ups and the window: the
                # same work on every run, however fast the machine is.
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def timed_setup(workload, seed, speed):
    """A set-up and its scaled CPU seconds."""
    for _ in range(3):
        speed.probe()
    started = CLOCK()
    session, model = workload.setup(seed)
    gc.collect()
    return session, model, (CLOCK() - started) * speed.scale


def environment(session):
    return {"engine": session.engine, "merge": session.merge_mode,
            "batch_rows": session.batch_rows,
            "workers": session.cluster.profile.workers,
            "orc_cache_bytes": session.cluster.profile.orc_cache_bytes,
            "delta_cache_bytes": session.cluster.profile.delta_cache_bytes,
            "python": platform.python_version(),
            "nproc": os.cpu_count()}


def sizes(session):
    handler = session.table("t").handler
    return {"master_bytes": handler.master.data_bytes(),
            "attached_bytes": handler.attached.size_bytes,
            "master_files": len(handler.master.file_paths())}


def code_digest():
    """Digest of the program and the benchmark, keying stored identities."""
    digest = hashlib.sha256()
    for base in (SRC / "repro", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_stored_identity(workload, seed, fingerprint):
    """Compare with an earlier run of this seed and code, else record."""
    path = OUT / "identity" / ("%s-seed%d-%s.txt"
                               % (workload.name, seed, code_digest()))
    if path.exists():
        return path.read_text().strip() == fingerprint
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(fingerprint + "\n")
    return True


def run_end_to_end(workload, seed, seconds):
    speed = Speed()
    setup_times = []
    session = model = None
    for _ in range(SETUPS):
        session = model = None
        gc.collect()
        session, model, elapsed = timed_setup(workload, seed, speed)
        setup_times.append(elapsed)
    env, size = environment(session), sizes(session)
    if workload.name == "scan_analytics" \
            and size["master_bytes"] < 4 * env["orc_cache_bytes"]:
        raise BenchError("master (%d B) is not 4x the ORC cache (%d B)"
                         % (size["master_bytes"], env["orc_cache_bytes"]))
    phase = Phase(workload, seed, session, model, speed)
    phase.run(seconds)
    same_identity = check_stored_identity(workload, seed,
                                          phase.window["fingerprint"])
    lat = phase.latency
    focus = lat.get(workload.focus, [])
    reads = lat.get("read", [])
    metrics = [
        ("setup_s", statistics.median(setup_times), "s", SETUPS),
        ("stmts_per_s", phase.attempted / phase.busy_s, "1/s",
         phase.attempted),
        ("read_p50_ms", statistics.median(reads), "ms", len(reads)),
        ("read_p90_ms", percentile(reads, 90), "ms", len(reads)),
        ("focus_p50_ms", statistics.median(focus), "ms", len(focus)),
        ("focus_p90_ms", percentile(focus, 90), "ms", len(focus)),
        ("sim_s", phase.window["sim_s"], "s", workload.window),
        ("bytes_per_row", phase.window["bytes_per_row"], "B/row", 1),
        ("peak_rss_mb", phase.window["peak_rss_mb"], "MB", 1),
    ]
    # Every latency class under its own name (dml_, read_, point_...), with
    # sample counts (classes a workload does not send are absent), and
    # the raw CPU and wall p50 before speed scaling.
    detail = []
    for cls in ("dml", "read", "point", "agg", "compact"):
        values = lat.get(cls)
        if values:
            detail += [
                ("%s_p50_ms" % cls, statistics.median(values), "ms",
                 len(values)),
                ("%s_p90_ms" % cls, percentile(values, 90), "ms",
                 len(values)),
                ("%s_cpu_p50_ms" % cls, statistics.median(phase.cpu[cls]),
                 "ms", len(values)),
                ("%s_wall_p50_ms" % cls, statistics.median(phase.wall[cls]),
                 "ms", len(values))]
    detail += [
        ("fail_ratio", phase.failed / phase.attempted, "ratio",
         phase.attempted),
        ("speed_probe_ms", statistics.median(speed.samples), "ms",
         len(speed.samples)),
        ("speed_probe_p90_ms", percentile(speed.samples, 90), "ms",
         len(speed.samples))]
    report = {"workload": workload.name, "seed": seed, "trace": 0,
              "environment": env, "sizes": size, "plans": phase.plans,
              "setup_s": setup_times,
              "identity": {"fingerprint": phase.window["fingerprint"],
                           "matches_stored": same_identity},
              "mismatches": phase.mismatches[:20],
              "errors": phase.errors[:20]}
    correct = not phase.mismatches and same_identity
    return metrics, detail, report, correct, phase


def run_traced(workload, seed):
    from tracing import Recorder

    plain_speed, traced_speed = Speed(), Speed()
    session, model, _ = timed_setup(workload, seed, plain_speed)
    env, size = environment(session), sizes(session)
    plain = Phase(workload, seed, session, model, plain_speed)
    plain.run(0)
    session = model = None
    recorder = Recorder()
    recorder.install()
    try:
        session, model, _ = timed_setup(workload, seed, traced_speed)
        counters0 = dict(session.cluster.metrics.counters)
        ledger0 = session.cluster.ledger.snapshot()
        traced = Phase(workload, seed, session, model, traced_speed)
        recorder.active = True
        try:
            traced.run(0, recorder)
        finally:
            recorder.active = False
    finally:
        recorder.uninstall()
    counters = _delta(session.cluster.metrics.counters, counters0)
    ledger = session.cluster.ledger.diff(ledger0)["bytes"]
    metrics = layer_metrics(recorder, counters, ledger, traced.affected,
                            traced.busy_s / plain.busy_s)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / ("trace-%s-seed%d.json" % (workload.name, seed))
    trace_path.write_text(json.dumps(recorder.chrome_trace()))
    same_identity = (plain.window["fingerprint"]
                     == traced.window["fingerprint"])
    stored = check_stored_identity(workload, seed,
                                   plain.window["fingerprint"])
    report = {"workload": workload.name, "seed": seed, "trace": 1,
              "environment": env, "sizes": size,
              "identity": {"untraced": plain.window["fingerprint"],
                           "traced": traced.window["fingerprint"],
                           "sim_s": [plain.window["sim_s"],
                                     traced.window["sim_s"]],
                           "matches_stored": stored},
              "chrome_trace": str(trace_path.relative_to(ROOT)),
              "spans": len(recorder.spans),
              "mismatches": (plain.mismatches + traced.mismatches)[:20],
              "errors": (plain.errors + traced.errors)[:20]}
    correct = (same_identity and stored and not plain.mismatches
               and not traced.mismatches)
    phases = (plain, traced)
    return metrics, report, correct, phases


def _delta(after, before):
    return {name: value - before.get(name, 0)
            for name, value in after.items()}


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(recorder, counters, ledger, affected, overhead):
    """Per-layer metrics of one traced window, as (name, value, unit)."""
    totals = recorder.totals()

    def calls(name):
        return totals[name][0] if name in totals else 0

    def ms(name):
        return totals[name][1] / 1e6 if name in totals else 0.0

    def self_ms(*names):
        return sum(totals[n][2] for n in names if n in totals) / 1e6

    located = totals["handler.locate"][3] if "handler.locate" in totals else 0
    fast = counters.get("unionread.batches_fast", 0)
    merged = (counters.get("unionread.batches_overlay", 0)
              + counters.get("unionread.batches_row_fallback", 0))
    orc_hits = counters.get("cache.orc.hits", 0)
    orc_misses = counters.get("cache.orc.misses", 0)
    delta_hits = counters.get("cache.delta.hits", 0)
    delta_misses = counters.get("cache.delta.misses", 0)
    hdfs_written = ledger.get(("hdfs", "write"), 0) \
        + ledger.get(("hdfs", "replicate"), 0)
    hbase_written = ledger.get(("hbase", "write"), 0) \
        + ledger.get(("hbase", "compact"), 0)
    metric_events = sum(n for key, n in recorder.leaf_calls.items()
                        if key.startswith("MetricsRegistry."))
    return [
        ("parser.parse_ms", ms("parser.parse"), "ms"),
        ("parser.calls", calls("parser.parse"), "count"),
        ("session.self_ms", self_ms("session.execute"), "ms"),
        ("executor.self_ms", self_ms("executor.run", "task.select"), "ms"),
        ("executor.calls", calls("executor.run"), "count"),
        ("vexpr.compile_ms", ms("vexpr.compile"), "ms"),
        ("vexpr.compiles", calls("vexpr.compile"), "count"),
        ("handler.dml_self_ms", self_ms("handler.dml", "task.dml"), "ms"),
        ("handler.locate_ms", ms("handler.locate"), "ms"),
        ("handler.locate_rows", located, "count"),
        ("handler.locate_yield", _ratio(affected, located), "ratio"),
        ("handler.compact_ms", ms("handler.compact"), "ms"),
        ("handler.scan_splits_ms", ms("handler.scan_splits"), "ms"),
        ("union_read.overlay_ms", ms("union_read.overlay"), "ms"),
        ("union_read.builds", calls("union_read.build"), "count"),
        ("union_read.build_ms", ms("union_read.build"), "ms"),
        ("union_read.row_merge_ms", ms("union_read.row_merge"), "ms"),
        ("union_read.fast_batch_ratio", _ratio(fast, fast + merged),
         "ratio"),
        ("attached.puts", calls("attached.put"), "count"),
        ("attached.put_ms", ms("attached.put"), "ms"),
        ("attached.scan_file_ms", ms("attached.scan_file"), "ms"),
        ("attached.probe_ms", ms("attached.probe"), "ms"),
        ("lookup.calls", calls("lookup.run"), "count"),
        ("lookup.plan_ms", ms("lookup.plan"), "ms"),
        ("lookup.run_ms", ms("lookup.run"), "ms"),
        ("hbase.put_ms", ms("hbase.put"), "ms"),
        ("hbase.scan_ms", ms("hbase.scan"), "ms"),
        ("hbase.flushes", calls("hbase.flush"), "count"),
        ("hbase.compactions", calls("hbase.compact"), "count"),
        ("orc.open_ms", ms("orc.open"), "ms"),
        ("orc.decode_ms", ms("orc.decode"), "ms"),
        ("orc.stripes_read", recorder.stripes_read, "count"),
        ("orc.stripes_total", recorder.stripes_total, "count"),
        ("orc.write_ms", ms("orc.write"), "ms"),
        ("cache.orc.hit_ratio", _ratio(orc_hits, orc_hits + orc_misses),
         "ratio"),
        ("cache.orc.evictions", counters.get("cache.orc.evictions", 0),
         "count"),
        ("cache.delta.hit_ratio",
         _ratio(delta_hits, delta_hits + delta_misses), "ratio"),
        ("cache.delta.invalidations",
         counters.get("cache.delta.invalidations", 0), "count"),
        ("mapreduce.jobs", counters.get("mapreduce.jobs", 0), "count"),
        ("mapreduce.tasks", counters.get("mapreduce.tasks", 0), "count"),
        ("mapreduce.self_ms", self_ms("mapreduce.run"), "ms"),
        ("ledger.charges", recorder.leaf_calls["MetricsLedger.record"],
         "count"),
        ("ledger.record_ms", recorder.leaf_ns["ledger"] / 1e6, "ms"),
        ("metrics.events", metric_events, "count"),
        ("metrics.ms", recorder.leaf_ns["metrics"] / 1e6, "ms"),
        ("hdfs.bytes_read", ledger.get(("hdfs", "read"), 0), "B"),
        ("hdfs.bytes_written", hdfs_written, "B"),
        ("hbase.bytes_read", ledger.get(("hbase", "read"), 0)
         + ledger.get(("hbase", "scan"), 0), "B"),
        ("hbase.bytes_written", hbase_written, "B"),
        ("storage.bytes_written_per_row",
         _ratio(hdfs_written + hbase_written, affected), "B/row"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ]


# ----------------------------------------------------------------------
# Output.
# ----------------------------------------------------------------------
def print_table(title, rows):
    print(title)
    print("  %-30s %16s  %-6s %s" % ("metric", "value", "unit", "samples"))
    for row in rows:
        name, value, unit = row[:3]
        samples = row[3] if len(row) > 3 else ""
        print("  %-30s %16.6g  %-6s %s" % (name, value, unit, samples))


def run_one(args):
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, report, correct, phases = run_traced(workload, args.seed)
        attempted = sum(p.attempted for p in phases)
        failed = sum(p.failed for p in phases)
        print_table("per-layer metrics (%s, seed %d, traced window of %d "
                    "statements)" % (workload.name, args.seed,
                                     workload.window), metrics)
    else:
        metrics, detail, report, correct, phase = run_end_to_end(
            workload, args.seed, args.seconds)
        attempted, failed = phase.attempted, phase.failed
        print_table("end-to-end metrics (%s, seed %d, %d statements, "
                    "focus class %r)" % (workload.name, args.seed,
                                         attempted, workload.focus),
                    metrics)
        print_table("latency by statement class", detail)
    report["correct"] = correct
    print("environment: %s" % json.dumps(report["environment"],
                                         sort_keys=True))
    print("sizes: %s" % json.dumps(report["sizes"], sort_keys=True))
    for problem in report["mismatches"] + report["errors"]:
        print("problem: %s" % problem)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / ("result-%s-seed%d-trace%d.json"
            % (workload.name, args.seed, args.trace))).write_text(
        json.dumps(dict(report, metrics=[list(m) for m in metrics]),
                   indent=1, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, *_ in metrics}}))


def run_all(args):
    """Every workload, untraced then traced, one process per run."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__)), "--workload",
                       name, "--seed", str(args.seed), "--seconds",
                       str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, stdout=subprocess.PIPE,
                                  text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1]) if lines else {}
            if done.returncode or not result.get("correct"):
                status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="DualTable wall-clock benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        load_program()
        from workloads import WORKLOADS
        if args.all:
            return run_all(args)
        if args.workload not in WORKLOADS:
            raise BenchError("--workload must be one of %s"
                             % ", ".join(WORKLOADS))
        run_one(args)
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
