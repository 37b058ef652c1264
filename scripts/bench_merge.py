#!/usr/bin/env python
"""Delta-merge accelerator benchmark: overlay vs row merge on dirty scans.

Two phases over the Zipf-skewed update-heavy scenario
(:func:`repro.workloads.scenarios.build_zipf_update_scenario`):

* **identity** — the same seeded workload replayed across executors
  row/vectorized x shards 1/4 must produce identical rows, ledger
  bytes/ops (seconds to the identity grain), merge stats and non-cache
  counters.  Attribution: every dirty merge unit is counted in
  ``unionread.batches_overlay`` (no other ``unionread.batches_*``
  counter exists beside ``batches_fast``), and the fast + dirty unit sum
  is the same in every configuration.  ``row`` is the reference row
  executor in ``tests/oracle/row_engine.py``, installed on its session.
* **wall-clock** — full scans of an update-heavy DualTable on the
  production executor: the overlay merge must land within
  ``--max-dirty-ratio`` (default 1.10x) of the zero-delta fast path on a
  compacted twin of the same data, and beat the row-fallback merge by at
  least ``--min-speedup`` (default 1.15x).  The row merge is the
  reference one in ``tests/oracle/row_merge.py``, installed on the same
  table for its timed scans.  Rows and simulated seconds are asserted
  byte-identical between the two merges inline.

Usage::

    PYTHONPATH=src python scripts/bench_merge.py [--check] [--quick]
        [--rows N] [--repeat N] [--identity-rows N]
        [--max-dirty-ratio 1.10] [--min-speedup 1.15]
        [--out BENCH_merge.json]

Exits non-zero if ``--check`` and any gate fails.
"""

import argparse
import contextlib
import gc
import json
import os
import sys
import time

from repro.cluster import ClusterProfile
from repro.hive import HiveSession
from repro.shard.identity import counter_identity_view, ledger_identity_view
from repro.workloads.scenarios import build_zipf_update_scenario

# The reference row merge and row executor live with the tests, at the
# repository root.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from tests.oracle import row_engine  # noqa: E402
from tests.oracle.row_merge import installed  # noqa: E402

#: the merge-unit counters: units the fast path streamed through, and
#: dirty units the overlay patched.
MERGE_UNIT_COUNTERS = ("unionread.batches_fast",
                       "unionread.batches_overlay")


def sharded_ddl(table, shards, rows_per_file, stripe_rows):
    return ("CREATE TABLE %s (k int, grp string, v int, w double) "
            "PRIMARY KEY (k) STORED AS dualtable SHARDED BY (k) INTO %d "
            "TBLPROPERTIES ('dualtable.mode' = 'edit', "
            "'orc.rows_per_file' = '%d', 'orc.stripe_rows' = '%d')"
            % (table, shards, rows_per_file, stripe_rows))


# ----------------------------------------------------------------------
# Phase 1: executor / shards identity.
# ----------------------------------------------------------------------
def run_identity_config(engine, shards, rows):
    session = row_engine.use(HiveSession(profile=ClusterProfile.laptop()),
                             engine)
    scenario = build_zipf_update_scenario(
        rows=rows, updates=6, deletes=2, scans=3, keys_per_stmt=12,
        dirty_fraction=0.4, seed=29)
    session.execute(sharded_ddl(scenario["table"], shards,
                                rows_per_file=max(10, rows // 8),
                                stripe_rows=max(5, rows // 24)))
    session.load_rows(scenario["table"], scenario["rows"])
    transcript = []
    for _, sql in scenario["statements"]:
        result = session.execute(sql)
        transcript.append((sql, result.rows))
    final = session.execute(
        "SELECT k, grp, v, w FROM %s" % scenario["table"])
    transcript.append(("final-scan", sorted(final.rows)))
    counters = dict(counter_identity_view(session.cluster.metrics.counters))
    units = sorted(name for name in counters
                   if name.startswith("unionread.batches_")
                   and name.count(".") == 1)
    shared = (transcript,
              ledger_identity_view(session.cluster.ledger.snapshot()),
              counters,
              sum(counters.get(name, 0) for name in MERGE_UNIT_COUNTERS))
    return shared, units


def identity_phase(args, failures):
    configs = [(engine, shards)
               for engine in ("row", "vectorized")
               for shards in (1, 4)]
    start = time.perf_counter()
    baseline, _ = run_identity_config(*configs[0],
                                      rows=args.identity_rows)
    checked = []
    for config in configs:
        got, units = run_identity_config(*config, rows=args.identity_rows)
        parts = [label for label, a, b
                 in zip(("rows", "ledger", "counters", "merge_units"),
                        baseline, got)
                 if a != b]
        # Every dirty unit is the overlay's: no other unit counter.
        if units != sorted(MERGE_UNIT_COUNTERS):
            parts.append("attribution")
        ok = not parts
        if not ok:
            failures.append(
                "identity broken at engine=%s shards=%d: "
                "%s differ" % (*config, ", ".join(parts)))
        checked.append({"engine": config[0], "shards": config[1],
                        "identical": ok})
        print("identity engine=%-10s shards=%d %s"
              % (*config, "OK" if ok else "MISMATCH"))
    return {"configs": checked,
            "statements": 11,
            "merge_units": baseline[3],
            "wall_s": round(time.perf_counter() - start, 3)}


# ----------------------------------------------------------------------
# Phase 2: wall-clock — overlay vs fast path vs row merge.
# ----------------------------------------------------------------------
def build_wallclock_session(rows):
    """One session with the dirty scenario table + a compacted twin."""
    session = HiveSession(profile=ClusterProfile.laptop())
    for table in ("zipf_updates", "zipf_clean"):
        scenario = build_zipf_update_scenario(rows=rows, table=table)
        session.execute(scenario["ddl"])
        session.load_rows(table, scenario["rows"])
        for kind, sql in scenario["statements"]:
            if kind != "scan":     # scans are what gets *timed* below
                session.execute(sql)
    session.execute("COMPACT TABLE zipf_clean")
    return session


#: back-to-back executions of each query per round; a query's sample
#: is its mean wall time over one round's burst.
BURST = 10


def time_interleaved(session, queries, repeat):
    """Best-of-``repeat`` wall times, measured in interleaved rounds.

    ``queries`` is ``[(name, row_merge, sql), ...]``; ``row_merge`` names
    the table whose reads the reference row merge takes over for that
    query, or None for the production overlay.  Each round (GC paused)
    runs the queries in turn :data:`BURST` times, rotating which one goes
    first, and a query's sample is its mean wall time over the round.
    The host's speed drifts in plateaus of a few hundred milliseconds,
    and one ~10 ms execution can land in a fast plateau the other
    queries never sample; averaging over a round spent alternating puts
    every query through the same plateaus, and the rotation keeps any
    query from always following the same neighbour.
    Returns ``({name: result}, {name: best_wall})``; results come from
    the warmup pass (caches + overlay build) and are identical to the
    timed passes by the determinism contract.
    """
    results = {}
    best = {}

    def merge(row_merge):
        if row_merge is None:
            return contextlib.nullcontext()
        return installed(session.table(row_merge).handler)

    for name, row_merge, sql in queries:        # warmup pass
        with merge(row_merge):
            results[name] = session.execute(sql)
        best[name] = float("inf")
    for round_no in range(repeat):
        spent = dict.fromkeys(best, 0.0)
        # The runner keeps every job's outputs; drop them so the heap
        # stays the size of the tables however many rounds run.
        del session.runner.history[:]
        gc.collect()
        gc.disable()
        try:
            for rep in range(BURST):
                shift = (round_no + rep) % len(queries)
                for name, row_merge, sql in queries[shift:] + queries[:shift]:
                    with merge(row_merge):
                        started = time.perf_counter()
                        session.execute(sql)
                        spent[name] += time.perf_counter() - started
        finally:
            gc.enable()
        for name in best:
            best[name] = min(best[name], spent[name] / BURST)
    return results, best


def wallclock_phase(args, failures):
    start = time.perf_counter()
    print("building tables (%d rows)..." % args.rows)
    session = build_wallclock_session(args.rows)
    dirty_sql = "SELECT k, grp, v, w FROM zipf_updates"
    clean_sql = "SELECT k, grp, v, w FROM zipf_clean"

    results, best = time_interleaved(
        session,
        [("clean", None, clean_sql),
         ("overlay", None, dirty_sql),
         ("row", "zipf_updates", dirty_sql)],
        args.repeat)
    clean_result, clean_wall = results["clean"], best["clean"]
    overlay_result, overlay_wall = results["overlay"], best["overlay"]
    row_result, row_wall = results["row"], best["row"]

    if sorted(overlay_result.rows) != sorted(row_result.rows):
        failures.append("dirty-scan rows differ between the overlay and "
                        "the row merge")
    if round(overlay_result.sim_seconds, 9) \
            != round(row_result.sim_seconds, 9):
        failures.append(
            "dirty-scan simulated seconds differ between the overlay "
            "and the row merge (%.9f vs %.9f)"
            % (overlay_result.sim_seconds, row_result.sim_seconds))

    dirty_ratio = overlay_wall / clean_wall
    merge_speedup = row_wall / overlay_wall
    print("clean fast path   %8.4fs  (%s rows/s)"
          % (clean_wall, format(int(args.rows / clean_wall), ",")))
    print("dirty overlay     %8.4fs  ratio to clean %.3fx"
          % (overlay_wall, dirty_ratio))
    print("dirty row merge   %8.4fs  overlay speedup %.2fx"
          % (row_wall, merge_speedup))
    if args.check:
        if dirty_ratio > args.max_dirty_ratio:
            failures.append(
                "update-heavy overlay scan is %.3fx the zero-delta fast "
                "path (gate %.2fx)" % (dirty_ratio, args.max_dirty_ratio))
        if merge_speedup < args.min_speedup:
            failures.append(
                "overlay merge is only %.2fx faster than the row merge "
                "(gate %.2fx)" % (merge_speedup, args.min_speedup))
    return {"rows": args.rows, "repeat": args.repeat, "burst": BURST,
            "clean_wall_s": round(clean_wall, 6),
            "overlay_wall_s": round(overlay_wall, 6),
            "row_wall_s": round(row_wall, 6),
            "dirty_ratio": round(dirty_ratio, 4),
            "merge_speedup": round(merge_speedup, 4),
            "sim_seconds": round(overlay_result.sim_seconds, 6),
            "clean_rows": len(clean_result.rows),
            "dirty_rows": len(overlay_result.rows),
            "wall_s": round(time.perf_counter() - start, 3)}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Delta-merge accelerator identity / wall-clock "
                    "benchmark")
    parser.add_argument("--quick", action="store_true",
                        help="small data (CI smoke)")
    parser.add_argument("--rows", type=int, default=None,
                        help="wall-clock table rows (default 48000; "
                             "quick 24000)")
    parser.add_argument("--repeat", type=int, default=9,
                        help="timed rounds, best-of per query")
    parser.add_argument("--identity-rows", type=int, default=240)
    parser.add_argument("--max-dirty-ratio", type=float, default=1.10,
                        help="gate: overlay dirty scan vs clean fast "
                             "path")
    parser.add_argument("--min-speedup", type=float, default=1.15,
                        help="gate: row merge wall / overlay wall")
    parser.add_argument("--check", action="store_true",
                        help="enforce the identity and wall-clock gates")
    parser.add_argument("--out", default="BENCH_merge.json")
    args = parser.parse_args(argv)
    args.rows = args.rows or (24_000 if args.quick else 48_000)

    failures = []
    report = {
        "config": {"rows": args.rows, "repeat": args.repeat,
                   "identity_rows": args.identity_rows,
                   "max_dirty_ratio": args.max_dirty_ratio,
                   "min_speedup": args.min_speedup,
                   "quick": args.quick,
                   "python": sys.version.split()[0]},
        "identity": identity_phase(args, failures),
        "wallclock": wallclock_phase(args, failures),
        "contract": "rows, ledger bytes/ops, merge stats and non-cache "
                    "counters byte-identical across executors "
                    "row/vectorized x shards 1/4; every dirty merge unit "
                    "attributed to the overlay",
    }
    report["failures"] = failures
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % args.out)
    if failures:
        for failure in failures:
            print("FAIL:", failure, file=sys.stderr)
        return 1
    if args.check:
        print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
