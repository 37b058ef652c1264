#!/usr/bin/env python
"""Wall-clock benchmark: vectorized executor vs the row reference.

Times the same queries on one session twice: on the production
(``vectorized``) executor, and with the reference row executor of
``tests/oracle/row_engine.py`` installed (``row``).  Writes
``BENCH_vectorized.json`` with rows/sec and speedups.  The simulated
side of the contract is asserted inline: result rows and simulated
seconds must be byte-identical across the two executors (vectorization
buys wall clock only).

Benchmarked queries:

* ``scan``          — full projection of a plain ORC table,
* ``filtered_scan`` — the same table through a compound WHERE,
* ``aggregate``     — grouped count/sum/avg,
* ``union_read_clean`` — DualTable scan right after COMPACT (zero
  attached deltas: every batch takes the fast path),
* ``union_read_dirty`` — the same data with update deltas attached to
  every master file (every file's dirty batches go through the overlay),
* ``join``          — ``t_dirty`` joined to a 7-row dimension table on
  ``v`` (reduce-side join; the map side evaluates the join keys).

Usage::

    PYTHONPATH=src python scripts/bench_wallclock.py [--quick]
        [--rows N] [--repeat N] [--out BENCH_vectorized.json]
        [--expect-speedup 2.0]

``--expect-speedup`` makes the script exit non-zero unless vectorized
beats row by the given factor on scan and filtered_scan; leave it off
on noisy shared machines (CI uses --quick without it).
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

# The reference row executor lives with the tests, at the repository root.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))
from tests.oracle import row_engine  # noqa: E402

QUERIES = [
    ("scan", "SELECT k, grp, v, w FROM t_orc"),
    ("filtered_scan",
     "SELECT k, v FROM t_orc WHERE v < 4 AND grp = 'g1' AND w >= 0"),
    ("aggregate",
     "SELECT grp, count(*), sum(v), avg(w) FROM t_orc GROUP BY grp"),
    ("union_read_clean", "SELECT k, grp, v, w FROM t_clean"),
    ("union_read_dirty", "SELECT k, grp, v, w FROM t_dirty"),
    ("join", "SELECT t.k, d.label FROM t_dirty t JOIN d ON t.v = d.j"),
]


def build_session(rows):
    """One session with the four benchmark tables loaded.

    ``t_clean`` and ``t_dirty`` get identical spread UPDATEs (one thin
    slice per master file, so *every* file carries deltas); ``t_clean``
    is then compacted back to zero deltas.  ``d`` is the join's
    dimension table, one row per value of ``v``.
    """
    session = HiveSession(profile=ClusterProfile.laptop())
    rows_per_file = max(1000, rows // 16)
    stripe_rows = max(250, rows_per_file // 4)
    data = [(i, "g%d" % (i % 5), i % 7, i / 8.0) for i in range(rows)]

    session.execute(
        "CREATE TABLE t_orc (k int, grp string, v int, w double) "
        "STORED AS orc TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'orc.stripe_rows' = '%d')" % (rows_per_file, stripe_rows))
    session.load_rows("t_orc", data)

    for name in ("t_clean", "t_dirty"):
        # mode=edit forces the EDIT plan so UPDATEs persist as attached
        # deltas instead of being compiled away by the cost model.
        session.execute(
            "CREATE TABLE %s (k int, grp string, v int, w double) "
            "STORED AS dualtable TBLPROPERTIES ("
            "'dualtable.mode' = 'edit', 'orc.rows_per_file' = '%d', "
            "'orc.stripe_rows' = '%d')" % (name, rows_per_file, stripe_rows))
        session.load_rows(name, data)
        slice_rows = max(1, rows_per_file // 20)
        for lo in range(0, rows, rows_per_file):
            session.execute(
                "UPDATE %s SET v = 99 WHERE k >= %d AND k < %d"
                % (name, lo, lo + slice_rows))
    session.execute("COMPACT TABLE t_clean")
    session.execute("CREATE TABLE d (j int, label string) STORED AS orc")
    session.load_rows("d", [(j, "label-%d" % j) for j in range(7)])
    return session


def time_query(session, sql, repeat):
    """Best-of-``repeat`` wall time after one warmup run.

    The collector is drained before and paused during each timed run so
    a GC cycle triggered by one executor's garbage doesn't land in the
    other executor's measurement.
    """
    session.execute(sql)                       # warmup (caches, codegen)
    best_wall = float("inf")
    result = None
    for _ in range(repeat):
        gc.collect()
        gc.disable()
        try:
            started = time.perf_counter()
            result = session.execute(sql)
            best_wall = min(best_wall, time.perf_counter() - started)
        finally:
            gc.enable()
    return result, best_wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small data + fewer repeats (CI smoke)")
    parser.add_argument("--rows", type=int, default=None,
                        help="base table rows (default 48000; "
                             "quick 24000)")
    parser.add_argument("--repeat", type=int, default=None,
                        help="timed runs per query, best-of (default 5; "
                             "quick 3)")
    parser.add_argument("--out", default="BENCH_vectorized.json",
                        help="output JSON path")
    parser.add_argument("--expect-speedup", type=float, default=None,
                        metavar="X",
                        help="fail unless vectorized beats row by X on "
                             "scan and filtered_scan")
    args = parser.parse_args(argv)
    rows = args.rows or (24_000 if args.quick else 48_000)
    repeat = args.repeat or (3 if args.quick else 5)

    print("building tables (%d rows)..." % rows)
    session = build_session(rows)

    benchmarks = {}
    oracle = {}
    for engine in ("row", "vectorized"):
        executor = (row_engine.installed(session) if engine == "row"
                    else contextlib.nullcontext())
        with executor:
            for name, sql in QUERIES:
                result, wall = time_query(session, sql, repeat)
                stats = {"wall_s": round(wall, 6),
                         "rows_per_s": round(rows / wall, 1),
                         "sim_seconds": round(result.sim_seconds, 6)}
                benchmarks.setdefault(name, {"rows": rows})[engine] = stats
                print("%-18s %-10s wall=%8.4fs  %12s rows/s"
                      % (name, engine, wall,
                         format(int(rows / wall), ",")))
                # Simulated contract: rows and sim time match across
                # executors.
                key = (name, tuple(map(tuple, result.rows)),
                       stats["sim_seconds"])
                if name in oracle:
                    if oracle[name] != key:
                        print("FAIL: %s differs between executors "
                              "(simulated output must be identical)"
                              % name, file=sys.stderr)
                        return 1
                else:
                    oracle[name] = key

    for name, entry in benchmarks.items():
        entry["speedup"] = round(
            entry["row"]["wall_s"] / entry["vectorized"]["wall_s"], 2)
    fastpath = {
        "clean_wall_s": benchmarks["union_read_clean"]["vectorized"][
            "wall_s"],
        "dirty_wall_s": benchmarks["union_read_dirty"]["vectorized"][
            "wall_s"],
    }
    fastpath["gain"] = round(
        fastpath["dirty_wall_s"] / fastpath["clean_wall_s"], 2)

    doc = {
        "config": {"rows": rows, "repeat": repeat, "quick": args.quick,
                   "python": sys.version.split()[0]},
        "benchmarks": benchmarks,
        "fastpath": fastpath,
        "contract": "result rows and sim_seconds verified identical "
                    "across the vectorized and row executors for every "
                    "query",
    }
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("\nwrote %s" % args.out)
    for name, entry in benchmarks.items():
        print("  %-18s speedup %5.2fx" % (name, entry["speedup"]))
    print("  zero-delta fast-path gain (dirty/clean, vectorized): %.2fx"
          % fastpath["gain"])

    if args.expect_speedup is not None:
        for name in ("scan", "filtered_scan"):
            if benchmarks[name]["speedup"] < args.expect_speedup:
                print("FAIL: %s speedup %.2fx < expected %.2fx"
                      % (name, benchmarks[name]["speedup"],
                         args.expect_speedup), file=sys.stderr)
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
