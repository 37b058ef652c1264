"""Differential tests: overlay merge vs row merge (INTERNALS §14).

The overlay merge (:func:`repro.core.union_read_overlay`), the one UNION
READ of every production read, must be indistinguishable from the
reference row merges (:func:`repro.core.union_read_batches` and
:func:`repro.core.union_read_file`) in everything except wall-clock:
same yielded rows, same merge-stats dict, same charges and counters.
These tests drive the three implementations over hand-built adversarial
delta distributions and a seeded fuzz sweep at the unit level, then
replay the same SQL on two sessions, one with the row merge installed
(:mod:`tests.oracle.row_merge`).
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError
from repro.common.rng import make_rng
from repro.core import (build_overlay, union_read_batches, union_read_file,
                        union_read_overlay)
from repro.core.attached import DeltaRecord
from repro.core.record_id import encode_record_id
from repro.hive import HiveSession
from repro.vector import ColumnBatch
from tests.oracle import row_engine, row_merge

FILE_ID = 3
WIDTH = 3           # schema columns 0, 1, 2


def delta(deleted=False, updates=None):
    record = DeltaRecord()
    record.deleted = deleted
    if updates:
        record.updates.update(updates)
    return record


def items_for(entries):
    """Sorted ``(record_id, DeltaRecord)`` items from {row: delta}."""
    return [(encode_record_id(FILE_ID, row), entries[row])
            for row in sorted(entries)]


def cell(row, column):
    return row * 10 + column


def make_batches(spans, projection):
    """ColumnBatches over ``(first_row, num_rows)`` spans (projected)."""
    return [ColumnBatch([[cell(r, c) for r in range(first, first + n)]
                         for c in projection], n, row_base=first)
            for first, n in spans]


def run_all_paths(spans, entries, projection=(0, 1, 2)):
    """Rows + stats from the overlay, batch-fallback and row merges.

    Asserts the three implementations agree exactly before returning
    ``(rows, stats)`` — every test's core oracle.
    """
    items = items_for(entries)
    projection_map = {c: i for i, c in enumerate(projection)}
    overlay = build_overlay(items)

    o_stats, b_stats, r_stats = {}, {}, {}
    o_pairs = list(union_read_overlay(
        FILE_ID, iter(make_batches(spans, projection)), overlay,
        projection_map, stats=o_stats))
    o_batches = [batch for batch, _ in o_pairs]
    o_rows = [tuple(row) for batch in o_batches for row in batch.rows()]
    o_numbers = [n for batch, numbers in o_pairs for n in numbers]
    b_batches = list(union_read_batches(
        FILE_ID, iter(make_batches(spans, projection)), items,
        projection_map, stats=b_stats))
    b_rows = [tuple(row) for batch in b_batches for row in batch.rows()]
    orc_rows = [(r, tuple(cell(r, c) for c in projection))
                for first, n in spans for r in range(first, first + n)]
    r_merged = list(union_read_file(
        FILE_ID, iter(orc_rows), items, projection_map, stats=r_stats))
    r_rows = [values for _, values in r_merged]

    assert o_rows == b_rows == r_rows
    # The overlay's row numbers are exactly the row merge's record ids.
    assert [encode_record_id(FILE_ID, n) for n in o_numbers] == \
        [record_id for record_id, _ in r_merged]
    for batch, numbers in o_pairs:
        assert len(numbers) == len(batch)
        assert [numbers[i] for i in range(len(numbers))] == list(numbers)
    assert o_stats == b_stats == r_stats
    assert all(len(batch) > 0 for batch in o_batches + b_batches)
    return o_rows, o_stats


class TestAdversarialDistributions:
    def test_no_deltas_streams_through(self):
        rows, stats = run_all_paths([(0, 4), (4, 4)], {})
        assert len(rows) == 8
        assert stats == {"deltas_applied": 0, "rows_deleted": 0,
                         "deltas_skipped": 0, "trailing_deltas": 0}

    def test_every_row_in_batch_deleted(self):
        entries = {row: delta(deleted=True) for row in range(4, 8)}
        rows, stats = run_all_paths([(0, 4), (4, 4), (8, 4)], entries)
        assert [r[0] for r in rows] == [cell(r, 0) for r in
                                        (0, 1, 2, 3, 8, 9, 10, 11)]
        assert stats["rows_deleted"] == 4

    def test_whole_file_deleted(self):
        entries = {row: delta(deleted=True) for row in range(8)}
        rows, stats = run_all_paths([(0, 4), (4, 4)], entries)
        assert rows == []
        assert stats["rows_deleted"] == 8

    def test_delta_on_last_row_of_file(self):
        entries = {7: delta(updates={1: "last"})}
        rows, stats = run_all_paths([(0, 4), (4, 4)], entries)
        assert rows[-1] == (cell(7, 0), "last", cell(7, 2))
        assert stats["deltas_applied"] == 1

    def test_trailing_deltas_counted(self):
        entries = {5: delta(updates={0: "x"}),
                   20: delta(deleted=True),
                   21: delta(updates={1: "y"})}
        rows, stats = run_all_paths([(0, 4), (4, 4)], entries)
        assert stats["trailing_deltas"] == 2
        assert stats["deltas_applied"] == 1
        assert len(rows) == 8

    def test_pruned_stripe_gap_counts_skipped(self):
        # Stripe (4, 4) pruned away: its delta ids are passed over.
        entries = {5: delta(updates={0: "gone"}),
                   6: delta(deleted=True),
                   9: delta(updates={2: "kept"})}
        rows, stats = run_all_paths([(0, 4), (8, 4)], entries)
        assert stats["deltas_skipped"] == 2
        assert stats["deltas_applied"] == 1
        assert stats["rows_deleted"] == 0
        assert (cell(9, 0), cell(9, 1), "kept") in rows

    def test_deltas_straddling_batch_boundary(self):
        entries = {3: delta(updates={0: "a"}),
                   4: delta(updates={0: "b"}),
                   7: delta(deleted=True),
                   8: delta(deleted=True)}
        rows, stats = run_all_paths([(0, 4), (4, 4), (8, 4)], entries)
        assert stats == {"deltas_applied": 2, "rows_deleted": 2,
                         "deltas_skipped": 0, "trailing_deltas": 0}
        assert ("a", cell(3, 1), cell(3, 2)) in rows
        assert ("b", cell(4, 1), cell(4, 2)) in rows
        assert len(rows) == 10

    def test_noop_delta_changes_nothing_but_dirties_batch(self):
        rows, stats = run_all_paths([(0, 4)], {2: delta()})
        assert rows == [tuple(cell(r, c) for c in (0, 1, 2))
                        for r in range(4)]
        assert stats == {"deltas_applied": 0, "rows_deleted": 0,
                         "deltas_skipped": 0, "trailing_deltas": 0}

    def test_update_on_unprojected_column_still_counts(self):
        entries = {1: delta(updates={1: "invisible"})}
        rows, stats = run_all_paths([(0, 4)], entries, projection=(0, 2))
        assert rows[1] == (cell(1, 0), cell(1, 2))
        assert stats["deltas_applied"] == 1

    def test_delete_wins_over_update(self):
        record = delta(deleted=True, updates={0: "dead"})
        rows, stats = run_all_paths([(0, 4)], {1: record})
        assert len(rows) == 3
        assert stats["rows_deleted"] == 1
        assert stats["deltas_applied"] == 0

    def test_overlay_shares_untouched_columns_zero_copy(self):
        projection = (0, 1, 2)
        items = items_for({1: delta(updates={1: "patched"})})
        overlay = build_overlay(items)
        source = make_batches([(0, 4)], projection)
        out = [batch for batch, _ in union_read_overlay(
            FILE_ID, iter(source), overlay,
            {c: i for i, c in enumerate(projection)})]
        assert out[0].columns[0] is source[0].columns[0]
        assert out[0].columns[2] is source[0].columns[2]
        assert out[0].columns[1] is not source[0].columns[1]


class TestDifferentialFuzz:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_distributions_agree(self, seed):
        rng = make_rng("merge-overlay-fuzz", seed)
        total_rows = rng.randrange(20, 200)
        # Random stripe spans, some randomly pruned (gaps -> skipped).
        spans = []
        first = 0
        while first < total_rows:
            n = min(rng.randrange(1, 40), total_rows - first)
            if rng.random() > 0.2:
                spans.append((first, n))
            first += n
        entries = {}
        hi = total_rows + rng.randrange(0, 8)    # some trailing ids
        for row in range(hi):
            roll = rng.random()
            if roll < 0.12:
                entries[row] = delta(deleted=True)
            elif roll < 0.3:
                updates = {c: "u%d:%d" % (row, c)
                           for c in range(WIDTH) if rng.random() < 0.6}
                entries[row] = delta(updates=updates)   # may be a noop
        projection = rng.choice([(0, 1, 2), (2, 0), (1,), (0, 2)])
        rows, stats = run_all_paths(spans if spans else [(0, 1)],
                                    entries, projection=projection)
        assert stats["rows_deleted"] <= len(
            [d for d in entries.values() if d.deleted])
        assert len(rows) <= total_rows


class TestMergeModeSQL:
    """End-to-end: the overlay and the installed row merge through real
    statements."""

    ROWS = [(i, i * 10) for i in range(60)]

    def build(self, row_reads):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute(
            "CREATE TABLE t (k int, v int) STORED AS dualtable "
            "TBLPROPERTIES ('orc.rows_per_file' = '20', "
            "'orc.stripe_rows' = '5', 'dualtable.mode' = 'edit')")
        if row_reads:
            row_merge.install(session.table("t").handler)
        session.load_rows("t", self.ROWS)
        session.execute("UPDATE t SET v = 1 WHERE k < 7")
        session.execute("DELETE FROM t WHERE k >= 50 AND k < 55")
        session.execute("UPDATE t SET v = 2 WHERE k >= 58")
        return session

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    def test_strategies_agree_end_to_end(self, engine):
        results = {}
        for row_reads in (False, True):
            session = row_engine.use(self.build(row_reads), engine)
            result = session.execute("SELECT k, v FROM t ORDER BY k")
            counters = session.cluster.metrics.counters
            results[row_reads] = (result.rows, result.sim_seconds,
                                  counters.get("unionread.deltas_applied", 0),
                                  counters.get("unionread.rows_deleted", 0))
        assert results[False] == results[True]

    def test_dirty_units_attributed_to_configured_strategy(self):
        # One merge strategy, one dirty-unit counter — the row merge
        # reports the units the overlay would patch.
        for row_reads in (False, True):
            session = self.build(row_reads)
            session.execute("SELECT k, v FROM t")
            units = {name for name in session.cluster.metrics.counters
                     if name.startswith("unionread.batches_")}
            assert units == {"unionread.batches_fast",
                             "unionread.batches_fast.t",
                             "unionread.batches_overlay",
                             "unionread.batches_overlay.t"}

    def test_merge_unit_sum_identical_across_strategies(self):
        units = {}
        for row_reads in (False, True):
            session = self.build(row_reads)
            session.execute("SELECT k, v FROM t")
            counters = session.cluster.metrics.counters
            units[row_reads] = (
                counters.get("unionread.batches_fast", 0),
                counters.get("unionread.batches_overlay", 0))
        assert units[False] == units[True]
        assert all(units[False])

    def test_set_merge_rejects_unknown_strategy(self):
        # The merge option is gone: every value, formerly valid or not,
        # is an unknown session option.
        session = HiveSession(profile=ClusterProfile.laptop())
        for strategy in ("eager", "row", "overlay"):
            with pytest.raises(AnalysisError, match="unknown session option"):
                session.execute("SET dualtable.merge = %s" % strategy)
        assert session.merge_mode == "overlay"

    def test_merge_mode_env_override(self, monkeypatch):
        # REPRO_MERGE no longer selects a merge: reads still take the
        # overlay and report its merge units.
        monkeypatch.setenv("REPRO_MERGE", "row")
        session = self.build(row_reads=False)
        assert session.merge_mode == "overlay"
        session.execute("SELECT k, v FROM t")
        counters = session.cluster.metrics.counters
        assert counters.get("unionread.batches_overlay", 0) > 0


class TestReroutedReads:
    """Every read that used to take the row merge — the row executor's
    SELECT, LOOKUP, MERGE INTO and the OVERWRITE plan's rewrite — against
    the installed row merge: same rows, ledger and metrics after every
    statement."""

    DDL = ("CREATE TABLE t (k int, g string, v int) PRIMARY KEY (k) "
           "STORED AS dualtable %s TBLPROPERTIES ("
           "'dualtable.mode' = 'edit', 'orc.rows_per_file' = '200', "
           "'orc.stripe_rows' = '100')")

    def build(self, engine, sharded, row_reads):
        session = row_engine.use(
            HiveSession(profile=ClusterProfile.laptop(), batch_rows=64),
            engine)
        session.execute(self.DDL % ("SHARDED BY (k) INTO 4"
                                    if sharded else ""))
        handler = session.table("t").handler
        if row_reads:
            row_merge.install(handler)
        session.load_rows("t", [(k, "g%d" % (k % 3), k % 7)
                                for k in range(800)])
        session.execute("CREATE TABLE src (k int, v int)")
        session.load_rows("src", [(k, -k) for k in range(0, 900, 9)])
        # Noop deltas: attached entries that match a row, change nothing.
        for child in getattr(handler, "children", None) or [handler]:
            table = child.attached._htable()
            for path in child.master.file_paths():
                reader = child.master.reader(path)
                file_id = int(reader.metadata["dualtable.file_id"])
                for row in range(0, reader.num_rows, 15):
                    table.put(encode_record_id(file_id, row), {b"noop": b""})
            child.attached._invalidate_cache()
        return session

    def run(self, sessions, sql):
        results = []
        for session in sessions:
            result = session.execute(sql)
            results.append((result.rows, result.affected, result.plan,
                            result.sim_seconds))
        new, ref = sessions
        assert results[0] == results[1], sql
        assert new.cluster.ledger.snapshot() == \
            ref.cluster.ledger.snapshot(), sql
        assert new.cluster.metrics.snapshot() == \
            ref.cluster.metrics.snapshot(), sql
        return results[0]

    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    @pytest.mark.parametrize("sharded", [False, True])
    def test_reads_agree_with_row_merge(self, engine, sharded):
        sessions = [self.build(engine, sharded, row_reads)
                    for row_reads in (False, True)]
        run = lambda sql: self.run(sessions, sql)    # noqa: E731
        # Deletes inside and across whole batches, stripes and a file.
        run("DELETE FROM t WHERE k % 5 = 2")
        run("DELETE FROM t WHERE k >= 200 AND k < 300")   # one stripe
        run("DELETE FROM t WHERE k >= 400 AND k < 464")   # one batch
        run("DELETE FROM t WHERE k >= 600")               # one file
        run("UPDATE t SET g = 'u' WHERE k % 4 = 1")
        # Rewrites the predicate (and primary-key) column: LOOKUP must
        # read the PK-dirty files whole.
        run("UPDATE t SET k = k + 1000 WHERE k < 6")
        assert run("SELECT k, g, v FROM t ORDER BY k")[0]
        run("SELECT g, count(*), sum(v) FROM t GROUP BY g ORDER BY g")
        run("SET dualtable.plan = lookup")
        points = ["k = 7", "k = 1003", "k = 325"]
        if not sharded:     # ranges span shards: no LOOKUP when sharded
            points += ["k IN (8, 9, 241)", "k BETWEEN 460 AND 475"]
        for where in points:
            result = run("SELECT k, g, v FROM t WHERE %s" % where)
            assert result[2] == "lookup", where
        run("SET dualtable.plan = cost")
        assert run("MERGE INTO t USING src ON t.k = src.k "
                   "WHEN MATCHED THEN UPDATE SET v = src.v")[1] > 0
        run("ALTER TABLE t SET DUALTABLE (mode = 'overwrite')")
        assert run("UPDATE t SET v = v + 1 WHERE k > 50")[2] == \
            "update-overwrite"
        run("SELECT k, g, v FROM t ORDER BY k")
        run("COMPACT TABLE t")
        run("SELECT k, g, v FROM t ORDER BY k")
