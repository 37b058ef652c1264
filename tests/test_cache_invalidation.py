"""Strict cache invalidation: a cached read is never stale.

The ORC footer/stripe cache and the Attached-Table delta-range cache
trade wall-clock time only; every mutation of the backing store must
drop the affected entries.  Each test warms the caches with a read,
mutates through a different path (EDIT commit, COMPACT, INSERT
OVERWRITE, region-server crash mid-statement), reads again, and checks
the answer against ``fresh_rows`` — the same query re-run with every
cache forcibly emptied.  Cached == fresh is the staleness oracle.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import ReproError
from repro.core import encode_record_id
from repro.faults import Fault, FaultPlan
from repro.hive import HiveSession

ROWS = [(i, i * 10) for i in range(40)]


def build_session(shards=1, mode="edit", rows=ROWS, rows_per_file=10):
    session = HiveSession(profile=ClusterProfile.laptop())
    sharding = " SHARDED BY (k) INTO %d" % shards if shards > 1 else ""
    session.execute(
        "CREATE TABLE t (k int, v int) STORED AS dualtable%s "
        "TBLPROPERTIES ('orc.rows_per_file' = '%d', "
        "'dualtable.mode' = '%s')" % (sharding, rows_per_file, mode))
    session.load_rows("t", rows)
    return session


def select_all(session):
    return session.execute("SELECT k, v FROM t ORDER BY k").rows


def fresh_rows(session):
    """The same read with every cache dropped — the staleness oracle."""
    session.cluster.orc_cache.clear()
    session.cluster.delta_cache.clear()
    return select_all(session)


class TestCacheWarming:
    def test_repeated_select_hits_both_caches(self):
        session = build_session()
        first = select_all(session)
        counters = session.cluster.metrics.counters
        orc_hits = counters.get("cache.orc.hits", 0)
        delta_hits = counters.get("cache.delta.hits", 0)
        second = select_all(session)
        assert second == first
        assert counters["cache.orc.hits"] > orc_hits
        assert counters["cache.delta.hits"] > delta_hits

    def test_cache_hits_do_not_change_simulated_seconds(self):
        session = build_session()
        cold = session.execute("SELECT k, v FROM t ORDER BY k")
        warm = session.execute("SELECT k, v FROM t ORDER BY k")
        assert warm.sim_seconds == cold.sim_seconds

    def test_zero_budget_disables_caching(self):
        session = HiveSession(profile=ClusterProfile.laptop(
            orc_cache_bytes=0, delta_cache_bytes=0))
        session.execute("CREATE TABLE t (k int, v int) STORED AS "
                        "dualtable TBLPROPERTIES "
                        "('orc.rows_per_file' = '10')")
        session.load_rows("t", ROWS)
        first = select_all(session)
        assert select_all(session) == first
        counters = session.cluster.metrics.counters
        assert counters.get("cache.orc.hits", 0) == 0
        assert counters.get("cache.delta.hits", 0) == 0


@pytest.mark.parametrize("shards", [1, 4])
class TestInvalidationPaths:
    def test_read_after_edit_commit(self, shards):
        session = build_session(shards=shards)
        select_all(session)                       # warm
        session.execute("UPDATE t SET v = 7 WHERE k < 15")
        expect = sorted((k, 7 if k < 15 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect
        counters = session.cluster.metrics.counters
        assert counters["cache.delta.invalidations"] > 0

    def test_read_after_delete_commit(self, shards):
        session = build_session(shards=shards)
        select_all(session)
        session.execute("DELETE FROM t WHERE k >= 30")
        expect = sorted((k, v) for k, v in ROWS if k < 30)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_read_after_compact(self, shards):
        session = build_session(shards=shards)
        session.execute("UPDATE t SET v = 1 WHERE k < 20")
        select_all(session)                       # warm on deltas
        session.execute("COMPACT TABLE t")
        handler = session.table("t").handler
        assert handler.attached.is_empty()
        expect = sorted((k, 1 if k < 20 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_read_after_insert_overwrite(self, shards):
        session = build_session(shards=shards)
        select_all(session)                       # warm on the old files
        session.execute("INSERT OVERWRITE TABLE t "
                        "VALUES (1, 100), (2, 200)")
        assert select_all(session) == [(1, 100), (2, 200)]
        assert fresh_rows(session) == [(1, 100), (2, 200)]

    def test_read_after_insert_append(self, shards):
        session = build_session(shards=shards)
        select_all(session)
        session.execute("INSERT INTO t VALUES (900, 9000)")
        expect = sorted(ROWS + [(900, 9000)])
        assert select_all(session) == expect
        assert fresh_rows(session) == expect


class TestMidStatementInvalidation:
    def test_region_crash_mid_update_never_leaves_stale_entries(self):
        """A region-server crash fired from inside an UPDATE's commit
        wipes the delta cache (cached recorders embed pre-crash
        charges); after recovery the cached read equals the uncached
        one, whichever way the statement resolved."""
        session = build_session()
        before = select_all(session)              # warm
        faults = session.cluster.faults
        faults.install(FaultPlan([
            Fault("hbase.put", nth_hit=2, kind="region_crash")]))
        # The crash may be absorbed by task retry (statement commits)
        # or surface (statement rolls forward or back on recover) —
        # staleness must be impossible either way.
        try:
            session.execute("UPDATE t SET v = 5 WHERE k < 25")
        except ReproError:
            pass
        handler = session.table("t").handler
        with faults.paused():
            handler.recover()
            after = select_all(session)
        faults.install(None)
        updated = sorted((k, 5 if k < 25 else v) for k, v in ROWS)
        assert after in (before, updated)         # atomic either way
        assert after == fresh_rows(session)
        counters = session.cluster.metrics.counters
        assert counters["cache.delta.invalidations"] > 0

    def test_direct_region_crash_clears_delta_cache(self):
        session = build_session()
        session.execute("UPDATE t SET v = 3 WHERE k < 10")
        select_all(session)                       # cache delta ranges
        cache = session.cluster.delta_cache
        assert len(cache) > 0
        handler = session.table("t").handler
        handler.attached._service.crash_region_server()
        assert len(cache) == 0
        expect = sorted((k, 3 if k < 10 else v) for k, v in ROWS)
        # WAL replay restores the acknowledged deltas; no stale reads.
        assert select_all(session) == expect
        assert fresh_rows(session) == expect


class TestStripeIndexInvalidation:
    """The LOOKUP plan's stripe min/max index lives in the delta cache
    keyed by the attached table's name, so every invalidation path that
    protects delta ranges must protect it too.  Each test warms the
    index with a point LOOKUP, mutates through one path, and re-checks
    the lookup answer against the same query with every cache dropped."""

    ROWS3 = [(i, i * 10, "s%02d" % i) for i in range(40)]

    def build(self):
        session = HiveSession(profile=ClusterProfile.laptop())
        session.execute(
            "CREATE TABLE t (k int, v int, s string, PRIMARY KEY (k)) "
            "STORED AS dualtable TBLPROPERTIES "
            "('orc.rows_per_file' = '10', 'orc.stripe_rows' = '5', "
            "'dualtable.mode' = 'edit')")
        session.load_rows("t", self.ROWS3)
        return session

    def point(self, session, k):
        session.execute("SET dualtable.plan = lookup")
        try:
            return session.execute(
                "SELECT k, v, s FROM t WHERE k = %d" % k).rows
        finally:
            session.execute("SET dualtable.plan = cost")

    def fresh_point(self, session, k):
        session.cluster.orc_cache.clear()
        session.cluster.delta_cache.clear()
        return self.point(session, k)

    def warmed(self, session, expect=(17, 170, "s17")):
        rows = self.point(session, 17)
        assert rows == [expect]
        cache = session.cluster.delta_cache
        assert any(key[1] == "stripe-index" for key in cache._entries)
        return cache

    def test_index_survives_cacheable_rereads(self):
        session = self.build()
        self.warmed(session)
        assert self.point(session, 17) == [(17, 170, "s17")]

    def test_index_dropped_by_dml(self):
        session = self.build()
        self.warmed(session)
        session.execute("UPDATE t SET v = -1 WHERE k = 17")
        assert self.point(session, 17) == [(17, -1, "s17")]
        assert self.fresh_point(session, 17) == [(17, -1, "s17")]

    def test_index_dropped_by_pk_moving_update(self):
        """After ``SET k = ...`` the warmed index's pruning verdicts are
        only safe because the pk-dirty probe is re-run — the moved row
        must be found at its new key and gone from its old one."""
        session = self.build()
        self.warmed(session)
        session.execute("UPDATE t SET k = 900 WHERE k = 17")
        assert self.point(session, 900) == [(900, 170, "s17")]
        assert self.point(session, 17) == []
        assert self.fresh_point(session, 900) == [(900, 170, "s17")]

    def test_index_dropped_by_compact(self):
        session = self.build()
        session.execute("UPDATE t SET v = 1 WHERE k < 20")
        self.warmed(session, expect=(17, 1, "s17"))
        session.execute("COMPACT TABLE t")
        assert self.point(session, 17) == [(17, 1, "s17")]
        assert self.fresh_point(session, 17) == [(17, 1, "s17")]

    def test_index_dropped_by_insert_overwrite(self):
        session = self.build()
        self.warmed(session)
        session.execute("INSERT OVERWRITE TABLE t "
                        "VALUES (17, 5, 'new'), (99, 6, 'other')")
        assert self.point(session, 17) == [(17, 5, "new")]
        assert self.fresh_point(session, 17) == [(17, 5, "new")]

    def test_index_dropped_by_region_crash(self):
        session = self.build()
        session.execute("UPDATE t SET v = 2 WHERE k = 17")
        cache = self.warmed(session, expect=(17, 2, "s17"))
        session.hbase.crash_region_server()
        assert len(cache) == 0            # whole cache, index included
        # WAL replay restores the delta; the rebuilt index must agree.
        assert self.point(session, 17) == [(17, 2, "s17")]
        assert self.fresh_point(session, 17) == [(17, 2, "s17")]


class TestOverlayInvalidation:
    """The memoized DeltaOverlay (INTERNALS §14) lives in the delta
    cache keyed ``(table, backend, file_id, "overlay")``, so every
    invalidation path that protects delta ranges must drop it too.
    Each test warms the overlay with a scan, mutates through one path,
    and re-checks the cached answer against the all-caches-dropped
    oracle."""

    def build(self):
        session = build_session(mode="edit")
        session.execute("UPDATE t SET v = -5 WHERE k = 3")
        return session

    def warmed(self, session):
        select_all(session)
        cache = session.cluster.delta_cache
        assert any(len(key) == 4 and key[3] == "overlay"
                   for key in cache._entries)
        return cache

    def test_overlay_cached_and_reused(self):
        session = self.build()
        self.warmed(session)
        counters = session.cluster.metrics.counters
        hits = counters.get("cache.delta.hits", 0)
        expect = sorted((k, -5 if k == 3 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert counters["cache.delta.hits"] > hits

    def test_overlay_dropped_by_dml(self):
        session = self.build()
        self.warmed(session)
        session.execute("UPDATE t SET v = 9 WHERE k < 5")
        expect = sorted((k, 9 if k < 5 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_dropped_by_delete(self):
        session = self.build()
        self.warmed(session)
        session.execute("DELETE FROM t WHERE k = 3")
        expect = sorted((k, v) for k, v in ROWS if k != 3)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_dropped_by_compact(self):
        session = self.build()
        self.warmed(session)
        session.execute("COMPACT TABLE t")
        expect = sorted((k, -5 if k == 3 else v) for k, v in ROWS)
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_dropped_by_insert_overwrite(self):
        session = self.build()
        self.warmed(session)
        session.execute("INSERT OVERWRITE TABLE t VALUES (1, 100)")
        assert select_all(session) == [(1, 100)]
        assert fresh_rows(session) == [(1, 100)]

    def test_overlay_dropped_by_region_crash(self):
        session = self.build()
        cache = self.warmed(session)
        session.hbase.crash_region_server()
        assert len(cache) == 0
        expect = sorted((k, -5 if k == 3 else v) for k, v in ROWS)
        # WAL replay restores the delta; the rebuilt overlay must agree.
        assert select_all(session) == expect
        assert fresh_rows(session) == expect

    def test_overlay_identical_under_zero_budget(self):
        """With caching disabled the overlay is rebuilt per read —
        results and simulated seconds cannot depend on the cache."""
        cached = self.build()
        uncached = HiveSession(profile=ClusterProfile.laptop(
            orc_cache_bytes=0, delta_cache_bytes=0))
        uncached.execute(
            "CREATE TABLE t (k int, v int) STORED AS dualtable "
            "TBLPROPERTIES ('orc.rows_per_file' = '10', "
            "'dualtable.mode' = 'edit')")
        uncached.load_rows("t", ROWS)
        uncached.execute("UPDATE t SET v = -5 WHERE k = 3")
        a = cached.execute("SELECT k, v FROM t ORDER BY k")
        b = uncached.execute("SELECT k, v FROM t ORDER BY k")
        assert a.rows == b.rows
        assert a.sim_seconds == b.sim_seconds


class TestTrailingDeltas:
    def test_trailing_delta_is_counted_not_dropped_silently(self):
        """An attached entry beyond the last master row (e.g. left by a
        file that shrank) cannot affect UNION READ output, but it must
        be surfaced through the merge stats and metrics."""
        session = build_session(rows=ROWS[:10], rows_per_file=10)
        handler = session.table("t").handler
        path = handler.master.file_paths()[0]
        file_id = handler.master.file_id_of(path)
        handler.attached.put_update(encode_record_id(file_id, 99),
                                    {1: 777})
        assert select_all(session) == sorted(ROWS[:10])
        counters = session.cluster.metrics.counters
        assert counters["unionread.trailing_deltas"] == 1
        assert counters.get("unionread.deltas_applied", 0) == 0
        # The counter keeps counting on re-reads (cached or not).
        select_all(session)
        assert counters["unionread.trailing_deltas"] == 2

    def test_in_range_orphan_delta_counted_as_skipped(self):
        """A delta whose id sorts inside the master range but matches no
        master row is counted as skipped."""
        session = build_session(rows=ROWS[:10], rows_per_file=10)
        handler = session.table("t").handler
        # A second, later file makes row ids from the *first* file's
        # tail sort inside the overall attached range for that file.
        session.execute("INSERT INTO t VALUES (500, 5000)")
        path = handler.master.file_paths()[0]
        file_id = handler.master.file_id_of(path)
        handler.attached.put_update(encode_record_id(file_id, 4),
                                    {1: 444})
        handler.attached.put_update(encode_record_id(file_id, 55),
                                    {1: 555})
        expect = sorted([(k, 444 if k == 4 else v)
                         for k, v in ROWS[:10]] + [(500, 5000)])
        assert select_all(session) == expect
        counters = session.cluster.metrics.counters
        assert counters["unionread.deltas_applied"] == 1
        assert counters["unionread.trailing_deltas"] == 1
