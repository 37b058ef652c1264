"""Unit tests for repro.cache: capture/replay and the LRU cache."""

import pytest

from repro.cluster import Cluster, ClusterProfile
from repro.obs import MetricsRegistry
from repro.cache import ByteBudgetLRU


def make_cluster():
    return Cluster(profile=ClusterProfile.laptop())


class TestCaptureReplay:
    def test_capture_buffers_charges_then_replay_applies(self):
        cluster = make_cluster()
        with cluster.capture() as recorder:
            cluster.charge_hdfs_read(1000)
            cluster.metrics.incr("x.events", 2)
        assert cluster.ledger.total_seconds == 0.0
        assert cluster.metrics.counter("x.events") == 0
        assert len(recorder.charges) == 1
        recorder.replay(cluster)
        assert cluster.ledger.total_seconds > 0.0
        assert cluster.metrics.counter("x.events") == 2

    def test_replay_lands_in_active_scope(self):
        cluster = make_cluster()
        with cluster.capture() as recorder:
            cluster.charge_hdfs_read(4096)
        with cluster.cost_scope("t") as scope:
            recorder.replay(cluster)
        assert scope.seconds == pytest.approx(
            cluster.ledger.total_seconds)

    def test_nested_capture_bubbles_one_level(self):
        cluster = make_cluster()
        with cluster.capture() as outer:
            with cluster.capture() as inner:
                cluster.charge_hdfs_read(100)
            assert len(inner.charges) == 1 and not outer.charges
            inner.replay(cluster)
            assert len(outer.charges) == 1
        assert cluster.ledger.total_seconds == 0.0

    def test_replay_preserves_metric_event_kinds(self):
        cluster = make_cluster()
        with cluster.capture() as recorder:
            cluster.metrics.incr("c", 3)
            cluster.metrics.gauge("g", 7)
            cluster.metrics.observe("h", 1.5)
        recorder.replay(cluster)
        assert cluster.metrics.counter("c") == 3
        assert cluster.metrics.gauges["g"] == 7
        assert cluster.metrics.histogram("h").count == 1


class TestByteBudgetLRU:
    def test_hit_miss_and_counters(self):
        metrics = MetricsRegistry()
        cache = ByteBudgetLRU(100, metrics=metrics, name="cache.t")
        assert cache.get(("a",)) is None
        cache.put(("a",), "value", 10)
        assert cache.get(("a",)) == "value"
        assert metrics.counter("cache.t.misses") == 1
        assert metrics.counter("cache.t.hits") == 1

    def test_evicts_lru_past_budget(self):
        metrics = MetricsRegistry()
        cache = ByteBudgetLRU(100, metrics=metrics, name="cache.t")
        cache.put(("a",), 1, 40)
        cache.put(("b",), 2, 40)
        cache.get(("a",))               # refresh a; b is now LRU
        cache.put(("c",), 3, 40)
        assert ("b",) not in cache
        assert ("a",) in cache and ("c",) in cache
        assert metrics.counter("cache.t.evictions") == 1
        assert cache.used_bytes == 80

    def test_oversized_value_not_stored(self):
        cache = ByteBudgetLRU(10)
        cache.put(("big",), "x", 11)
        assert len(cache) == 0

    def test_zero_budget_stores_nothing(self):
        cache = ByteBudgetLRU(0)
        cache.put(("a",), 1, 1)
        assert cache.get(("a",)) is None

    def test_invalidate_group_by_prefix(self):
        metrics = MetricsRegistry()
        cache = ByteBudgetLRU(1000, metrics=metrics, name="cache.t")
        cache.put(("/w/t1/master/f1", "footer"), 1, 10)
        cache.put(("/w/t1/master/f2", "footer"), 2, 10)
        cache.put(("/w/t2/master/f1", "footer"), 3, 10)
        assert cache.invalidate_group("/w/t1/master") == 2
        assert ("/w/t2/master/f1", "footer") in cache
        assert cache.used_bytes == 10
        assert metrics.counter("cache.t.invalidations") == 2

    def test_invalidate_group_non_string_tag_by_equality(self):
        cache = ByteBudgetLRU(1000)
        cache.put((7, "x"), 1, 10)
        cache.put((77, "x"), 2, 10)
        assert cache.invalidate_group(7) == 1
        assert (77, "x") in cache

    def test_clear(self):
        cache = ByteBudgetLRU(1000)
        cache.put(("a",), 1, 10)
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.used_bytes == 0
