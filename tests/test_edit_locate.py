"""Differential tests: batch-native EDIT locate vs the row-merge oracle.

UPDATE and DELETE find their rows in overlay-merged ColumnBatches
(:meth:`repro.core.handler.DualTableHandler.locate_split`) and encode
record ids only for the rows the WHERE matched.  The previous row-merge
loop lives on in :mod:`tests.oracle.row_locate`; with
:mod:`tests.oracle.row_merge` installed, the scans and COMPACT of both
sessions read through the row merge too.  Every test here runs
the same statements on two identically built sessions — one production,
one with the oracle installed — and requires the committed EditBatch edit
lists (kind, record id, values, order) to be equal, as well as the
statement outcomes, the ledger and every metric.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.common.rng import make_rng
from repro.core.record_id import encode_record_id
from repro.hive import HiveSession
from tests.oracle import row_merge
from tests.oracle.row_locate import install

ROWS = 1200


def table_rows():
    """``(k, g, v, w)`` rows with NULLs sprinkled into ``v`` and ``w``."""
    return [(k, "g%d" % (k % 5),
             None if k % 11 == 0 else k % 97,
             None if k % 13 == 0 else k * 0.5)
            for k in range(ROWS)]


def build(engine="vectorized", sharded=False, batch_rows=None,
          row_reads=False):
    session = HiveSession(profile=ClusterProfile.laptop(), engine=engine,
                          batch_rows=batch_rows)
    session.execute(
        "CREATE TABLE t (k int, g string, v int, w double) "
        "STORED AS DUALTABLE %s TBLPROPERTIES ("
        "'dualtable.mode' = 'edit', 'orc.rows_per_file' = '400', "
        "'orc.stripe_rows' = '100')"
        % ("SHARDED BY (k) INTO 4" if sharded else ""))
    if row_reads:
        row_merge.install(session.table("t").handler)
    session.load_rows("t", table_rows())
    return session


def capture_edits(handler):
    """Record each committed EditBatch's edit list."""
    log = []
    commit = handler._commit_or_defer

    def recording(session, batch):
        log.append(list(batch.edits))
        return commit(session, batch)
    handler._commit_or_defer = recording
    return log


def outcome(session, sql):
    try:
        result = session.execute(sql)
    except Exception as exc:
        cause = exc.__cause__
        return ("raised", type(exc).__name__, str(exc),
                type(cause).__name__ if cause is not None else None)
    return ("ok", result.affected, result.plan, result.sim_seconds)


class Pair:
    """A production session and an oracle session, built identically."""

    def __init__(self, **options):
        self.new = build(**options)
        self.ref = build(**options)
        new_handler = self.new.table("t").handler
        ref_handler = self.ref.table("t").handler
        install(ref_handler)
        self.new_edits = capture_edits(new_handler)
        self.ref_edits = capture_edits(ref_handler)
        self.handlers = (new_handler, ref_handler)

    def run(self, sql):
        """Run ``sql`` on both sides; assert every observable agrees."""
        published = [h.attached.size_bytes for h in self.handlers]
        new, ref = outcome(self.new, sql), outcome(self.ref, sql)
        assert new == ref, sql
        assert self.new_edits == self.ref_edits, sql
        assert self.new.cluster.ledger.snapshot() == \
            self.ref.cluster.ledger.snapshot(), sql
        assert self.new.cluster.metrics.snapshot() == \
            self.ref.cluster.metrics.snapshot(), sql
        if new[0] == "raised":
            # A failed statement publishes nothing.
            assert [h.attached.size_bytes for h in self.handlers] == \
                published, sql
        return new

    def assert_same_table(self):
        sql = "SELECT * FROM t ORDER BY k"
        assert self.new.execute(sql).rows == self.ref.execute(sql).rows
        assert self.new.cluster.ledger.snapshot() == \
            self.ref.cluster.ledger.snapshot()


def noop_deltas(pair, every=9):
    """Attached entries that change nothing (an unknown qualifier) on
    every ``every``-th row of each master file, on both sides."""
    for session in (pair.new, pair.ref):
        handler = session.table("t").handler
        for child in getattr(handler, "children", [handler]):
            for path in child.master.file_paths():
                reader = child.master.reader(path)
                file_id = int(reader.metadata["dualtable.file_id"])
                table = child.attached._htable()
                for row in range(0, reader.num_rows, every):
                    table.put(encode_record_id(file_id, row),
                              {b"noop": b""})
            child.attached._invalidate_cache()


#: Statements that must also leave the Attached Table untouched.
RAISING = [
    "UPDATE t SET v = g + 1 WHERE k < 150",
    "UPDATE t SET v = substr(g, 'a') WHERE k >= 700 AND k < 760",
    "DELETE FROM t WHERE k < 120 AND date_add(g, 1) = 'x'",
    "UPDATE t SET g = 'x' WHERE k > 300 AND k < 330 "
    "AND substr(g, 'a') = 'y'",
]


def random_statement(rng):
    """One seeded UPDATE/DELETE over the fuzz table."""
    lo = rng.randrange(0, ROWS + 200)
    hi = lo + rng.choice([1, 7, 50, 100, 250])
    m = rng.choice([3, 7, 11, 97])
    r = rng.randrange(m)
    c = rng.randrange(1, 9)
    return rng.choice([
        "UPDATE t SET v = v + %d WHERE k %% %d = %d" % (c, m, r),
        "UPDATE t SET g = 'r%d', w = w * 2 WHERE k >= %d AND k < %d"
        % (c, lo, hi),
        # Rewrites the predicate column: the moved rows land in (or
        # leave) a later statement's WHERE range.
        "UPDATE t SET k = k + %d WHERE k >= %d AND k < %d" % (c * 7, lo, hi),
        "UPDATE t SET k = k - 3 WHERE v %% %d = %d" % (m, r),
        "UPDATE t SET w = NULL WHERE v IS NULL AND k < %d" % hi,
        "UPDATE t SET v = %d WHERE w IS NULL" % c,
        "UPDATE t SET v = %d" % c,
        "UPDATE t SET g = 'all' WHERE 1 = 1",
        "UPDATE t SET v = 0 WHERE v > %d OR g = 'g%d'" % (lo % 97, c % 5),
        "DELETE FROM t WHERE k >= %d AND k < %d" % (lo, hi),
        "DELETE FROM t WHERE k %% %d = %d" % (m, r),
        "DELETE FROM t WHERE v IS NULL AND w > %d" % (lo // 2),
        "DELETE FROM t WHERE 1 = 0",
        "DELETE FROM t WHERE k >= %d AND k < %d" % (lo, lo + 1),
    ])


class TestFixedDistributions:
    def test_update_rewrites_predicate_column(self):
        pair = Pair()
        assert pair.run("UPDATE t SET k = k + 5000 WHERE k < 40")[1] == 40
        # Stripe stats of file 0 still say k < 400; the moved rows are
        # found through the deltas.
        assert pair.run(
            "UPDATE t SET g = 'moved' WHERE k >= 5000")[1] == 40
        assert pair.run("UPDATE t SET k = k - 5000 WHERE g = 'moved' "
                        "AND k >= 5010")[1] == 30
        assert pair.run("DELETE FROM t WHERE k >= 5000")[1] == 10
        pair.assert_same_table()

    def test_deletes_inside_and_across_whole_batches(self):
        pair = Pair(batch_rows=64)
        pair.run("DELETE FROM t WHERE k % 10 = 3")
        pair.run("DELETE FROM t WHERE k >= 100 AND k < 200")  # one stripe
        pair.run("DELETE FROM t WHERE k >= 400 AND k < 464")  # one batch
        assert pair.run("UPDATE t SET v = -1 WHERE k < 500")[1] == 303
        assert pair.run("DELETE FROM t WHERE k < 1000")[1] == 753
        assert pair.run("UPDATE t SET g = 'none' WHERE k >= 100 "
                        "AND k < 200")[1] == 0
        pair.assert_same_table()

    def test_noop_deltas_dirty_batches_without_changing_them(self):
        pair = Pair()
        noop_deltas(pair)
        assert pair.run("UPDATE t SET v = 5 WHERE k % 9 = 0")[1] == 134
        pair.run("DELETE FROM t WHERE k % 18 = 0")
        pair.run("UPDATE t SET g = 'z' WHERE k >= 10 AND k < 20")
        pair.assert_same_table()

    def test_nulls_and_constant_where(self):
        pair = Pair(batch_rows=64)
        assert pair.run("UPDATE t SET v = 1 WHERE v IS NULL")[1] == 110
        assert pair.run("UPDATE t SET w = 2.5 WHERE w > 100")[1] > 0
        assert pair.run("UPDATE t SET g = NULL WHERE 1 = 1")[1] == ROWS
        assert pair.run("DELETE FROM t WHERE g IS NULL AND k > 1190"
                        )[1] == 9
        assert pair.run("UPDATE t SET v = 3 WHERE 1 = 0")[1] == 0
        pair.assert_same_table()

    def test_constant_set_without_where(self):
        pair = Pair()
        pair.run("DELETE FROM t WHERE k >= 600 AND k < 700")
        assert pair.run("UPDATE t SET v = 42")[1] == ROWS - 100
        assert pair.run("UPDATE t SET v = 7, v = 8, g = 'c'")[1] == \
            ROWS - 100
        pair.assert_same_table()

    @pytest.mark.parametrize("sql", RAISING)
    def test_raising_expression_publishes_nothing(self, sql):
        pair = Pair(batch_rows=64)
        pair.run("UPDATE t SET v = 0 WHERE k % 50 = 0")
        result = pair.run(sql)
        assert result[0] == "raised"
        assert result[1] == "TaskFailedError"
        pair.run("UPDATE t SET v = 1 WHERE k < 10")
        pair.assert_same_table()


class TestDifferentialFuzz:
    @pytest.mark.parametrize("engine", ["row", "vectorized"])
    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("batch_rows", [64, None])
    def test_random_statement_streams_agree(self, engine, sharded,
                                            batch_rows):
        rng = make_rng("edit-locate-fuzz", engine, sharded, batch_rows)
        pair = Pair(engine=engine, sharded=sharded, batch_rows=batch_rows)
        for step in range(14):
            pair.run(random_statement(rng))
            if step == 6:
                pair.run(rng.choice(RAISING))
        pair.assert_same_table()

    @pytest.mark.parametrize("seed", range(3))
    def test_row_merge_mode_and_noop_deltas(self, seed):
        rng = make_rng("edit-locate-fuzz-merge", seed)
        pair = Pair(row_reads=True, batch_rows=rng.choice([64, 128, None]))
        noop_deltas(pair, every=rng.choice([5, 17]))
        for _ in range(10):
            pair.run(random_statement(rng))
        pair.assert_same_table()
