"""One read method per storage handler: ``read_split_batches``.

Every storage handler serves a split only as ColumnBatches; row
consumers (the OVERWRITE plan, MERGE INTO, ``read_all_rows``) transpose
``batch.rows()``.  On every registered handler kind, after an UPDATE and
a DELETE through that kind's own plan, the batch size must not change
the rows, their order or the charges, and the rows must be the table's
expected contents.
"""

import pytest

from repro.cluster import ClusterProfile
from repro.hive import HiveSession
from repro.hive.catalog import handler_kinds

COLUMNS = "(k int, v int, g string)"
PROPS = "'orc.rows_per_file' = '16', 'orc.stripe_rows' = '5'"

#: handler kind -> CREATE TABLE statement for ``t``.
DDL = {
    "orc": "CREATE TABLE t %s STORED AS orc TBLPROPERTIES (%s)"
           % (COLUMNS, PROPS),
    "orc-partitioned": "CREATE TABLE t (k int, v int) PARTITIONED BY "
                       "(g string) STORED AS orc TBLPROPERTIES (%s)" % PROPS,
    "hbase": "CREATE TABLE t %s STORED AS hbase" % COLUMNS,
    "acid": "CREATE TABLE t %s STORED AS acid TBLPROPERTIES (%s)"
            % (COLUMNS, PROPS),
    "dualtable": "CREATE TABLE t %s STORED AS dualtable TBLPROPERTIES "
                 "('dualtable.mode' = 'edit', %s)" % (COLUMNS, PROPS),
    "dualtable-sharded": "CREATE TABLE t %s STORED AS dualtable SHARDED BY "
                         "(k) INTO 4 TBLPROPERTIES ('dualtable.mode' = "
                         "'edit', %s)" % (COLUMNS, PROPS),
}

ROWS = [(k, k % 7, "g%d" % (k % 3)) for k in range(40)]


def build(kind):
    session = HiveSession(profile=ClusterProfile.laptop())
    session.execute(DDL[kind])
    session.load_rows("t", ROWS)
    assert session.table("t").handler.kind == kind
    return session


def model_dml(rows):
    """The DML every table gets below, applied to a row list."""
    rows = [(k, v + 100, g) if k % 5 == 0 else (k, v, g)
            for k, v, g in rows]
    return [row for row in rows if row[0] % 11 != 0]


def apply_dml(session):
    session.execute("UPDATE t SET v = v + 100 WHERE k % 5 = 0")
    session.execute("DELETE FROM t WHERE k % 11 = 0")


def test_every_registered_kind_is_covered():
    HiveSession._ensure_extended_handlers()
    assert sorted(DDL) == handler_kinds()


@pytest.mark.parametrize("projection", [None, ("g", "k"), ("g",)],
                         ids=["all", "g-k", "g"])
@pytest.mark.parametrize("kind", sorted(DDL))
def test_batch_size_never_changes_rows_or_charges(kind, projection):
    # ACID and DualTable read live deltas; ORC and partitioned ORC were
    # rewritten by the OVERWRITE plan, HBase in place.
    reads = {}
    for batch_rows in (None, 3):
        session = build(kind)
        apply_dml(session)
        handler = session.table("t").handler
        rows = []
        for split in handler.scan_splits(projection=projection):
            for batch in handler.read_split_batches(split, None,
                                                    batch_rows=batch_rows):
                assert batch_rows is None or batch.length <= batch_rows
                assert all(len(col) == batch.length
                           for col in batch.columns)
                rows.extend(batch.rows())
        reads[batch_rows] = (rows, session.cluster.ledger.snapshot())
    assert reads[None] == reads[3]
    names = ("k", "v", "g")
    picked = [names.index(name) for name in projection or names]
    expect = [tuple(row[i] for i in picked) for row in model_dml(ROWS)]
    assert sorted(reads[None][0]) == sorted(expect)

