"""Tests for MERGE INTO (the grid's proprietary upsert, Table I)."""

import pytest

from repro.cluster import ClusterProfile
from repro.common.errors import AnalysisError, ParseError
from repro.hive import HiveSession
from repro.hive import ast_nodes as ast
from repro.hive.parser import parse


@pytest.fixture
def session():
    return HiveSession(profile=ClusterProfile.laptop())


STORAGES = ["orc", "orc-partitioned", "hbase", "dualtable", "acid"]

#: storage -> the archive table's column list and storage clause.
ARCHIVE_DDL = {
    "orc-partitioned": "(dev_id int, model string) PARTITIONED BY "
                       "(fw double) STORED AS orc",
}


def setup_tables(session, storage):
    session.execute("CREATE TABLE archive %s" % ARCHIVE_DDL.get(
        storage, "(dev_id int, model string, fw double) STORED AS %s"
        % storage))
    session.load_rows("archive", [(i, "m%d" % (i % 3), 1.0)
                                  for i in range(50)])
    session.execute(
        "CREATE TABLE incoming (dev_id int, model string, fw double)")
    session.load_rows("incoming", [
        (10, "m-upgraded", 2.0),        # existing: should update
        (20, "m-upgraded", 2.0),        # existing: should update
        (999, "m-new", 3.0),            # new: should insert
    ])


MERGE_SQL = """
MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id
WHEN MATCHED THEN UPDATE SET model = i.model, fw = i.fw
WHEN NOT MATCHED THEN INSERT VALUES (i.dev_id, i.model, i.fw)
"""


class TestParsing:
    def test_full_merge(self):
        stmt = parse(MERGE_SQL)
        assert isinstance(stmt, ast.MergeStmt)
        assert stmt.target == "archive" and stmt.alias == "a"
        assert len(stmt.matched_assignments) == 2
        assert len(stmt.insert_values) == 3

    def test_update_only(self):
        stmt = parse("MERGE INTO t USING s ON t.k = s.k "
                     "WHEN MATCHED THEN UPDATE SET v = s.v")
        assert stmt.insert_values is None

    def test_insert_only(self):
        stmt = parse("MERGE INTO t USING s ON t.k = s.k "
                     "WHEN NOT MATCHED THEN INSERT VALUES (s.k, s.v)")
        assert stmt.matched_assignments == []
        assert len(stmt.insert_values) == 2

    def test_subquery_source(self):
        stmt = parse("MERGE INTO t USING (SELECT k, v FROM u) s "
                     "ON t.k = s.k WHEN MATCHED THEN UPDATE SET v = s.v")
        assert stmt.source.subquery is not None

    def test_no_arms_rejected(self):
        with pytest.raises(ParseError):
            parse("MERGE INTO t USING s ON t.k = s.k")


@pytest.mark.parametrize("storage", STORAGES)
class TestMergeSemantics:
    def test_upsert(self, session, storage):
        setup_tables(session, storage)
        result = session.execute(MERGE_SQL)
        assert result.detail["matched"] == 2
        assert result.detail["inserted"] == 1
        assert result.affected == 3
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 10"
        ).scalar() == "m-upgraded"
        assert session.execute(
            "SELECT fw FROM archive WHERE dev_id = 999").scalar() == 3.0

    def test_unmatched_target_rows_untouched(self, session, storage):
        setup_tables(session, storage)
        session.execute(MERGE_SQL)
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 11"
        ).scalar() == "m2"

    def test_update_only_merge(self, session, storage):
        setup_tables(session, storage)
        result = session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET fw = i.fw")
        assert result.detail["matched"] == 2
        assert result.detail["inserted"] == 0
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 50

    def test_insert_only_merge(self, session, storage):
        setup_tables(session, storage)
        result = session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN NOT MATCHED THEN INSERT VALUES (i.dev_id, i.model, i.fw)")
        assert result.detail["inserted"] == 1
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51
        # matched rows untouched
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 10").scalar() == "m1"

    def test_merge_idempotent_second_run(self, session, storage):
        setup_tables(session, storage)
        session.execute(MERGE_SQL)
        result = session.execute(MERGE_SQL)
        assert result.detail["inserted"] == 0        # 999 exists now
        assert result.detail["matched"] == 3
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51


class TestMergeDetails:
    def test_expressions_using_both_sides(self, session):
        setup_tables(session, "dualtable")
        session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET fw = a.fw + i.fw")
        assert session.execute(
            "SELECT fw FROM archive WHERE dev_id = 10").scalar() == 3.0

    def test_subquery_source_end_to_end(self, session):
        setup_tables(session, "orc")
        result = session.execute(
            "MERGE INTO archive a USING "
            "(SELECT dev_id, model, fw FROM incoming WHERE fw >= 3) s "
            "ON a.dev_id = s.dev_id "
            "WHEN MATCHED THEN UPDATE SET model = s.model "
            "WHEN NOT MATCHED THEN INSERT VALUES (s.dev_id, s.model, s.fw)")
        assert result.detail["source_rows"] == 1
        assert result.detail["inserted"] == 1

    def test_duplicate_source_keys_first_wins(self, session):
        session.execute("CREATE TABLE t (k int, v string)")
        session.load_rows("t", [(1, "old")])
        session.execute("CREATE TABLE s (k int, v string)")
        session.load_rows("s", [(1, "first"), (1, "second")])
        session.execute("MERGE INTO t USING s ON t.k = s.k "
                        "WHEN MATCHED THEN UPDATE SET v = s.v")
        assert session.execute("SELECT v FROM t").scalar() == "first"

    def test_dualtable_merge_reports_plan(self, session):
        setup_tables(session, "dualtable")
        result = session.execute(MERGE_SQL)
        assert result.detail["plan"] in ("edit", "overwrite")

    def test_dualtable_edit_merge_uses_attached(self, session):
        session.execute(
            "CREATE TABLE archive (dev_id int, model string, fw double) "
            "STORED AS dualtable TBLPROPERTIES "
            "('dualtable.mode' = 'edit')")
        session.load_rows("archive", [(i, "m", 1.0) for i in range(50)])
        session.execute("CREATE TABLE incoming "
                        "(dev_id int, model string, fw double)")
        session.load_rows("incoming", [(10, "x", 2.0)])
        handler = session.table("archive").handler
        files = handler.master.file_paths()
        session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET model = i.model")
        assert handler.master.file_paths() == files   # master untouched
        assert not handler.attached.is_empty()

    def test_non_equi_on_rejected(self, session):
        setup_tables(session, "orc")
        with pytest.raises(AnalysisError):
            session.execute(
                "MERGE INTO archive a USING incoming i ON a.dev_id > 1 "
                "WHEN MATCHED THEN UPDATE SET fw = 0")

    def test_merge_after_compact_consistent(self, session):
        setup_tables(session, "dualtable")
        session.execute(MERGE_SQL)
        session.execute("COMPACT TABLE archive")
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 20"
        ).scalar() == "m-upgraded"
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 51


class TestMergeOnBtreeBackend:
    def test_merge_with_btree_attached(self, session):
        session.execute(
            "CREATE TABLE archive (dev_id int, model string, fw double) "
            "STORED AS dualtable TBLPROPERTIES "
            "('dualtable.attached' = 'btree', 'dualtable.mode' = 'edit')")
        session.load_rows("archive", [(i, "m", 1.0) for i in range(30)])
        session.execute(
            "CREATE TABLE incoming (dev_id int, model string, fw double)")
        session.load_rows("incoming", [(5, "x", 2.0), (99, "new", 3.0)])
        result = session.execute(
            "MERGE INTO archive a USING incoming i ON a.dev_id = i.dev_id "
            "WHEN MATCHED THEN UPDATE SET model = i.model "
            "WHEN NOT MATCHED THEN INSERT VALUES (i.dev_id, i.model, i.fw)")
        assert result.detail["matched"] == 1
        assert result.detail["inserted"] == 1
        assert session.execute(
            "SELECT model FROM archive WHERE dev_id = 5").scalar() == "x"
        assert session.execute(
            "SELECT count(*) FROM archive").scalar() == 31
