"""Reference EDIT-plan locate: the per-row record-id merge.

UPDATE and DELETE used to find their rows by reading every master row
through ``read_split_with_rids`` (the row merge: one encoded record id
per row) and running the interpreted row predicate (``compile_expr`` +
``is_true``) on each.  This module keeps that loop, for the unsharded and
the sharded handler, as the oracle the batch-native locate
(:meth:`repro.core.handler.DualTableHandler.locate_split`) is
differentially tested against in ``tests/test_edit_locate.py``.

:func:`install` swaps the loop into one handler instance; everything
else about the statement (plan choice, scan splits, the EditBatch commit)
stays the production code.
"""

from repro.core.editlog import EditBatch
from repro.core.udtf import delete_udtf, update_udtf
from repro.hive.expressions import (Env, compile_expr, is_true,
                                    referenced_columns)
from repro.hive.pushdown import extract_ranges
from repro.hive.session import QueryResult
from repro.mapreduce import Job


def row_edit(handler, session, stmt, detail, kind):
    """The EDIT plan of one UPDATE or DELETE (``kind``), row at a time."""
    schema = handler.schema
    assignments = stmt.assignments if kind == "update" else ()
    needed = set()
    if stmt.where is not None:
        needed |= referenced_columns(stmt.where)
    for _, expr in assignments:
        needed |= referenced_columns(expr)
    projection = [c.name for c in schema if c.name.lower() in needed]
    if not projection:
        projection = [schema.columns[0].name]
    env = Env()
    env.add_schema(projection, alias=stmt.alias)
    predicate = (compile_expr(stmt.where, env)
                 if stmt.where is not None else None)
    assigns = [(schema.index_of(name), compile_expr(expr, env))
               for name, expr in assignments]
    ranges = extract_ranges(stmt.where) if stmt.where is not None else {}
    splits = handler.scan_splits(projection, ranges)
    sharded = hasattr(handler, "children")
    batch = EditBatch(handler._batch_target, next(handler._txn_ids))

    def map_fn(split, ctx):
        shard = split.payload.get("shard", 0)
        source = handler.children[shard] if sharded else handler
        buffer = batch.task_buffer()
        for record_id, values in source.read_split_with_rids(split, ctx):
            if predicate is None or is_true(predicate(values)):
                key = (shard, record_id) if sharded else record_id
                if kind == "update":
                    new_values = {idx: fn(values) for idx, fn in assigns}
                    update_udtf(buffer, key, new_values, ctx)
                else:
                    delete_udtf(buffer, key, ctx)
        batch.absorb(buffer, ctx.task_index)
        return ()

    properties = {"shard_fanout": handler.num_shards} if sharded else {}
    job = Job(name="%s-edit" % kind, splits=splits, map_fn=map_fn,
              reduce_fn=None, properties=properties)
    result = session.runner.run(job)
    commit_seconds = handler._commit_or_defer(session, batch)
    handler.note_attached_bytes()
    jobs = session._dml_subquery_jobs + [result]
    sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
    counter = "updated" if kind == "update" else "deleted"
    return QueryResult(
        sim_seconds=sub + result.sim_seconds + commit_seconds,
        jobs=jobs, affected=result.counters.get(counter, 0),
        plan="%s-edit" % kind, detail=detail)


def install(handler):
    """Route one handler's EDIT plans through :func:`row_edit`."""
    handler._edit_plan = (lambda session, stmt, detail, kind:
                          row_edit(handler, session, stmt, detail, kind))
