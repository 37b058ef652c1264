"""Reference SELECT executor: the row engine.

Production SELECTs run one executor,
:class:`repro.hive.executor.SelectExecutor`, whose map functions read
ColumnBatches and evaluate expressions a batch at a time.  The row
engine it replaced is kept here as the reference semantics: its map
functions read one value tuple at a time through
:func:`repro.hive.expressions.compile_expr`, for the differential tests,
the identity phases of the benchmark scripts and
``scripts/bench_wallclock.py``'s row-side timing.

:class:`RowSelectExecutor` overrides only the three map-function
methods (projection scan, map-side aggregation, join map); planning,
split planning, reducers, LOOKUP routing, ORDER BY / LIMIT and every
charge outside the map functions are the production ones.
:func:`install` puts it on one session through the session's
``executor_class`` attribute, so SELECT, INSERT ... SELECT, DML
subqueries and the MERGE INTO source all run row at a time.  Results,
simulated seconds, ledger and non-cache counters must be identical
either way.
"""

from contextlib import contextmanager

from repro.hive.executor import MaterializedSource, SelectExecutor
from repro.hive.expressions import compile_expr, is_true


def make_reader(relation):
    """Row reader for one relation: ``read(split, ctx)`` yields tuples.

    A table scan transposes the batches of ``handler.read_split_batches``
    to row tuples and applies the residual filter per row; an
    intermediate relation charges its split as an HDFS read, exactly as
    the batch reader does.
    """
    if isinstance(relation, MaterializedSource):
        def read(split, ctx):
            ctx.cluster.charge_hdfs_read(split.size_bytes)
            yield from split.payload
        return read
    handler = relation.handler
    predicate = (compile_expr(relation.filter_expr, relation.env)
                 if relation.filter_expr is not None else None)

    def read(split, ctx):
        for batch in handler.read_split_batches(split, ctx):
            for values in batch.rows():
                if predicate is None or is_true(predicate(values)):
                    yield values
    return read


class RowSelectExecutor(SelectExecutor):
    """:class:`SelectExecutor` with row-at-a-time map functions."""

    def _projection_map(self, items, relation):
        compiled = [compile_expr(item.expr, relation.env) for item in items]
        reader = make_reader(relation)

        def map_fn(split, ctx):
            for values in reader(split, ctx):
                yield tuple(fn(values) for fn in compiled)
        return map_fn

    def _aggregate_map(self, relation, group_by, agg_calls, specs):
        key_fns = [compile_expr(e, relation.env) for e in group_by]
        reader = make_reader(relation)

        def map_fn(split, ctx):
            table = {}
            for values in reader(split, ctx):
                key = tuple(fn(values) for fn in key_fns)
                accs = table.get(key)
                if accs is None:
                    accs = table[key] = [spec.init() for spec in specs]
                for i, spec in enumerate(specs):
                    accs[i] = spec.add(accs[i], values)
            for key, accs in table.items():
                yield key, accs
        return map_fn

    def _join_map(self, left, right, equi, kind):
        # NULL-key sentinels (task_index, local_i) in reader order, as
        # in the production map.
        sides = {
            "L": (make_reader(left),
                  [compile_expr(l, left.env) for l, _ in equi],
                  kind in ("left", "full")),
            "R": (make_reader(right),
                  [compile_expr(r, right.env) for _, r in equi],
                  kind in ("right", "full")),
        }

        def map_fn(split, ctx):
            side, inner = split.payload
            reader, key_fns, outer = sides[side]
            local_i = 0
            for values in reader(inner, ctx):
                key = tuple(fn(values) for fn in key_fns)
                if any(k is None for k in key):
                    if outer:
                        yield (("\x00null", ctx.task_index, local_i),
                               (side, values))
                        local_i += 1
                    continue
                yield key, (side, values)
        return map_fn


#: The configs of the differential sweeps: ``"vectorized"`` is the
#: production executor, ``"row"`` this reference.
ENGINES = ("row", "vectorized")


def use(session, engine):
    """Give ``session`` the executor of one sweep config; returns it."""
    if engine not in ENGINES:
        raise ValueError("unknown engine %r" % (engine,))
    if engine == "row":
        install(session)
    return session


def install(session):
    """Run this session's SELECTs through :class:`RowSelectExecutor`."""
    session.executor_class = RowSelectExecutor
    return session


def uninstall(session):
    """Undo :func:`install`: back to the production executor."""
    session.__dict__.pop("executor_class", None)


@contextmanager
def installed(session):
    """:func:`install` for the duration of a ``with`` block."""
    install(session)
    try:
        yield session
    finally:
        uninstall(session)
