"""Reference UNION READ: the per-row record-id merge.

Every production read merges a master file with its deltas through the
columnar overlay (:func:`repro.core.union_read.union_read_overlay`).  The
row merges it replaced — :func:`repro.core.union_read.union_read_file`
(one encoded record id per master row) and
:func:`repro.core.union_read.union_read_batches` (the same loop on the
dirty batches only) — are kept as the reference semantics.  This module
holds the handler read methods that used them, for the differential
tests and for ``scripts/bench_merge.py``'s row-merge timing.

:func:`install` swaps them into one handler instance (each child of a
sharded handler): ``read_split`` and ``read_split_with_rids`` then merge
row at a time, ``read_split_batches`` re-packs dirty batches row at a
time, so SELECT under either engine, LOOKUP, COMPACT and MERGE INTO all
read through the row merge.  The EDIT plan's locate
(:meth:`~repro.core.handler.DualTableHandler.locate_split`) stays on the
overlay.  Charges and counters are the production ones: the per-file
setup below is the handler's, except that it keeps the scanned delta
items the row merges walk.
"""

from contextlib import contextmanager
from functools import partial

from repro.core.union_read import (classify_merge_units, union_read_batches,
                                   union_read_file)
from repro.hive.pushdown import make_stripe_filter

#: the handler read methods :func:`install` replaces.
METHODS = ("read_split", "read_split_with_rids", "read_split_batches")


def prepare(handler, file_id, reader, stripe_filter):
    """The handler's per-file merge setup, returning the delta items.

    Scans (and charges) the file's deltas once, builds the memoized
    overlay from them exactly as production does — so the delta cache
    sees the same gets and puts — and notes the merge units.
    """
    attached = handler.attached
    items = list(attached.scan_file(file_id))
    overlay = attached.file_overlay(file_id, items=items)
    spans = [(s.first_row, s.num_rows) for s in reader.stripes
             if stripe_filter is None or stripe_filter(s)]
    handler._note_merge_units(*classify_merge_units(spans,
                                                    overlay.positions))
    return items


@contextmanager
def _file_read(handler, split):
    """Open one split's master file inside its ``union-read`` span;
    yields ``(span, reader, stripe_filter, projection_map)``."""
    payload = split.payload
    with handler.env.cluster.tracer.span(
            "substrate", "union-read:%d" % payload["file_id"],
            path=payload["path"]) as span:
        reader = handler.master.reader(payload["path"])
        stripe_filter = make_stripe_filter(
            [n for n, _ in reader.schema], payload["ranges"] or {})
        projection_map = handler._projection_map(payload["projection"])
        yield span, reader, stripe_filter, projection_map


def read_split_with_rids(handler, split, ctx):
    """UNION READ of one split, row at a time: ``(record_id, values)``."""
    payload = split.payload
    with _file_read(handler, split) as (span, reader, stripe_filter,
                                        projection_map):
        orc_rows = reader.rows(projection=payload["projection"],
                               stripe_filter=stripe_filter)
        items = prepare(handler, payload["file_id"], reader, stripe_filter)
        stats = {}
        nrows = 0
        for item in union_read_file(payload["file_id"], orc_rows, items,
                                    projection_map, stats=stats):
            nrows += 1
            yield item
        handler._note_union_read(span, nrows, stats)


def read_split(handler, split, ctx):
    for _, values in read_split_with_rids(handler, split, ctx):
        yield values


def read_split_batches(handler, split, ctx, batch_rows=None):
    """UNION READ of one split with the row-fallback batch merge."""
    payload = split.payload
    with _file_read(handler, split) as (span, reader, stripe_filter,
                                        projection_map):
        orc_batches = reader.batches(projection=payload["projection"],
                                     stripe_filter=stripe_filter,
                                     batch_rows=batch_rows)
        items = prepare(handler, payload["file_id"], reader, stripe_filter)
        stats = {}
        nrows = 0
        for batch in union_read_batches(payload["file_id"], orc_batches,
                                        items, projection_map, stats=stats):
            nrows += batch.length
            yield batch
        handler._note_union_read(span, nrows, stats)


def _targets(handler):
    return getattr(handler, "children", None) or [handler]


def install(handler):
    """Route one handler's reads (every shard's) through the row merge."""
    for target in _targets(handler):
        for name, method in zip(METHODS, (read_split, read_split_with_rids,
                                          read_split_batches)):
            setattr(target, name, partial(method, target))


def uninstall(handler):
    """Undo :func:`install`: back to the production overlay reads."""
    for target in _targets(handler):
        for name in METHODS:
            target.__dict__.pop(name, None)


@contextmanager
def installed(handler):
    """:func:`install` for the duration of a ``with`` block."""
    install(handler)
    try:
        yield handler
    finally:
        uninstall(handler)
