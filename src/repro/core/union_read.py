"""UNION READ: merge the Master-Table stream with Attached-Table deltas.

Both inputs arrive sorted by record ID (master rows by construction,
attached rows because HBase keys are record IDs), so the merge is a single
linear pass per master file — the "simple MapReduce algorithm using a
divide-and-conquer strategy" of Section III-C.

Every production read merges with the **overlay**
(:func:`union_read_overlay`): the file's sorted deltas are pre-resolved
into a :class:`DeltaOverlay` — sorted delete positions plus per-column
sparse patch lists — and applied to each ColumnBatch with binary search
and slice-level column surgery, so the merge cost scales with the number
of *deltas*, not the number of rows (cf. *Fast Updates on Read-Optimized
Databases Using Multi-Core CPUs*, arXiv:1109.6885).

The **row merges** (:func:`union_read_file` and :func:`union_read_batches`)
encode one record ID per master row and walk the delta iterator beside
it.  No production path calls them: they are the reference semantics the
overlay is differentially tested against (``tests/oracle/row_merge.py``,
tests/test_merge_overlay.py), and stay in this module because the
wall-clock benchmark (``perfbench/tracing.py``) times them by name.

The merge-stat contract (``deltas_applied`` / ``rows_deleted`` /
``deltas_skipped`` / ``trailing_deltas``) is shared by all three merges.
"""

from bisect import bisect_left, bisect_right
from itertools import chain

from repro.core.record_id import decode_record_id, encode_record_id
from repro.vector import ColumnBatch, batch_from_rows, spliced


def apply_update(values, updates, projection_map):
    """Apply one delta's update cells onto a projected row tuple.

    The single update-application loop of the two row merges
    (:func:`union_read_file` and :func:`union_read_batches`), so they
    cannot drift.  Update cells whose column is not projected are
    dropped (the delta still *counts* as applied; the caller owns the
    stats).
    """
    merged = list(values)
    for column_index, new_value in updates.items():
        position = projection_map.get(column_index)
        if position is not None:
            merged[position] = new_value
    return tuple(merged)


def union_read_file(file_id, orc_rows, delta_items, projection_map,
                    stats=None):
    """Merge one master file with its attached deltas, row at a time
    (the reference merge; see the module docstring).

    ``orc_rows``        — iterator of ``(row_number, values_tuple)`` from the
                          ORC reader (values in projection order);
    ``delta_items``     — iterator of ``(record_id, DeltaRecord)`` sorted by
                          record id, covering this file's key range;
    ``projection_map``  — ``{schema_column_index: projected_position}`` so
                          update cells can be applied onto projected tuples.
    ``stats``           — optional dict; on exhaustion holds the merge
                          counters ``deltas_applied``, ``rows_deleted``,
                          ``deltas_skipped`` and ``trailing_deltas``
                          (observability hooks, no cost impact).

    Yields ``(record_id, merged_values_tuple)`` with deleted rows skipped.

    Deltas whose record id never matches a master row cannot affect the
    output (UNION READ is master-driven), but silently dropping them
    hides real anomalies — an attached entry for a row COMPACT already
    folded away, or a file that shrank underneath its deltas.  They are
    therefore counted: ``deltas_skipped`` for ids passed over inside the
    master range, ``trailing_deltas`` for ids beyond the last master row
    (the iterator is drained so the count — and the backing scan's
    charges — are complete).
    """
    applied = 0
    deleted = 0
    skipped = 0
    trailing = 0
    delta_iter = iter(delta_items)
    current = next(delta_iter, None)
    try:
        for row_number, values in orc_rows:
            record_id = encode_record_id(file_id, row_number)
            while current is not None and current[0] < record_id:
                skipped += 1
                current = next(delta_iter, None)
            if current is not None and current[0] == record_id:
                delta = current[1]
                current = next(delta_iter, None)
                if delta.deleted:
                    deleted += 1
                    continue
                if delta.updates:
                    applied += 1
                    yield record_id, apply_update(values, delta.updates,
                                                  projection_map)
                    continue
            yield record_id, values
        while current is not None:
            trailing += 1
            current = next(delta_iter, None)
    finally:
        if stats is not None:
            stats["deltas_applied"] = applied
            stats["rows_deleted"] = deleted
            stats["deltas_skipped"] = skipped
            stats["trailing_deltas"] = trailing


def union_read_batches(file_id, orc_batches, delta_items, projection_map,
                       stats=None):
    """Columnar UNION READ, row-fallback flavor: per-row merge on dirty
    batches.

    Batch-path sibling of :func:`union_read_file`, yielding
    :class:`~repro.vector.ColumnBatch` objects instead of per-row
    ``(record_id, values)`` pairs.  The merge counters in ``stats`` are
    classified identically (``deltas_applied`` / ``rows_deleted`` /
    ``deltas_skipped`` / ``trailing_deltas``) — the two paths must agree
    exactly, whatever the delta distribution.

    The payoff is the **zero-delta fast path**: while the delta iterator
    is exhausted — or every remaining delta id lies beyond the current
    batch — the batch streams straight through with no merge loop and no
    per-row record-id encoding.  A fully compacted file therefore costs
    one comparison per *batch* instead of one id encode + compare per
    *row*.  Batches that do overlap a delta fall back to the row merge
    and are re-packed (deletes drop rows, updates patch them) — the
    overlay merge (:func:`union_read_overlay`) exists to avoid exactly
    that fallback; this function is kept as its correctness reference.
    """
    applied = 0
    deleted = 0
    skipped = 0
    trailing = 0
    delta_iter = iter(delta_items)
    current = next(delta_iter, None)
    try:
        for batch in orc_batches:
            if current is None:
                yield batch
                continue
            base = batch.row_base
            last_id = encode_record_id(file_id, base + batch.length - 1)
            if current[0] > last_id:
                yield batch
                continue
            merged_rows = []
            for offset, values in enumerate(batch.rows()):
                record_id = encode_record_id(file_id, base + offset)
                while current is not None and current[0] < record_id:
                    skipped += 1
                    current = next(delta_iter, None)
                if current is not None and current[0] == record_id:
                    delta = current[1]
                    current = next(delta_iter, None)
                    if delta.deleted:
                        deleted += 1
                        continue
                    if delta.updates:
                        applied += 1
                        merged_rows.append(apply_update(values, delta.updates,
                                                        projection_map))
                        continue
                merged_rows.append(values)
            if merged_rows:
                yield batch_from_rows(merged_rows, len(batch.columns))
        while current is not None:
            trailing += 1
            current = next(delta_iter, None)
    finally:
        if stats is not None:
            stats["deltas_applied"] = applied
            stats["rows_deleted"] = deleted
            stats["deltas_skipped"] = skipped
            stats["trailing_deltas"] = trailing


class DeltaOverlay:
    """One master file's deltas, pre-resolved for columnar application.

    All four members are derived from the file's sorted delta stream and
    express row *positions* (file-ordinal row numbers), so applying the
    overlay to a ColumnBatch is pure binary search over ``row_base``:

    ``positions``          — every delta row number, sorted (the merge
                             cursor for skipped/trailing accounting);
    ``delete_positions``   — rows with a DELETE marker, sorted;
    ``applied_positions``  — rows with live (non-deleted, non-empty)
                             updates, sorted — the ``deltas_applied``
                             population;
    ``patches``            — ``{schema_column_index: (positions, values)}``
                             sparse per-column patch lists over the live
                             updates (delete-marked rows excluded:
                             delete wins over update, exactly as in the
                             row merge).

    Overlays are immutable and memoized per (file, delta-epoch) in the
    delta-range cache (:meth:`AttachedTable.file_overlay`); callers must
    not mutate them.
    """

    __slots__ = ("positions", "delete_positions", "applied_positions",
                 "patches")

    def __init__(self, positions, delete_positions, applied_positions,
                 patches):
        self.positions = positions
        self.delete_positions = delete_positions
        self.applied_positions = applied_positions
        self.patches = patches

    def __len__(self):
        return len(self.positions)


class RowNumbers:
    """The file row numbers of a batch the overlay dropped rows from:
    ``range(base, end)`` minus the sorted ``deleted`` positions.

    A lazy sequence, so scans, which never look at it, pay nothing per
    row.  The EDIT plan's locate indexes it for the rows its WHERE
    matched (one binary search over the deletes each) or iterates it
    when every row matched.
    """

    __slots__ = ("base", "end", "deleted", "_before")

    def __init__(self, base, end, deleted):
        self.base = base
        self.end = end
        self.deleted = deleted
        self._before = None

    def __len__(self):
        return self.end - self.base - len(self.deleted)

    def __getitem__(self, index):
        before = self._before
        if before is None:
            # Surviving rows ahead of each deleted position (ascending).
            before = self._before = [position - self.base - j for j, position
                                     in enumerate(self.deleted)]
        return self.base + index + bisect_right(before, index)

    def __iter__(self):
        starts = [self.base] + [position + 1 for position in self.deleted]
        return chain.from_iterable(
            map(range, starts, self.deleted + [self.end]))


def build_overlay(items):
    """Resolve one file's sorted ``(record_id, DeltaRecord)`` items into
    a :class:`DeltaOverlay` — one :func:`decode_record_id` per *delta*
    instead of one :func:`encode_record_id` per master *row*."""
    positions = []
    delete_positions = []
    applied_positions = []
    patches = {}
    for record_id, delta in items:
        _, row_number = decode_record_id(record_id)
        positions.append(row_number)
        if delta.deleted:
            delete_positions.append(row_number)
            continue
        if not delta.updates:
            continue   # noop delta: matches a master row, changes nothing
        applied_positions.append(row_number)
        for column_index, new_value in delta.updates.items():
            entry = patches.get(column_index)
            if entry is None:
                entry = patches[column_index] = ([], [])
            entry[0].append(row_number)
            entry[1].append(new_value)
    return DeltaOverlay(positions, delete_positions, applied_positions,
                        patches)


def union_read_overlay(file_id, orc_batches, overlay, projection_map,
                       stats=None):
    """Columnar UNION READ, overlay flavor: vectorized delta application.

    Semantically identical to :func:`union_read_batches` (same yielded
    rows, same ``stats`` dict), but a dirty batch costs binary searches
    plus slice-level column surgery instead of a per-row record-id merge:

    * patched columns are rebuilt once with :func:`repro.vector.spliced`
      (sparse position/value writes on a single list copy);
    * deleted rows are dropped in place on that same copy (untouched
      columns are copied first), so a batch with both patches and
      deletes still costs exactly one copy per column;
    * columns a batch neither patches nor shrinks are shared with the
      source batch zero-copy.

    A batch no delta position falls into streams through unchanged —
    the zero-delta fast path now costs one ``bisect`` per batch.

    Yields ``(batch, row_numbers)`` pairs: ``row_numbers[i]`` is the
    file-ordinal row number of the batch's row ``i`` — the batch's
    ``range`` when it lost no rows, else that range minus the overlay's
    delete positions (a lazy :class:`RowNumbers`).  Scans take the batch
    only; the EDIT plan encodes record ids from the row numbers of the
    rows it matched.
    """
    applied = 0
    deleted = 0
    skipped = 0
    trailing = 0
    positions = overlay.positions
    deletes = overlay.delete_positions
    updates = overlay.applied_positions
    cursor = 0   # first delta position not yet accounted for
    try:
        for batch in orc_batches:
            base = batch.row_base
            end = base + batch.length
            lo = bisect_left(positions, base, cursor)
            skipped += lo - cursor
            hi = bisect_left(positions, end, lo)
            cursor = hi
            if lo == hi:
                yield batch, range(base, end)
                continue
            d_lo = bisect_left(deletes, base)
            d_hi = bisect_left(deletes, end, d_lo)
            deleted += d_hi - d_lo
            a_lo = bisect_left(updates, base)
            a_hi = bisect_left(updates, end, a_lo)
            applied += a_hi - a_lo
            patched = None
            for column_index, (p_positions, p_values) in \
                    overlay.patches.items():
                position = projection_map.get(column_index)
                if position is None:
                    continue
                p_lo = bisect_left(p_positions, base)
                p_hi = bisect_left(p_positions, end, p_lo)
                if p_lo == p_hi:
                    continue
                if patched is None:
                    patched = list(batch.columns)
                patched[position] = spliced(batch.columns[position],
                                            p_positions[p_lo:p_hi],
                                            p_values[p_lo:p_hi], base=base)
            if d_lo == d_hi:
                if patched is None:
                    # Only noop or unprojected-update matches: content is
                    # unchanged; hand the source batch through.
                    yield batch, range(base, end)
                else:
                    yield ColumnBatch(patched, batch.length), range(base, end)
                continue
            survivors = batch.length - (d_hi - d_lo)
            if survivors == 0:
                continue   # every row deleted; empty batches are not yielded
            dropped = deletes[d_lo:d_hi]
            # Highest offset first so earlier deletes keep their index.
            offsets = [p - base for p in reversed(dropped)]
            source = batch.columns
            columns = patched if patched is not None else list(source)
            for position, column in enumerate(columns):
                if column is source[position]:
                    column = columns[position] = list(column)
                for offset in offsets:
                    del column[offset]
            yield (ColumnBatch(columns, survivors),
                   RowNumbers(base, end, dropped))
        trailing = len(positions) - cursor
    finally:
        if stats is not None:
            stats["deltas_applied"] = applied
            stats["rows_deleted"] = deleted
            stats["deltas_skipped"] = skipped
            stats["trailing_deltas"] = trailing


def classify_merge_units(spans, positions):
    """``(fast_units, dirty_units)`` over a file's merge-unit grid.

    ``spans`` are the surviving stripes' ``(first_row, num_rows)`` pairs
    — the canonical merge-unit grid, independent of engine and of the
    session batch-size knob — and ``positions`` the file's sorted delta
    row numbers.  A unit any delta position falls into is *dirty* (the
    merge strategy must do per-delta work there); the rest stream
    through the fast path.  Pure control-plane arithmetic: no charges,
    byte-identical across engines and shards.
    """
    fast = 0
    dirty = 0
    for first_row, num_rows in spans:
        lo = bisect_left(positions, first_row)
        if lo < len(positions) and positions[lo] < first_row + num_rows:
            dirty += 1
        else:
            fast += 1
    return fast, dirty

