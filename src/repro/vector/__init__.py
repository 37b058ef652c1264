"""Columnar batches for the vectorized execution engine.

A :class:`ColumnBatch` is the unit of work on the batch path: one Python
list per projected column plus a row count.  Readers produce batches
(ORC stripes decode straight into column lists, so a batch over a stripe
is zero-copy), expression closures evaluate whole columns at a time, and
operators that need row tuples (shuffle, joins) transpose at the edge.

Vectorization is a *wall-clock* optimization only: every simulated
charge, metric and result byte is identical to the row-at-a-time path
(see INTERNALS §8 for the determinism contract).

Batches that wrap cached ORC stripe columns share those lists with the
cache — treat every batch as immutable; filtering produces a new batch
via :meth:`ColumnBatch.take`.
"""

from itertools import islice

#: Default rows per batch; also the MaterializedSource split chunk size
#: (the two are deliberately one knob — see HiveSession.set_batch_rows).
DEFAULT_BATCH_ROWS = 20_000

#: Bounds for the session batch-size knob.  Below 64 rows the per-batch
#: Python overhead dominates and the engine degenerates to row-at-a-time
#: costs; above 1M rows a single batch can pin hundreds of MB of
#: intermediate columns.
MIN_BATCH_ROWS = 64
MAX_BATCH_ROWS = 1_048_576


def validate_batch_rows(batch_rows):
    """Validate and normalize the batch-size knob; returns an int."""
    try:
        value = int(batch_rows)
    except (TypeError, ValueError):
        raise ValueError("batch_rows must be an integer, got %r"
                         % (batch_rows,)) from None
    if not MIN_BATCH_ROWS <= value <= MAX_BATCH_ROWS:
        raise ValueError(
            "batch_rows must be between %d and %d, got %d"
            % (MIN_BATCH_ROWS, MAX_BATCH_ROWS, value))
    return value


class ColumnBatch:
    """A run of rows stored column-wise.

    ``columns``  — one list per projected column, all of length
                   ``length`` (zero-width batches carry row count only);
    ``row_base`` — ordinal of the first row within its source ORC file,
                   or None once provenance is lost (post-filter/merge).
    """

    __slots__ = ("columns", "length", "row_base")

    def __init__(self, columns, length, row_base=None):
        self.columns = columns
        self.length = length
        self.row_base = row_base

    def __len__(self):
        return self.length

    def rows(self):
        """Iterate row tuples (transposing at the batch boundary)."""
        if not self.columns:
            return iter([()] * self.length)
        return zip(*self.columns)

    def take(self, indices):
        """New batch holding only ``indices`` (in order); copies."""
        return ColumnBatch([[col[i] for i in indices]
                            for col in self.columns], len(indices))

    def drop_sorted(self, offsets):
        """New batch without the rows at sorted ``offsets``.

        One list copy per column, then C-level ``del`` per dropped row
        (highest offset first so earlier offsets stay valid), so the
        per-row cost beyond the copy scales with the number of
        *deletions* — the delta-merge accelerator's delete primitive.
        """
        reversed_offsets = offsets[::-1]
        columns = []
        for column in self.columns:
            out = list(column)
            for offset in reversed_offsets:
                del out[offset]
            columns.append(out)
        return ColumnBatch(columns, self.length - len(offsets))


def spliced(column, offsets, values, base=0):
    """A copy of ``column`` with ``values[i]`` written at
    ``offsets[i] - base`` — the sparse column-patch primitive."""
    out = list(column)
    for offset, value in zip(offsets, values):
        out[offset - base] = value
    return out


def batch_from_rows(rows, width):
    """One ColumnBatch from a list of row tuples."""
    if not rows:
        return ColumnBatch([[] for _ in range(width)], 0)
    if width == 0:
        return ColumnBatch([], len(rows))
    return ColumnBatch([list(col) for col in zip(*rows)], len(rows))


def batches_from_rows(rows, width, batch_rows=None):
    """Chunk row tuples (any iterable, consumed lazily) into
    ColumnBatches of at most ``batch_rows`` (default
    :data:`DEFAULT_BATCH_ROWS`)."""
    rows = iter(rows)
    while True:
        chunk = list(islice(rows, batch_rows or DEFAULT_BATCH_ROWS))
        if not chunk:
            return
        yield batch_from_rows(chunk, width)
