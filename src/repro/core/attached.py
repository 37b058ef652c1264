"""The Attached Table: HBase-backed store of row modifications.

Data layout (Section V-B):

* HBase row key   = the DualTable record ID (sorted == master order),
* UPDATE info     = one cell per updated field; the qualifier encodes the
  Hive column number, the cell value the new field value,
* DELETE info     = a special marker cell (``D``) in the record's row.

HBase multi-versioning tracks the change history of each field for free —
the paper calls this out as an advantage over Hive ACID deltas.
"""

import struct

from dataclasses import dataclass, field

from repro.core.record_id import file_key_range
from repro.hive.valuecodec import decode_value, encode_value

DELETE_MARKER = b"D"
_UPDATE_PREFIX = b"u"


def update_qualifier(column_index):
    return _UPDATE_PREFIX + struct.pack(">H", column_index)


def parse_qualifier(qualifier):
    """Return ('delete', None) or ('update', column_index)."""
    if qualifier == DELETE_MARKER:
        return "delete", None
    if qualifier[:1] == _UPDATE_PREFIX and len(qualifier) == 3:
        return "update", struct.unpack(">H", qualifier[1:])[0]
    return "unknown", None


@dataclass
class DeltaRecord:
    """Resolved modification state of one record ID."""

    deleted: bool = False
    updates: dict = field(default_factory=dict)   # column_index -> value


class AttachedTable:
    """Client API over the per-DualTable attached store.

    The default backend is HBase (the paper's implementation); passing
    ``backend="btree"`` stores modifications in the simulated MySQL-style
    B-tree row store instead — the "other storage options for the
    Attached Table" the paper leaves as future work.  Both backends share
    the HTable client surface, so everything above this class is
    backend-agnostic.
    """

    def __init__(self, hbase_service, name, backend="hbase"):
        if backend not in ("hbase", "btree"):
            raise ValueError("unknown attached backend %r" % backend)
        self._service = hbase_service
        self.name = name
        self.backend = backend
        self._btree = None

    def create(self):
        if self.backend == "hbase":
            self._service.ensure_table(self.name)
        elif self._btree is None:
            from repro.kvstore import BTreeTable
            self._btree = BTreeTable(self._service.cluster, self.name)

    def drop(self):
        if self.backend == "hbase":
            if self._service.has_table(self.name):
                self._service.drop_table(self.name)
        else:
            self._btree = None

    def _htable(self):
        if self.backend == "hbase":
            return self._service.table(self.name)
        if self._btree is None:
            raise RuntimeError("attached btree store not created")
        return self._btree

    def ensure_available(self):
        """Run any pending WAL recovery now (and charge it), so later
        reads — cache fills under capture included — see a recovered
        store and never record the replay charge into a cache entry."""
        if self.backend == "hbase":
            self._service.ensure_available()

    def rates(self, profile):
        """Device rates of this backend, for the cost evaluator."""
        from repro.core.cost_model import AttachedRates

        if self.backend == "hbase":
            return AttachedRates.from_hbase_profile(profile)
        store = self._htable()
        return AttachedRates(write_bps=store.write_bps,
                             read_bps=store.read_bps,
                             op_latency_s=store.op_latency_s,
                             scan_row_latency_s=store.op_latency_s / 16,
                             page_bytes=store.page_bytes,
                             page_locality=store.page_locality)

    def _delta_cache(self):
        return getattr(self._service.cluster, "delta_cache", None)

    def _invalidate_cache(self):
        cache = self._delta_cache()
        if cache is not None:
            cache.invalidate_group(self.name)

    # ------------------------------------------------------------------
    # Writes (the EDIT plan's UDTF calls).
    # ------------------------------------------------------------------
    def put_update(self, record_id, new_values):
        """Store new field values: ``{column_index: python_value}``."""
        self._invalidate_cache()
        payload = {update_qualifier(idx): encode_value(val)
                   for idx, val in new_values.items()}
        self._htable().put(record_id, payload)

    def put_delete(self, record_id):
        """Store a DELETE marker for one record."""
        self._invalidate_cache()
        self._htable().put(record_id, {DELETE_MARKER: b"1"})

    # ------------------------------------------------------------------
    # Reads (the UNION READ merge input).
    # ------------------------------------------------------------------
    def scan_file(self, file_id):
        """Yield ``(record_id, DeltaRecord)`` for one master file, sorted.

        The per-file result is memoized in the cluster's delta-range
        cache together with the charges the materializing scan recorded;
        a hit replays those charges verbatim, so simulated time is
        byte-identical either way.  Every mutation path — ``put_update``,
        ``put_delete``, ``clear`` (EDIT commit, COMPACT, INSERT
        OVERWRITE, WAL-recovery replay) and a region-server crash —
        drops the table's entries, so a hit always reflects current
        content.  Cached DeltaRecords are shared: callers must not
        mutate them.
        """
        start, stop = file_key_range(file_id)
        cache = self._delta_cache()
        cluster = self._service.cluster
        if cache is None or cache.budget_bytes <= 0:
            return self.scan_range(start, stop)
        key = (self.name, self.backend, file_id)
        cached = cache.get(key)
        if cached is not None:
            items, recorder = cached
            recorder.replay(cluster)
            return iter(items)
        # Trigger any pending WAL recovery *before* capturing, so the
        # replay charge applies once globally instead of being stored in
        # (and re-charged from) the cache entry.
        self.ensure_available()
        with cluster.capture() as recorder:
            items = list(self.scan_range(start, stop))
        recorder.replay(cluster)
        nbytes = sum(len(record_id) + 24 + 40 * len(delta.updates)
                     for record_id, delta in items) + 64
        cache.put(key, (items, recorder), nbytes=nbytes)
        return iter(items)

    def file_overlay(self, file_id, items=None):
        """The file's :class:`~repro.core.union_read.DeltaOverlay`,
        memoized per delta-epoch.

        ``items`` is the already-materialized (and already-charged)
        result of :meth:`scan_file` — building the overlay is pure CPU
        re-arrangement of data the scan paid for, so this method charges
        nothing; when ``items`` is omitted the charged scan runs here.

        The overlay is cached keyed ``(table, backend, file_id,
        "overlay")`` in the same delta-range cache as :meth:`scan_file`
        results and the presence index, so every existing invalidation
        path — ``put_update`` / ``put_delete`` / ``clear`` /
        ``clear_file`` via ``_invalidate_cache``, a region-server crash
        clearing the whole cache, LRU eviction — covers it for free; a
        stale overlay is impossible by construction.  Overlays are
        shared: callers must not mutate them.
        """
        from repro.core.union_read import build_overlay

        cache = self._delta_cache()
        key = None
        if cache is not None and cache.budget_bytes > 0:
            key = (self.name, self.backend, file_id, "overlay")
            cached = cache.get(key)
            if cached is not None:
                return cached
        if items is None:
            items = list(self.scan_file(file_id))
        overlay = build_overlay(items)
        if key is not None:
            npatch = sum(len(p[0]) for p in overlay.patches.values())
            nbytes = 64 + 16 * (len(overlay.positions)
                                + len(overlay.delete_positions)
                                + len(overlay.applied_positions)) \
                + 48 * npatch
            cache.put(key, overlay, nbytes=nbytes)
        return overlay

    def scan_range(self, start=None, stop=None):
        for record_id, cells in self._htable().scan(start, stop):
            yield record_id, self._resolve(cells)

    def get(self, record_id):
        cells = self._htable().get(record_id)
        if cells is None:
            return None
        return self._resolve(cells)

    @staticmethod
    def _resolve(cells):
        delta = DeltaRecord()
        for qualifier, value in cells.items():
            kind, column_index = parse_qualifier(qualifier)
            if kind == "delete":
                delta.deleted = True
            elif kind == "update":
                delta.updates[column_index] = decode_value(value)
        return delta

    def history(self, record_id, versions=10):
        """Multi-version change history of one record's fields."""
        cells = self._htable().get(record_id, versions=versions)
        if cells is None:
            return {}
        out = {}
        for qualifier, entries in cells.items():
            kind, column_index = parse_qualifier(qualifier)
            if kind != "update":
                continue
            out[column_index] = [(ts, decode_value(v)) for ts, v in entries]
        return out

    # ------------------------------------------------------------------
    # Stats / maintenance.
    # ------------------------------------------------------------------
    @property
    def size_bytes(self):
        return self._htable().store_bytes

    def is_empty(self):
        return self._htable().is_empty()

    def has_entries_in_file(self, file_id):
        """Metadata-level check used to decide if stripe pruning is safe."""
        return self.file_delta_stats(file_id)[0] > 0

    def file_delta_stats(self, file_id):
        """``(delta_bytes, delta_entries)`` for one master file.

        Control-plane metadata (uncharged), like the key-range scans it
        wraps — the compaction policy consults it for every candidate
        file on every decision, and scan planning asks it per file to
        decide whether stripe pruning (and the batch path's zero-delta
        fast path) is safe.

        The answer is memoized as a **delta-presence index** in the
        delta-range cache, keyed ``(table, backend, file_id,
        "presence")`` — one entry per master file recording how many
        delta bytes/entries sit in its record-id key range.  Storing it
        in the same cache as :meth:`scan_file` results means every
        existing invalidation path (``put_update`` / ``put_delete`` /
        ``clear`` / ``clear_file`` via ``_invalidate_cache``, HBase
        COMPACT's group invalidation, a region-server crash clearing
        the whole cache, LRU eviction) covers the index for free; a
        stale presence answer is impossible by construction.
        """
        cache = self._delta_cache()
        key = None
        if cache is not None and cache.budget_bytes > 0:
            key = (self.name, self.backend, file_id, "presence")
            cached = cache.get(key)
            if cached is not None:
                return cached
        start, stop = file_key_range(file_id)
        table = self._htable()
        stats = (table.bytes_in_range(start, stop),
                 table.rows_in_range(start, stop))
        if key is not None:
            cache.put(key, stats, nbytes=64)
        return stats

    def pk_dirty_in_file(self, file_id, column_index):
        """True if any delta in this file rewrites the PK column itself.

        Stripe pruning by primary-key min/max on a file *with* deltas is
        still sound as long as no delta moves a row across PK ranges —
        non-PK updates cannot change which stripe a key lives in, and
        deletes of pruned rows are irrelevant.  The one unsound case is
        an UPDATE that sets the PK column: the LOOKUP planner must read
        such a file in full.  Control-plane metadata (uncharged, via
        ``scan_silent``) memoized beside the presence index so every
        cache-invalidation path covers it for free.
        """
        cache = self._delta_cache()
        key = None
        if cache is not None and cache.budget_bytes > 0:
            key = (self.name, self.backend, file_id, "pk-dirty",
                   column_index)
            cached = cache.get(key)
            if cached is not None:
                return cached
        start, stop = file_key_range(file_id)
        dirty = False
        for _, cells in self._htable().scan_silent(start, stop):
            for qualifier in cells:
                kind, col = parse_qualifier(qualifier)
                if kind == "update" and col == column_index:
                    dirty = True
                    break
            if dirty:
                break
        if key is not None:
            cache.put(key, dirty, nbytes=64)
        return dirty

    def entry_count(self):
        return self._htable().count_rows()

    def clear(self):
        self._invalidate_cache()
        self._htable().truncate()

    def clear_file(self, file_id):
        """Delete every delta of one master file; charged and idempotent.

        Unlike :meth:`clear` (a free HBase ``truncate``), dropping one
        file's key range is a real data-path operation: a charged scan
        materializes the record IDs, then each row is deleted at per-op
        cost.  Partial COMPACT pays this asymmetry by design — it is the
        price of keeping every other file's deltas.  Returns the number
        of rows deleted.
        """
        self._invalidate_cache()
        start, stop = file_key_range(file_id)
        table = self._htable()
        doomed = [record_id for record_id, _ in table.scan(start, stop)]
        for record_id in doomed:
            table.delete_row(record_id)
        # Range-scoped reclaim: without it the HBase backend would count
        # the delete tombstones in ``bytes_in_range`` forever and stripe
        # pruning for this file would never re-enable.
        table.reclaim_range(start, stop)
        return len(doomed)
