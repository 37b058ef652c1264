"""DualTableHandler: the hybrid storage model, wired into Hive.

One DualTable = one Master Table (ORC on HDFS) + one Attached Table
(HBase) + the cost-model based UPDATE/DELETE execution and COMPACT
(Sections III and V of the paper).

Reads are UNION READs: each master file is one input split; its mapper
merges the sorted ORC row stream with the sorted Attached-Table delta
stream for that file's record-ID range.  Stripe pruning is applied only
when the Attached Table holds no entries for the file (otherwise an
updated field could move a row into the predicate's range and pruning
would be unsound).
"""

import itertools
import json

from repro.common.errors import CompactionInProgressError, DualTableError
from repro.mapreduce import InputSplit, Job
from repro.hive.catalog import register_handler
from repro.hive.expressions import Env, compile_expr, is_true, referenced_columns
from repro.hive.pushdown import (estimate_selection, extract_ranges,
                                 make_stripe_filter)
from repro.hive.session import QueryResult
from repro.hive.storage.base import StorageHandler
from repro.hive.vexpr import compile_batch, compile_batch_predicate
from repro.core.attached import AttachedTable
from repro.core.cost_model import CostModel
from repro.core.editlog import (EditBatch, recover_edit_logs,
                                run_with_retries)
from repro.core.lookup import plan_lookup, run_lookup
from repro.core.master import MasterTable
from repro.core.metadata import DualTableMetadata
from repro.core.record_id import RECORD_ID_BYTES, encode_record_id
from repro.core.udtf import delete_udtf, update_udtf
from repro.core.union_read import classify_merge_units, union_read_overlay
from repro.vector import ColumnBatch

#: per-assignment Attached-Table payload estimate: 3-byte qualifier +
#: ~10-byte encoded value + cell overhead.
_UPDATE_CELL_BYTES = 18


class DualTableHandler(StorageHandler):
    """The paper's hybrid storage model as a Hive storage handler."""

    kind = "dualtable"
    supports_inplace_mutation = False   # mutation goes through plans
    #: map-slot widening of this table's scans (see the sharded handler)
    shard_fanout = 1

    def __init__(self, table, env):
        super().__init__(table, env)
        props = table.properties
        self.metadata = DualTableMetadata(env.hbase)
        self.master = MasterTable(
            fs=env.fs,
            location="/warehouse/%s/master" % table.name,
            schema=table.schema,
            metadata_manager=self.metadata,
            table_name=table.name,
            rows_per_file=int(props.get("orc.rows_per_file", 50_000)),
            stripe_rows=int(props.get("orc.stripe_rows", 5_000)),
        )
        self.attached = AttachedTable(
            env.hbase, "dt_%s_attached" % table.name,
            backend=str(props.get("dualtable.attached", "hbase")).lower())
        self.mode = str(props.get("dualtable.mode", "cost")).lower()
        if self.mode not in ("cost", "edit", "overwrite"):
            raise DualTableError("bad dualtable.mode: %r" % self.mode)
        self.read_factor = int(props.get("dualtable.read_factor", 1))
        pk = props.get("dualtable.primary_key")
        self.primary_key = str(pk).lower() if pk else None
        self.lookup_rows_limit = int(props.get("dualtable.lookup.max_rows",
                                               10_000))
        self._compacting = False
        # Crash-recovery bookkeeping: the EDIT-plan redo-log directory
        # and the COMPACT two-phase-commit paths (all siblings of the
        # master directory, never inside it).
        base = "/warehouse/%s" % table.name
        self.txn_dir = base + "/txn"
        self._compact_tmp = base + "/master.__compact__"
        self._compact_old = base + "/master.__old__"
        self._manifest_path = base + "/compact.manifest"
        self._txn_ids = itertools.count(1)
        #: what an EditBatch stages and publishes through
        self._batch_target = self

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def create(self):
        self.master.create()
        self.attached.create()
        self.metadata.register_table(self.table.name)

    def drop(self):
        self.master.drop()
        self.attached.drop()
        self.metadata.unregister_table(self.table.name)
        for path in (self._manifest_path, self._compact_tmp,
                     self._compact_old, self.txn_dir):
            if self.env.fs.exists(path):
                self.env.fs.delete(path, recursive=True)

    def _check_not_compacting(self):
        if self._compacting:
            raise CompactionInProgressError(
                "COMPACT in progress on %s" % self.table.name)

    # ------------------------------------------------------------------
    # Crash recovery.
    # ------------------------------------------------------------------
    def recover(self):
        """Finish any interrupted COMPACT or EDIT commit; idempotent.

        Every public entry point calls this first, so a table whose last
        statement crashed mid-commit heals on the next access.  Returns
        ``{"compact": <"rolled_forward"|"rolled_back"|"clean">,
        "dml": [(staging_path, outcome), ...]}``.
        """
        outcome = {"compact": self._recover_compact(),
                   "dml": recover_edit_logs(self)}
        self.note_attached_bytes()
        return outcome

    def _ensure_recovered(self):
        if self._compacting:
            return   # mid-commit state is normal while COMPACT runs
        fs = self.env.fs
        if fs.exists(self._manifest_path) or fs.exists(self._compact_tmp) \
                or fs.exists(self._compact_old):
            self._recover_compact()
        if fs.exists(self.txn_dir) and fs.list_files(self.txn_dir):
            recover_edit_logs(self)

    def _recover_compact(self):
        """Roll an interrupted COMPACT forward or back.

        The manifest is the commit point: if it exists (and is valid) the
        new master files are all durable, so recovery *completes* the
        swap; if not, the half-written ``__compact__`` directory is
        discarded and the old master + Attached Table still hold the
        table intact.
        """
        fs = self.env.fs
        if fs.exists(self._manifest_path):
            manifest = self._load_valid_manifest()
            if manifest is not None:
                if manifest.get("mode") == "partial":
                    self._complete_partial_compact(manifest)
                else:
                    self._complete_compact()
                return "rolled_forward"
            fs.delete(self._manifest_path)
        rolled_back = False
        if fs.exists(self._compact_tmp):
            fs.delete(self._compact_tmp, recursive=True)
            rolled_back = True
        if fs.exists(self._compact_old):
            if fs.exists(self.master.location):
                fs.delete(self._compact_old, recursive=True)
            else:
                # Unreachable by protocol order (old is deleted before
                # the manifest), but never discard the only master copy.
                fs.rename(self._compact_old, self.master.location)
            rolled_back = True
        if rolled_back:
            self._invalidate_master_cache()
        return "rolled_back" if rolled_back else "clean"

    def _load_valid_manifest(self):
        """The COMPACT manifest as a dict, or None if absent/torn."""
        fs = self.env.fs
        if not fs.exists(self._manifest_path):
            return None
        try:
            manifest = json.loads(
                fs.read_file(self._manifest_path).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(manifest, dict) \
                or manifest.get("table") != self.table.name:
            return None
        return manifest

    # ------------------------------------------------------------------
    # Writes.
    # ------------------------------------------------------------------
    def _invalidate_master_cache(self):
        """Drop cached ORC footers/stripes under the master directory.

        The ORC cache key is content-exact (length + CRC of the file
        bytes), so stale *hits* are impossible even without this — the
        hook exists to release entries for replaced files immediately
        instead of waiting for LRU pressure.
        """
        cache = getattr(self.env.cluster, "orc_cache", None)
        if cache is not None:
            cache.invalidate_group(self.master.location)

    def insert_rows(self, rows, overwrite=False):
        self._check_not_compacting()
        self._ensure_recovered()
        rows = list(rows)
        if overwrite:
            self.master.replace_with(rows)
            self.attached.clear()
            self._invalidate_master_cache()
            self.note_attached_bytes()
        else:
            self.master.write_rows(rows)
        return len(rows)

    def note_attached_bytes(self):
        """Refresh the live per-table Attached-Table size gauge.

        Every path that grows or shrinks the Attached Table calls this,
        so the auto-compaction daemon and SHOW METRICS see delta
        accumulation between compactions, not just the post-COMPACT zero.
        """
        self.env.cluster.metrics.gauge(
            "dualtable.attached_bytes.%s" % self.table.name,
            self.attached.size_bytes)

    # ------------------------------------------------------------------
    # Reads (UNION READ).
    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        self._check_not_compacting()
        self._ensure_recovered()
        # Recover the Attached store up front, so a pending WAL replay is
        # charged once, before any split below looks at key ranges.
        self.attached.ensure_available()
        # Per-table read counter: the maintenance stats collector derives
        # the read horizon from the scans-vs-DML mix.
        self.env.cluster.metrics.incr("dualtable.scans.%s" % self.table.name)
        projection_list = list(projection) if projection else None

        def split_for(path):
            reader = self.master.reader(path)
            file_id = int(reader.metadata["dualtable.file_id"])
            prune_safe = not self.attached.has_entries_in_file(file_id)
            return InputSplit(
                payload={"path": path, "file_id": file_id,
                         "projection": projection_list,
                         "ranges": (ranges or {}) if prune_safe else {},
                         "prune_safe": prune_safe},
                size_bytes=reader.projected_bytes(projection_list),
                label=path)

        splits = [split_for(path) for path in self.master.file_paths()]
        # Workload-profile hook: per-table scanned-bytes histogram (the
        # advisor's "bytes read" axis).  Split sizes are control-plane
        # metadata, identical for either engine.
        self.env.cluster.metrics.observe(
            "dualtable.scan_bytes.%s" % self.table.name,
            sum(split.size_bytes for split in splits))
        return splits

    def read_split(self, split, ctx):
        for batch in self.read_split_batches(split, ctx):
            yield from batch.rows()

    def _prepare_union_read(self, file_id, reader, stripe_filter):
        """Per-file merge setup: the file's memoized
        :class:`~repro.core.union_read.DeltaOverlay`.

        Materializes the (charged) delta scan before resolving it into
        the overlay — a cached overlay must not skip the scan's charges —
        and classifies the file's merge units (``unionread.batches_*``
        counters) on the canonical per-stripe grid.  Eager
        materialization reorders the delta-scan charges relative to the
        interleaved master reads, which is ledger-neutral: charges
        accumulate per (device, category) key, so only per-key order —
        unchanged — matters.
        """
        items = list(self.attached.scan_file(file_id))
        overlay = self.attached.file_overlay(file_id, items=items)
        spans = [(s.first_row, s.num_rows) for s in reader.stripes
                 if stripe_filter is None or stripe_filter(s)]
        fast, dirty = classify_merge_units(spans, overlay.positions)
        self._note_merge_units(fast, dirty)
        return overlay

    def _note_merge_units(self, fast, dirty):
        """Merge-unit accounting: how much of the scanned stripe grid
        streamed through the fast path vs needed delta work.

        The unit grid is per *stripe* — control-plane arithmetic over
        footer spans and delta positions, so the counts are
        byte-identical across engines, shards and the batch-size
        knob.  Dirty units are the ones the overlay patches
        (``batches_overlay``).
        """
        metrics = self.env.cluster.metrics
        table = self.table.name
        if fast:
            metrics.incr("unionread.batches_fast", fast)
            metrics.incr("unionread.batches_fast.%s" % table, fast)
        if dirty:
            metrics.incr("unionread.batches_overlay", dirty)
            metrics.incr("unionread.batches_overlay.%s" % table, dirty)

    def read_split_with_rids(self, split, ctx):
        """UNION READ of one master file: yields (record_id, values).

        The record ids are encoded from the overlay's row numbers, so
        only callers that need them (MERGE INTO) pay for the encode.
        """
        file_id = split.payload["file_id"]
        for batch, row_numbers in self._merged_batches(split, None):
            for row_number, values in zip(row_numbers, batch.rows()):
                yield encode_record_id(file_id, row_number), values

    def read_split_batches(self, split, ctx, batch_rows=None):
        """Columnar UNION READ of one master file.

        Every DualTable read comes through here or
        :meth:`_merged_batches`: SELECT under either engine, LOOKUP,
        COMPACT, MERGE INTO and the EDIT plan's :meth:`locate_split`.
        Each pays the footer + stripe-column bytes via the ORC reader,
        the delta scan via ``scan_file``, the per-output-row
        ``unionread`` CPU charge and the ``unionread.*`` metrics.
        Clean batches stream through the zero-delta fast path; dirty
        ones are patched by the columnar overlay (INTERNALS §14).
        """
        for batch, _ in self._merged_batches(split, batch_rows):
            yield batch

    def _merged_batches(self, split, batch_rows):
        """``(batch, row_numbers)`` pairs of one split's UNION READ;
        ``row_numbers`` are the batch rows' file-ordinal row numbers."""
        payload = split.payload
        cluster = self.env.cluster
        with cluster.tracer.span("substrate",
                                 "union-read:%d" % payload["file_id"],
                                 path=payload["path"]) as span:
            reader = self.master.reader(payload["path"])
            projection = payload["projection"]
            stripe_filter = make_stripe_filter(
                [n for n, _ in reader.schema], payload["ranges"] or {})
            orc_batches = reader.batches(projection=projection,
                                         stripe_filter=stripe_filter,
                                         batch_rows=batch_rows)
            projection_map = self._projection_map(projection)
            overlay = self._prepare_union_read(
                payload["file_id"], reader, stripe_filter)
            stats = {}
            nrows = 0
            for pair in union_read_overlay(payload["file_id"], orc_batches,
                                           overlay, projection_map,
                                           stats=stats):
                nrows += pair[0].length
                yield pair
            self._note_union_read(span, nrows, stats)

    def locate_split(self, split, ctx, predicate, batch_rows):
        """The EDIT plan's locate step: the rows of one split a WHERE
        matches, as ``(record_ids, batch)`` pairs.

        Reads the overlay-merged batches a scan reads (same charges and
        counters) with the row numbers appended as one trailing column,
        which the predicate ``env`` never references — so ``predicate`` (a
        :func:`~repro.hive.vexpr.compile_batch_predicate` closure, or
        None for every row) carries them through its filter.  Record
        ids are encoded for the matched rows only; ``batch`` holds those
        rows, with the row-number column still last.
        """
        file_id = split.payload["file_id"]
        for batch, row_numbers in self._merged_batches(split, batch_rows):
            located = ColumnBatch(batch.columns + [row_numbers],
                                  batch.length)
            if predicate is not None:
                located = predicate(located)
            if located.length:
                yield ([encode_record_id(file_id, row_number)
                        for row_number in located.columns[-1]], located)

    def _note_union_read(self, span, nrows, stats):
        """Post-merge accounting of one file's UNION READ."""
        cluster = self.env.cluster
        # Per-row merge-path invocation overhead (Figure 4).
        profile = cluster.profile
        cluster.charge_fixed(
            "cpu", "unionread",
            nrows * profile.op_scale * profile.unionread_row_cost_s)
        span.annotate(rows=nrows, **stats)
        metrics = cluster.metrics
        metrics.incr("unionread.files")
        metrics.incr("unionread.rows", nrows)
        if stats.get("deltas_applied"):
            metrics.incr("unionread.deltas_applied",
                         stats["deltas_applied"])
            # Per-table delta churn: how much merge work reads on this
            # table keep paying for (advisor read-overhead evidence).
            metrics.incr("unionread.deltas_applied.%s" % self.table.name,
                         stats["deltas_applied"])
        if stats.get("rows_deleted"):
            metrics.incr("unionread.rows_deleted", stats["rows_deleted"])
        if stats.get("deltas_skipped"):
            metrics.incr("unionread.deltas_skipped",
                         stats["deltas_skipped"])
        if stats.get("trailing_deltas"):
            metrics.incr("unionread.trailing_deltas",
                         stats["trailing_deltas"])

    def attached_for_split(self, split):
        """The Attached Table holding one split's deltas.

        A method so sharded handlers can hand back the owning child's
        store; the single-table answer is the table's own.
        """
        return self.attached

    def _projection_map(self, projection):
        schema = self.schema
        if projection is None:
            return {i: i for i in range(len(schema))}
        return {schema.index_of(name): pos
                for pos, name in enumerate(projection)}

    # ------------------------------------------------------------------
    # LOOKUP (the third plan type: point reads without MapReduce).
    # ------------------------------------------------------------------
    def plan_lookup(self, ranges, projection=None, hit_faults=True):
        """Plan a LOOKUP read (or None if ineligible).

        A method so sharded handlers can route the plan to the owning
        shard; the single-table implementation is the module function.
        """
        return plan_lookup(self, ranges, projection=projection,
                           hit_faults=hit_faults)

    def execute_lookup(self, plan, batch_rows=None):
        """Run one planned LOOKUP read at sub-job cost (no MR planner).

        Returns ``(rows, sim_seconds, detail)``.  ``sim_seconds`` is the
        ledger-observed device time of the read — there is no Job to sum,
        so the statement's simulated latency is taken straight from the
        charges the union-read merge recorded.  The detail carries the
        same predicted-vs-observed audit shape DML plans emit, so EXPLAIN
        ANALYZE prints a cost-model audit line for LOOKUPs too.
        """
        self._check_not_compacting()
        self._ensure_recovered()
        cluster = self.env.cluster
        table = self.table.name
        before = cluster.ledger.snapshot()
        with cluster.tracer.span("phase", "dualtable:lookup", table=table,
                                 files=len(plan.files),
                                 est_rows=plan.est_rows) as span:
            rows = run_lookup(self, plan, batch_rows=batch_rows)
            span.annotate(rows=len(rows))
        delta = cluster.ledger.diff(before)
        observed = delta["total_seconds"]
        nbytes = sum(delta["bytes"].values())
        metrics = cluster.metrics
        metrics.incr("dualtable.lookups.%s" % table)
        metrics.incr("dualtable.plan.lookup")
        metrics.incr("dualtable.plan.lookup.%s" % table)
        metrics.observe("dualtable.plan.lookup_seconds.%s" % table,
                        observed)
        metrics.observe("dualtable.plan.lookup_bytes.%s" % table, nbytes)
        choice = plan.choice
        predicted = choice.lookup_seconds
        rel_error = (abs(predicted - observed) / observed
                     if observed > 0 else 0.0)
        audit = {"plan": "lookup",
                 "predicted_seconds": predicted,
                 "observed_seconds": observed,
                 "rel_error": rel_error}
        metrics.incr("costmodel.audits")
        metrics.incr("costmodel.audits.%s" % table)
        metrics.observe("costmodel.rel_error", rel_error)
        metrics.observe("costmodel.rel_error.lookup", rel_error)
        metrics.observe("costmodel.rel_error.table.%s" % table, rel_error)
        cluster.tracer.annotate(cost_audit=dict(audit))
        detail = {"plan": "lookup",
                  "files_read": len(plan.files),
                  "total_files": plan.total_files,
                  "est_rows": plan.est_rows,
                  "lookup_bytes": nbytes,
                  "lookup_seconds": choice.lookup_seconds,
                  "scan_seconds": choice.scan_seconds,
                  "cost_difference": choice.cost_difference,
                  "audit": audit}
        return rows, observed, detail

    def note_lookup_eligible_scan(self):
        """A lookup-eligible read routed to the scan plan (advisor feed)."""
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.plan.lookup_eligible_scan")
        metrics.incr("dualtable.plan.lookup_eligible_scan.%s"
                     % self.table.name)

    def note_lookup_fallback(self):
        """A mid-lookup fault made the statement fall back to the scan."""
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.plan.lookup_fallback")
        metrics.incr("dualtable.plan.lookup_fallback.%s" % self.table.name)

    # ------------------------------------------------------------------
    # Statistics.
    # ------------------------------------------------------------------
    def data_bytes(self):
        return self.master.data_bytes() + self.attached.size_bytes

    def row_count(self):
        return self.master.row_count()

    # ------------------------------------------------------------------
    # UPDATE / DELETE (cost-model dispatch).
    # ------------------------------------------------------------------
    def cost_model(self):
        profile = self.env.cluster.profile
        return CostModel(profile, k=self.read_factor,
                         attached_rates=self.attached.rates(profile))

    #: rows to sample when the predicate has no extractable column ranges
    SAMPLE_ROWS = 2000

    def _estimate_ratio(self, where):
        """Estimate the modification ratio.

        Prefers stripe-statistics estimation (zero data reads); falls back
        to evaluating the predicate over a small row sample — the paper's
        "historical analysis ... or directly given by the designer"
        alternative, made automatic.
        """
        if where is None:
            return 1.0, self.master.row_count()
        ranges = extract_ranges(where)
        readers = self.master.readers()
        if not readers:
            return 0.0, 0
        schema_cols = {c.name.lower() for c in self.schema}
        usable = {n: r for n, r in ranges.items() if n in schema_cols}
        if usable:
            selected, total = estimate_selection(readers, usable)
            if total == 0:
                return 0.0, 0
            return min(1.0, selected / total), total
        return self._sample_ratio(where, readers)

    def _sample_ratio(self, where, readers):
        projection = [c.name for c in self.schema
                      if c.name.lower() in referenced_columns(where)]
        if not projection:
            projection = [self.schema.columns[0].name]
        env = Env()
        env.add_schema(projection)
        predicate = compile_expr(where, env)
        total = sum(r.num_rows for r in readers)
        sampled = 0
        matched = 0
        per_reader = max(1, self.SAMPLE_ROWS // max(1, len(readers)))
        for reader in readers:
            taken = 0
            for _, values in reader.rows(projection=projection):
                if is_true(predicate(values)):
                    matched += 1
                taken += 1
                if taken >= per_reader:
                    break
            sampled += taken
        if sampled == 0:
            return 0.0, total
        return matched / sampled, total

    def _edit_scan_bytes(self, where, extra_columns=()):
        """Master bytes the EDIT scan reads (projection + pruning)."""
        needed = set(extra_columns)
        if where is not None:
            needed |= referenced_columns(where)
        projection = [c.name for c in self.schema
                      if c.name.lower() in needed] or None
        ranges = extract_ranges(where) if where is not None else {}
        total = 0
        for reader in self.master.readers():
            stripe_filter = make_stripe_filter(
                [n for n, _ in reader.schema], ranges)
            total += reader.projected_bytes(projection, stripe_filter)
        return total

    def execute_update(self, session, stmt):
        self._check_not_compacting()
        self._ensure_recovered()
        self.env.cluster.metrics.incr(
            "dualtable.updates.%s" % self.table.name)
        with self.env.cluster.tracer.span(
                "phase", "dualtable:plan", table=self.table.name,
                dml="update") as span:
            ratio, total_rows = self._estimate_ratio(stmt.where)
            d_bytes = self.master.data_bytes()
            update_cell_bytes = (RECORD_ID_BYTES
                                 + _UPDATE_CELL_BYTES * len(stmt.assignments))
            assignment_columns = set()
            for _, expr in stmt.assignments:
                assignment_columns |= referenced_columns(expr)
            scan_bytes = self._edit_scan_bytes(stmt.where, assignment_columns)
            choice = self.cost_model().choose_update_plan(
                d_bytes, total_rows, ratio, update_cell_bytes,
                edit_scan_bytes=scan_bytes)
            plan = self._forced_or(choice.plan)
            self._annotate_choice(span, choice, plan)
        detail = self._detail(choice, plan)
        self.metadata.record_ratio(self.table.name, ratio)
        self._note_plan_choice(plan, choice)
        self._claim_txn_access(session, plan)
        if plan == "overwrite":
            info = session.metastore.table(self.table.name)
            result = session.update_via_overwrite(info, stmt,
                                                  extra_detail=detail)
        else:
            result = self._edit_plan(session, stmt, detail, "update")
        self._audit_cost_model(choice, plan, result)
        return result

    def execute_delete(self, session, stmt):
        self._check_not_compacting()
        self._ensure_recovered()
        self.env.cluster.metrics.incr(
            "dualtable.deletes.%s" % self.table.name)
        with self.env.cluster.tracer.span(
                "phase", "dualtable:plan", table=self.table.name,
                dml="delete") as span:
            ratio, total_rows = self._estimate_ratio(stmt.where)
            d_bytes = self.master.data_bytes()
            scan_bytes = self._edit_scan_bytes(stmt.where)
            choice = self.cost_model().choose_delete_plan(
                d_bytes, total_rows, ratio, edit_scan_bytes=scan_bytes)
            plan = self._forced_or(choice.plan)
            self._annotate_choice(span, choice, plan)
        detail = self._detail(choice, plan)
        self.metadata.record_ratio(self.table.name, ratio)
        self._note_plan_choice(plan, choice)
        self._claim_txn_access(session, plan)
        if plan == "overwrite":
            info = session.metastore.table(self.table.name)
            result = session.delete_via_overwrite(info, stmt,
                                                  extra_detail=detail)
        else:
            result = self._edit_plan(session, stmt, detail, "delete")
        self._audit_cost_model(choice, plan, result)
        return result

    def _claim_txn_access(self, session, plan):
        """Declare this DML's isolation needs to the server transaction.

        Under a server (:mod:`repro.server`), an OVERWRITE plan rewrites
        master files in place, which is only snapshot-safe with the
        table to itself — ``require_exclusive`` either escalates the
        transaction or aborts it for an exclusive re-run.  An EDIT plan
        just records the write so conflict detection sees the table.
        """
        txn = getattr(session, "current_txn", None)
        if txn is None:
            return
        if plan == "overwrite":
            txn.require_exclusive(self.table.name)
        else:
            txn.touch(self.table.name, write=True)

    @staticmethod
    def _annotate_choice(span, choice, plan):
        span.annotate(plan=plan, cost_plan=choice.plan,
                      ratio=round(choice.ratio, 6),
                      edit_seconds=round(choice.edit_seconds, 6),
                      overwrite_seconds=round(choice.overwrite_seconds, 6))

    def _note_plan_choice(self, plan, choice):
        metrics = self.env.cluster.metrics
        table = self.table.name
        metrics.incr("dualtable.plan.%s" % plan)
        metrics.incr("dualtable.dml.%s" % table)
        # Workload-profile hooks (repro.advisor): per-table plan mix and
        # the regret signal — an executed plan whose predicted cost was
        # higher than the alternative's (only forced modes can regret;
        # cost mode always takes the cheaper estimate).
        metrics.incr("dualtable.plan.%s.%s" % (plan, table))
        if self.mode != "cost" and plan != choice.plan:
            metrics.incr("dualtable.plan.forced")
            metrics.incr("dualtable.plan.forced.%s" % table)
        if plan == "overwrite" \
                and choice.edit_seconds < choice.overwrite_seconds:
            metrics.incr("dualtable.plan.overwrite_regret.%s" % table)
            metrics.observe(
                "dualtable.plan.regret_seconds.%s" % table,
                choice.overwrite_seconds - choice.edit_seconds)
        elif plan == "edit" \
                and choice.overwrite_seconds < choice.edit_seconds:
            metrics.incr("dualtable.plan.edit_regret.%s" % table)

    def _audit_cost_model(self, choice, plan, result):
        """Record predicted-vs-observed cost for the chosen plan.

        The model's estimate covers device time for the plan's I/O; the
        observation is the whole statement's ledger-derived run time
        (startup, task overheads and commit included), so the relative
        error measures how faithfully Section IV's equations track the
        measured world — the audit SynchroStore-style systems feed back
        into their planners.
        """
        predicted = (choice.edit_seconds if plan == "edit"
                     else choice.overwrite_seconds)
        observed = result.sim_seconds
        rel_error = (abs(predicted - observed) / observed
                     if observed > 0 else 0.0)
        audit = {"plan": plan,
                 "predicted_seconds": predicted,
                 "observed_seconds": observed,
                 "rel_error": rel_error}
        result.detail["audit"] = audit
        cluster = self.env.cluster
        table = self.table.name
        cluster.metrics.incr("costmodel.audits")
        cluster.metrics.observe("costmodel.rel_error", rel_error)
        cluster.metrics.observe("costmodel.rel_error.%s" % plan, rel_error)
        # Workload-profile hooks (repro.advisor): per-table audit trail
        # (drift detection needs a per-table error distribution), DML
        # latency histogram on the simulated axis, and the bytes the
        # plan rewrote (an OVERWRITE rewrites the whole master).
        cluster.metrics.incr("costmodel.audits.%s" % table)
        cluster.metrics.observe("costmodel.rel_error.table.%s" % table,
                                rel_error)
        cluster.metrics.observe("dualtable.dml_seconds.%s" % table,
                                observed)
        if plan == "overwrite":
            cluster.metrics.incr("dualtable.bytes_rewritten.%s" % table,
                                 self.master.data_bytes())
        self.note_attached_bytes()
        cluster.tracer.annotate(cost_audit=dict(audit))
        return audit

    def _forced_or(self, cost_plan):
        if self.mode == "cost":
            return cost_plan
        return self.mode

    @staticmethod
    def _detail(choice, plan):
        return {
            "plan": plan,
            "cost_plan": choice.plan,
            "cost_difference": choice.cost_difference,
            "edit_seconds": choice.edit_seconds,
            "overwrite_seconds": choice.overwrite_seconds,
            "ratio": choice.ratio,
        }

    # -- EDIT plans ------------------------------------------------------
    def _edit_plan(self, session, stmt, detail, kind):
        """The EDIT plan of one UPDATE or DELETE (``kind``).

        One map-only job over the projected, pruned splits: each task
        locates its matching rows (:meth:`locate_split`), evaluates the
        SET expressions over the located batch, and buffers one UDTF
        call per row, in row order, into the statement's EditBatch,
        which commits once the job has succeeded.
        """
        schema = self.schema
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
        predicate = (compile_batch_predicate(stmt.where, env)
                     if stmt.where is not None else None)
        assigns = [(schema.index_of(name), compile_batch(expr, env))
                   for name, expr in assignments]
        columns = [index for index, _ in assigns]
        ranges = extract_ranges(stmt.where) if stmt.where is not None else {}
        splits = self.scan_splits(projection, ranges)
        batch = EditBatch(self._batch_target, next(self._txn_ids))
        batch_rows = session.batch_rows

        def map_fn(split, ctx):
            # Output-committer semantics: a failed/retried attempt's
            # buffer is dropped; only successful attempts reach the batch.
            buffer = batch.task_buffer()
            for record_ids, located in self.locate_split(
                    split, ctx, predicate, batch_rows):
                if kind == "delete":
                    for record_id in record_ids:
                        delete_udtf(buffer, record_id, ctx)
                    continue
                values = zip(*[fn(located.columns, located.length)
                               for _, fn in assigns])
                for record_id, row in zip(record_ids, values):
                    update_udtf(buffer, record_id, dict(zip(columns, row)),
                                ctx)
            batch.absorb(buffer, ctx.task_index)
            return ()

        job = Job(name="%s-edit" % kind, splits=splits, map_fn=map_fn,
                  reduce_fn=None,
                  properties={"shard_fanout": self.shard_fanout})
        result = session.runner.run(job)
        commit_seconds = self._commit_or_defer(session, batch)
        self.note_attached_bytes()
        jobs = session._dml_subquery_jobs + [result]
        sub = sum(j.sim_seconds for j in session._dml_subquery_jobs)
        affected = result.counters.get(
            "updated" if kind == "update" else "deleted", 0)
        return QueryResult(
            sim_seconds=sub + result.sim_seconds + commit_seconds,
            jobs=jobs, affected=affected, plan="%s-edit" % kind,
            detail=detail)

    def _commit_or_defer(self, session, batch):
        """Commit the EditBatch now, or buffer it in the server txn.

        Under an *optimistic* server transaction nothing durable may
        happen before the transaction's commit point (a killed or
        conflicted statement must leave zero trace), so stage + publish
        are deferred to :meth:`StatementTxn.publish`.  Standalone
        sessions and exclusive transactions commit immediately, exactly
        as before the server existed.
        """
        txn = getattr(session, "current_txn", None)
        if txn is not None and not txn.exclusive:
            txn.defer_edit_batch(self.table.name, batch, session)
            return 0.0
        with self.env.cluster.tracer.span("phase", "dualtable:edit-commit",
                                          table=self.table.name):
            return batch.commit(session)

    # ------------------------------------------------------------------
    # COMPACT (Section III-C): fold the Attached Table into the Master.
    # ------------------------------------------------------------------
    def execute_compact(self, session, major=True, partial=False,
                        max_files=None, victim_paths=None):
        """Fold Attached-Table deltas into the Master.

        Full COMPACT (``partial=False``) rewrites every master file and
        truncates the Attached Table.  Partial COMPACT rewrites only the
        highest-delta-density files (optionally capped at ``max_files``,
        or the explicit ``victim_paths`` the auto-compaction policy
        selected) and drops only the folded files' deltas — record IDs
        of rewritten rows are remapped to the fresh file IDs the rewrite
        allocates, while untouched files keep their IDs and deltas.
        """
        self._check_not_compacting()
        self._ensure_recovered()
        if self.attached.is_empty():
            return self._compact_noop()
        if partial:
            victims = self._select_compact_victims(victim_paths, max_files)
            if not victims:
                return self._compact_noop()
            return self._run_partial_compact(session, victims)
        attached_bytes = self.attached.size_bytes
        self._compacting = True
        cluster = self.env.cluster
        try:
            with cluster.tracer.span("phase", "dualtable:compact",
                                     table=self.table.name,
                                     attached_bytes=attached_bytes):
                splits = self._compact_splits()

                job = Job(name="compact", splits=splits,
                          map_fn=self._compact_map_fn(session),
                          reduce_fn=None)
                result = session.runner.run(job)
                write_seconds = run_with_retries(
                    session, lambda: self._commit_compact(result.outputs),
                    "compact-commit")
        finally:
            self._compacting = False
        cluster.metrics.incr("dualtable.compacts")
        cluster.metrics.incr("dualtable.compacts.%s" % self.table.name)
        cluster.metrics.observe("dualtable.compact.folded_bytes",
                                attached_bytes)
        self.note_attached_bytes()
        return QueryResult(
            sim_seconds=result.sim_seconds + write_seconds,
            jobs=[result], affected=len(result.outputs),
            plan="compact",
            detail={"attached_bytes": attached_bytes,
                    "folded_bytes": attached_bytes,
                    "mode": "full", "files": len(splits),
                    "rows_written": len(result.outputs)})

    def _compact_noop(self):
        self.note_attached_bytes()
        return QueryResult(sim_seconds=0.0, jobs=[], affected=0,
                           plan="compact-noop",
                           detail={"attached_bytes": 0, "folded_bytes": 0,
                                   "mode": "noop", "files": 0,
                                   "rows_written": 0})

    def _select_compact_victims(self, victim_paths, max_files):
        """Dirty master files ordered by delta density (highest first).

        Consults only control-plane metadata (file sizes, attached key
        ranges) — selection itself is free, like plan choice.
        """
        candidates = []
        for path in self.master.file_paths():
            if victim_paths is not None and path not in victim_paths:
                continue
            file_id, _ = self.master.file_meta(path)
            delta_bytes, delta_entries = \
                self.attached.file_delta_stats(file_id)
            if delta_bytes <= 0:
                continue
            master_bytes = max(1, self.env.fs.file_size(path))
            candidates.append({"path": path, "file_id": file_id,
                               "delta_bytes": delta_bytes,
                               "delta_entries": delta_entries,
                               "master_bytes": master_bytes})
        candidates.sort(
            key=lambda c: (-(c["delta_bytes"] / c["master_bytes"]),
                           c["path"]))
        if max_files is not None:
            candidates = candidates[:max(1, int(max_files))]
        return candidates

    def _run_partial_compact(self, session, victims):
        attached_bytes = self.attached.size_bytes
        folded_bytes = sum(v["delta_bytes"] for v in victims)
        self._compacting = True
        cluster = self.env.cluster
        try:
            with cluster.tracer.span("phase", "dualtable:compact-partial",
                                     table=self.table.name,
                                     files=len(victims),
                                     folded_bytes=folded_bytes):
                splits = self._compact_splits(
                    paths=[v["path"] for v in victims])

                job = Job(name="compact-partial", splits=splits,
                          map_fn=self._compact_map_fn(session),
                          reduce_fn=None)
                result = session.runner.run(job)
                write_seconds = run_with_retries(
                    session,
                    lambda: self._commit_partial_compact(result.outputs,
                                                         victims),
                    "compact-partial-commit")
        finally:
            self._compacting = False
        cluster.metrics.incr("dualtable.compacts")
        cluster.metrics.incr("dualtable.compacts.partial")
        cluster.metrics.observe("dualtable.compact.folded_bytes",
                                folded_bytes)
        self.note_attached_bytes()
        return QueryResult(
            sim_seconds=result.sim_seconds + write_seconds,
            jobs=[result], affected=len(result.outputs),
            plan="compact-partial",
            detail={"attached_bytes": attached_bytes,
                    "folded_bytes": folded_bytes,
                    "mode": "partial", "files": len(victims),
                    "file_ids": [v["file_id"] for v in victims],
                    "rows_written": len(result.outputs)})

    def _compact_map_fn(self, session):
        """COMPACT's map function: a split's merged rows, in row order."""
        batch_rows = session.batch_rows

        def map_fn(split, ctx):
            for batch in self.read_split_batches(split, ctx,
                                                 batch_rows=batch_rows):
                yield from batch.rows()
        return map_fn

    def _compact_splits(self, paths=None):
        # scan_splits raises while _compacting; build splits directly.
        splits = []
        for path in (paths if paths is not None
                     else self.master.file_paths()):
            reader = self.master.reader(path)
            splits.append(InputSplit(
                payload={"path": path,
                         "file_id": int(reader.metadata["dualtable.file_id"]),
                         "projection": None, "ranges": {},
                         "prune_safe": False},
                size_bytes=reader.projected_bytes(None),
                label=path))
        return splits

    def _commit_compact(self, rows):
        """Two-phase commit of the compacted master (idempotent).

        Phase 1 writes the new master files into ``master.__compact__``
        and then writes the manifest — the commit point: every step
        before it rolls *back* on a crash, every step after it rolls
        *forward* (see :meth:`_recover_compact`).  Phase 2
        (:meth:`_complete_compact`) is a chain of existence-guarded
        renames/deletes, so replaying it from any prefix converges.
        """
        fs = self.env.fs
        faults = self.env.cluster.faults
        faults.hit("dualtable.compact.write", table=self.table.name)
        if fs.exists(self._compact_tmp):
            fs.delete(self._compact_tmp, recursive=True)
        fs.mkdirs(self._compact_tmp)
        self.master.write_rows(rows, directory=self._compact_tmp)
        faults.hit("dualtable.compact.manifest", table=self.table.name)
        manifest = json.dumps({
            "table": self.table.name,
            "tmp": self._compact_tmp,
            "location": self.master.location,
            "rows": len(rows),
        }).encode("utf-8")
        if fs.exists(self._manifest_path):
            fs.delete(self._manifest_path)
        fs.write_file(self._manifest_path, manifest)
        self._complete_compact(inject=True)

    def _complete_compact(self, inject=False):
        """Finish a committed compaction; every step is re-runnable."""
        fs = self.env.fs
        faults = self.env.cluster.faults

        def hit(point):
            if inject:
                faults.hit(point, table=self.table.name)

        location = self.master.location
        hit("dualtable.compact.swap")
        if fs.exists(self._compact_tmp):
            if fs.exists(location) and not fs.exists(self._compact_old):
                fs.rename(location, self._compact_old)
            hit("dualtable.compact.swap2")
            fs.rename(self._compact_tmp, location)
        self._invalidate_master_cache()
        hit("dualtable.compact.truncate")
        self.attached.clear()
        if fs.exists(self._compact_old):
            fs.delete(self._compact_old, recursive=True)
        hit("dualtable.compact.cleanup")
        if fs.exists(self._manifest_path):
            fs.delete(self._manifest_path)

    def _commit_partial_compact(self, rows, victims):
        """Two-phase commit of a partial compaction (idempotent).

        Same protocol shape as :meth:`_commit_compact`: phase 1 writes
        the replacement files into ``master.__compact__`` and then the
        manifest — the commit point; phase 2 swaps per file.  Unlike the
        full path, phase 2 performs *charged* Attached-Table range
        deletes (``clear_file``), whose ``hbase.delete`` fault point can
        raise retryable faults — so a re-entry first checks for an
        already-committed manifest and resumes phase 2 instead of
        rebuilding phase 1 (which would double-apply the swap).
        """
        fs = self.env.fs
        faults = self.env.cluster.faults
        manifest = self._load_valid_manifest()
        if manifest is not None and manifest.get("mode") == "partial":
            self._complete_partial_compact(manifest)
            return
        faults.hit("dualtable.compact.partial.write", table=self.table.name)
        if fs.exists(self._compact_tmp):
            fs.delete(self._compact_tmp, recursive=True)
        fs.mkdirs(self._compact_tmp)
        new_paths = self.master.write_rows(rows, directory=self._compact_tmp)
        faults.hit("dualtable.compact.partial.manifest",
                   table=self.table.name)
        manifest = {
            "table": self.table.name,
            "mode": "partial",
            "tmp": self._compact_tmp,
            "location": self.master.location,
            "rows": len(rows),
            "old_paths": [v["path"] for v in victims],
            "folded_file_ids": [v["file_id"] for v in victims],
            "new_names": [p.rsplit("/", 1)[1] for p in new_paths],
        }
        if fs.exists(self._manifest_path):
            fs.delete(self._manifest_path)
        fs.write_file(self._manifest_path,
                      json.dumps(manifest).encode("utf-8"))
        self._complete_partial_compact(manifest, inject=True)

    def _complete_partial_compact(self, manifest, inject=False):
        """Finish a committed partial compaction; every step re-runnable.

        Per-file existence-guarded renames move the replacement files
        into the master directory, the folded originals are deleted, and
        only the folded files' deltas are dropped from the Attached
        Table.  Replaying from any prefix converges: renamed files skip
        (source gone), deletes are guarded, and ``clear_file`` of an
        already-empty range is a no-op.
        """
        fs = self.env.fs
        faults = self.env.cluster.faults

        def hit(point):
            if inject:
                faults.hit(point, table=self.table.name)

        location = manifest["location"]
        tmp = manifest["tmp"]
        hit("dualtable.compact.partial.swap")
        for name in manifest["new_names"]:
            src = "%s/%s" % (tmp, name)
            if fs.exists(src):
                dst = "%s/%s" % (location, name)
                if fs.exists(dst):
                    fs.delete(src)
                else:
                    fs.rename(src, dst)
        for old in manifest["old_paths"]:
            if fs.exists(old):
                fs.delete(old)
        self._invalidate_master_cache()
        hit("dualtable.compact.partial.delta_drop")
        for file_id in manifest["folded_file_ids"]:
            self.attached.clear_file(int(file_id))
        if fs.exists(tmp):
            fs.delete(tmp, recursive=True)
        if fs.exists(self._manifest_path):
            fs.delete(self._manifest_path)


register_handler("dualtable", DualTableHandler)
