"""Sharded DualTable: hash-partitioned master + attached across shards.

One logical table ``t`` is backed by ``n`` child DualTables
``t__s0 .. t__s<n-1>``, each a complete master-ORC + attached-HBase pair
on its own simulated region server.  Rows are routed by a 64-bucket hash
of the declared shard key; the bucket -> shard assignment (the *shard
map*) is persisted next to the table and can be rebalanced one bucket at
a time with a 2PC move that reuses the COMPACT manifest pattern.

Determinism contract: the *physical layout* is a function of the data
and the bucket hash alone, never of the shard count.  ``insert_rows``
groups rows by bucket and writes each bucket as its own append, so ORC
files never span buckets — the file set (sizes, row groups, encoded
bytes) is byte-identical whether the 64 buckets live on 1, 4 or 8
shards, which keeps ledger totals and data-path counters identical too.
Shard count only changes *placement* (which child owns a file) and the
simulated makespan (scatter-gather fan-out via ``shard_fanout``).

Scatter-gather UNION READ: a scan is still ONE MapReduce job whose
splits span every shard (each split tagged with its owning shard), so
job-level counters match the unsharded table; the runner's
``shard_fanout`` property models the extra region servers by widening
the map slots for makespan only — charges are never scaled.

LOOKUP routing: a point read whose predicate pins the shard key to a
single bucket is planned and executed entirely on the owning child —
exactly one shard's files and attached store are charged.
"""

import json

from repro.common.errors import DualTableError
from repro.mapreduce import stable_hash
from repro.hive.catalog import TableInfo, register_handler
from repro.hive.session import QueryResult
from repro.core.editlog import recover_edit_logs, run_with_retries
from repro.core.handler import DualTableHandler

#: fixed hash-space resolution: rows map to one of 64 buckets, buckets
#: map to shards.  Fixed for the life of the format — rebalancing moves
#: whole buckets, never re-hashes rows.
NUM_BUCKETS = 64

#: ``SHOW SHARDS`` result columns.
SHARD_COLUMNS = ["shard", "buckets", "files", "rows", "master_bytes",
                 "attached_bytes", "heat"]

#: rebalance 2PC injection points, in protocol order.  Everything before
#: ``dualtable.rebalance.manifest`` completes rolls *back*; the manifest
#: write is the commit point; everything after rolls *forward*.
SHARD_CHAOS_POINT_NAMES = (
    "dualtable.rebalance.spill",
    "dualtable.rebalance.manifest",
    "dualtable.rebalance.apply",
    "dualtable.rebalance.cleanup",
)


class ShardMap:
    """Bucket -> shard assignment for one sharded table (persisted).

    The default assignment is ``bucket % num_shards``; REBALANCE edits
    it one bucket at a time and persists the result, so the map survives
    process restarts exactly like the master files do.
    """

    def __init__(self, fs, table_name, num_shards):
        self.fs = fs
        self.table_name = table_name
        self.num_shards = num_shards
        self.path = "/warehouse/%s/shardmap.json" % table_name
        loaded = self._load()
        self.assignment = (loaded if loaded is not None
                           else [b % num_shards for b in range(NUM_BUCKETS)])

    def _load(self):
        """The persisted assignment, or None if absent/torn/mismatched."""
        if not self.fs.exists(self.path):
            return None
        try:
            data = json.loads(
                self.fs.read_file_silent(self.path).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(data, dict) \
                or data.get("table") != self.table_name \
                or data.get("num_shards") != self.num_shards:
            return None
        assignment = data.get("assignment")
        if not isinstance(assignment, list) \
                or len(assignment) != NUM_BUCKETS \
                or not all(isinstance(s, int) and 0 <= s < self.num_shards
                           for s in assignment):
            return None
        return assignment

    def persist(self, assignment=None):
        if assignment is not None:
            self.assignment = list(assignment)
        payload = json.dumps({"table": self.table_name,
                              "num_shards": self.num_shards,
                              "assignment": self.assignment}).encode("utf-8")
        if self.fs.exists(self.path):
            self.fs.delete(self.path)
        self.fs.write_file(self.path, payload)

    @staticmethod
    def bucket_of(value):
        """The fixed hash bucket of one shard-key value."""
        return stable_hash(value) % NUM_BUCKETS

    def shard_of(self, value):
        return self.assignment[self.bucket_of(value)]

    def buckets_of(self, shard):
        return [b for b, s in enumerate(self.assignment) if s == shard]


class _ShardedMasterView:
    """Read-only facade presenting the children's masters as one.

    The inherited DualTable cost/statistics paths (`_estimate_ratio`,
    `_edit_scan_bytes`, plan choice, EXPLAIN sizing) consult
    ``handler.master`` for readers and byte totals; this view aggregates
    the child masters in shard order so those paths work unchanged.
    """

    def __init__(self, handler):
        self._handler = handler
        #: logical location: no files ever live here (children own the
        #: bytes), kept so cache-invalidation group keys stay harmless.
        self.location = "/warehouse/%s/master" % handler.table.name

    def _children(self):
        return self._handler.children

    def file_paths(self):
        return [path for child in self._children()
                for path in child.master.file_paths()]

    def readers(self):
        return [reader for child in self._children()
                for reader in child.master.readers()]

    def _owner(self, path):
        for child in self._children():
            if path.startswith(child.master.location + "/"):
                return child
        raise DualTableError("no shard of %s owns master file %s"
                             % (self._handler.table.name, path))

    def reader(self, path):
        return self._owner(path).master.reader(path)

    def file_meta(self, path):
        return self._owner(path).master.file_meta(path)

    def data_bytes(self):
        return sum(child.master.data_bytes() for child in self._children())

    def row_count(self):
        return sum(child.master.row_count() for child in self._children())

    def avg_row_bytes(self):
        rows = self.row_count()
        return (self.data_bytes() / rows) if rows else 0.0


class _ShardedAttachedView:
    """Aggregate facade over the children's attached tables.

    Carries only whole-table operations (sizes, emptiness, rates); the
    per-file-ID surface is deliberately absent — file IDs are allocated
    per child, so any file-keyed access must go through the owning
    child's attached table, never through this view.
    """

    def __init__(self, handler):
        self._handler = handler
        self.name = "dt_%s_attached" % handler.table.name

    def _children(self):
        return self._handler.children

    @property
    def backend(self):
        return self._children()[0].attached.backend

    @property
    def size_bytes(self):
        return sum(child.attached.size_bytes for child in self._children())

    def is_empty(self):
        return all(child.attached.is_empty() for child in self._children())

    def entry_count(self):
        return sum(child.attached.entry_count()
                   for child in self._children())

    def rates(self, profile):
        return self._children()[0].attached.rates(profile)

    def ensure_available(self):
        for child in self._children():
            child.attached.ensure_available()


class _ShardRouter:
    """Publish surface for shard-tagged edits.

    Record IDs in a sharded EDIT batch are ``(shard, record_id)`` pairs;
    publishing (and redo-log replay) unpacks the tag and writes the raw
    record ID into the owning child's Attached Table.
    """

    def __init__(self, children):
        self._children = children

    def put_update(self, key, new_values):
        shard, record_id = key
        self._children[shard].attached.put_update(record_id, new_values)

    def put_delete(self, key):
        shard, record_id = key
        self._children[shard].attached.put_delete(record_id)


class _ShardBatchTarget:
    """What :class:`EditBatch` / :func:`recover_edit_logs` need of a
    handler, for the *logical* sharded table.

    One statement stages exactly ONE redo log under the logical table's
    ``txn/`` directory regardless of the shard count — per-shard staging
    files would make the charged staging bytes (header overhead per
    file) depend on the shard count and break ledger identity.  The
    ``attached`` router then fans the published edits out to the owning
    children.
    """

    def __init__(self, handler):
        self.env = handler.env
        self.table = handler.table
        self.txn_dir = handler.txn_dir
        self.attached = _ShardRouter(handler.children)


class ShardedDualTableHandler(DualTableHandler):
    """N-region-server DualTable behind the single-table interface."""

    kind = "dualtable-sharded"

    def __init__(self, table, env):
        super().__init__(table, env)
        props = table.properties
        key = props.get("shard.key")
        if not key:
            raise DualTableError(
                "sharded table %s needs a shard.key property" % table.name)
        self.shard_key = str(key).lower()
        table.schema.index_of(self.shard_key)   # raises on unknown column
        self.num_shards = int(props.get("shard.count", 4))
        if self.num_shards < 1:
            raise DualTableError(
                "sharded table %s: shard.count must be >= 1" % table.name)
        self.shard_map = ShardMap(env.fs, table.name, self.num_shards)
        # Children are complete DualTables with their own master
        # directory, attached table, redo log and compaction state; they
        # are NOT registered in the metastore (only the logical table
        # is), so SQL can never address a shard directly.
        child_props = {k: v for k, v in props.items()
                       if not k.startswith("shard.")}
        self.children = []
        for index in range(self.num_shards):
            info = TableInfo(name="%s__s%d" % (table.name, index),
                             schema=table.schema, storage="dualtable",
                             properties=dict(child_props))
            info.handler = DualTableHandler(info, env)
            # All children allocate master-file IDs from the LOGICAL
            # table's counter: IDs are globally unique across shards
            # (record IDs can never collide between children) and the ID
            # sequence — hence every file's encoded metadata bytes — is
            # a function of the insert order alone, not the shard count.
            info.handler.master.table_name = table.name
            self.children.append(info.handler)
        # Swap in the aggregate facades so every inherited statistics /
        # cost-model / planning path sees the union of the shards.
        self.master = _ShardedMasterView(self)
        self.attached = _ShardedAttachedView(self)
        #: consumed by JobRunner: scatter-gather widens the map slots by
        #: the shard count for *makespan only* — charges never scale.
        self.shard_fanout = self.num_shards
        self._batch_target = _ShardBatchTarget(self)
        base = "/warehouse/%s" % table.name
        self._rebalance_dir = base + "/__rebalance__"
        self._rebalance_manifest = base + "/rebalance.manifest"
        #: heat counters are cumulative cluster metrics; the advisor and
        #: the rebalance decision subtract this in-memory baseline so a
        #: completed rebalance restarts the skew measurement from zero.
        self._heat_baseline = [0] * self.num_shards

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------
    def create(self):
        for child in self.children:
            child.create()
        self.metadata.register_table(self.table.name)
        self.shard_map.persist()

    def drop(self):
        for child in self.children:
            child.drop()
        self.metadata.unregister_table(self.table.name)
        fs = self.env.fs
        for path in (self._rebalance_dir, self._rebalance_manifest,
                     self.shard_map.path, "/warehouse/%s" % self.table.name):
            if fs.exists(path):
                fs.delete(path, recursive=True)

    # ------------------------------------------------------------------
    # Crash recovery.
    # ------------------------------------------------------------------
    def recover(self):
        """Heal every shard plus any interrupted rebalance; idempotent.

        A rebalance that reached its manifest is reported as a
        rolled-forward DML entry so server-side recovery accounting
        counts the statement as committed.
        """
        dml = []
        compact_outcomes = []
        for child in self.children:
            outcome = child.recover()
            dml.extend(outcome.get("dml", ()))
            compact_outcomes.append(outcome.get("compact", "clean"))
        # Statement-level redo logs live on the logical table (one per
        # EDIT statement, shard-tagged); replay routes through children.
        dml.extend(recover_edit_logs(self._batch_target))
        rebalance = self._recover_rebalance()
        if rebalance == "rolled_forward":
            dml.append(("rebalance:%s" % self.table.name, "rolled_forward"))
        if "rolled_forward" in compact_outcomes:
            compact = "rolled_forward"
        elif "rolled_back" in compact_outcomes:
            compact = "rolled_back"
        else:
            compact = "clean"
        self.note_attached_bytes()
        return {"compact": compact, "dml": dml, "rebalance": rebalance}

    def _ensure_recovered(self):
        if self._compacting:
            return
        fs = self.env.fs
        if fs.exists(self._rebalance_manifest) \
                or fs.exists(self._rebalance_dir):
            self._recover_rebalance()
        if fs.exists(self.txn_dir) and fs.list_files(self.txn_dir):
            recover_edit_logs(self._batch_target)
        for child in self.children:
            child._ensure_recovered()

    # ------------------------------------------------------------------
    # Writes (bucket-grouped for layout determinism).
    # ------------------------------------------------------------------
    def insert_rows(self, rows, overwrite=False):
        self._check_not_compacting()
        self._ensure_recovered()
        rows = list(rows)
        if overwrite:
            for child in self.children:
                child.insert_rows([], overwrite=True)
        key_idx = self.schema.index_of(self.shard_key)
        buckets = {}
        for row in rows:
            buckets.setdefault(ShardMap.bucket_of(row[key_idx]),
                               []).append(row)
        # One append per bucket, ascending: files never span buckets, so
        # the physical file set is independent of the shard count.
        for bucket in sorted(buckets):
            child = self.children[self.shard_map.assignment[bucket]]
            child.insert_rows(buckets[bucket])
        if overwrite:
            self.note_attached_bytes()
        return len(rows)

    def note_attached_bytes(self):
        total = 0
        for child in self.children:
            child.note_attached_bytes()
            total += child.attached.size_bytes
        self.env.cluster.metrics.gauge(
            "dualtable.attached_bytes.%s" % self.table.name, total)

    # ------------------------------------------------------------------
    # Reads (scatter-gather UNION READ: one job over all shards).
    # ------------------------------------------------------------------
    def scan_splits(self, projection=None, ranges=None):
        self._check_not_compacting()
        self._ensure_recovered()
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.scans.%s" % self.table.name)
        splits = []
        total_bytes = 0
        for index, child in enumerate(self.children):
            for split in child.scan_splits(projection, ranges):
                split.payload["shard"] = index
                splits.append(split)
                total_bytes += split.size_bytes
        # Canonical global order: master file ids are allocated from the
        # logical table's counter, so *basename* order (the id, not the
        # shard directory) is the same for every shard count — charging
        # order, shuffle sampling, and float accumulation in the ledger
        # stay byte-identical across INTO 1/4/8.
        splits.sort(
            key=lambda s: s.payload.get("path", "").rsplit("/", 1)[-1])
        metrics.observe("dualtable.scan_bytes.%s" % self.table.name,
                        total_bytes)
        return splits

    def _split_child(self, split):
        return self.children[split.payload.get("shard", 0)]

    def read_split(self, split, ctx):
        return self._split_child(split).read_split(split, ctx)

    def read_split_with_rids(self, split, ctx):
        return self._split_child(split).read_split_with_rids(split, ctx)

    def read_split_batches(self, split, ctx, batch_rows=None):
        return self._split_child(split).read_split_batches(
            split, ctx, batch_rows=batch_rows)

    def attached_for_split(self, split):
        return self._split_child(split).attached

    # ------------------------------------------------------------------
    # LOOKUP (routed to exactly the owning shard).
    # ------------------------------------------------------------------
    def _owning_shard(self, ranges):
        """The single shard a point predicate pins, or None.

        Routing requires an equality/IN predicate on the shard key whose
        values all hash to buckets owned by one shard; open ranges fan
        out and must take the scatter-gather scan instead.
        """
        if not ranges:
            return None
        shard_range = ranges.get(self.shard_key)
        if shard_range is None or shard_range.in_set is None:
            return None
        shards = {self.shard_map.shard_of(value)
                  for value in shard_range.in_set}
        if len(shards) != 1:
            return None
        return shards.pop()

    def plan_lookup(self, ranges, projection=None, hit_faults=True):
        shard = self._owning_shard(ranges)
        if shard is None:
            return None
        plan = self.children[shard].plan_lookup(
            ranges, projection=projection, hit_faults=hit_faults)
        if plan is None:
            return None
        plan.shard = shard
        return plan

    def execute_lookup(self, plan, batch_rows=None):
        self._check_not_compacting()
        self._ensure_recovered()
        shard = getattr(plan, "shard", 0)
        child = self.children[shard]
        # The child charges the read and emits the global plan/audit
        # counters exactly once; the wrapper adds the logical-table
        # series plus per-shard routing evidence.
        rows, observed, detail = child.execute_lookup(
            plan, batch_rows=batch_rows)
        table = self.table.name
        metrics = self.env.cluster.metrics
        metrics.incr("dualtable.lookups.%s" % table)
        metrics.incr("dualtable.plan.lookup.%s" % table)
        metrics.observe("dualtable.plan.lookup_seconds.%s" % table,
                        observed)
        metrics.observe("dualtable.plan.lookup_bytes.%s" % table,
                        detail.get("lookup_bytes", 0))
        metrics.incr("costmodel.audits.%s" % table)
        audit = detail.get("audit") or {}
        if "rel_error" in audit:
            metrics.observe("costmodel.rel_error.table.%s" % table,
                            audit["rel_error"])
        metrics.incr("shard.lookups.%s.%d" % (table, shard))
        metrics.incr("shard.heat.%s.%d" % (table, shard))
        detail = dict(detail)
        detail["shard"] = shard
        return rows, observed, detail

    # ------------------------------------------------------------------
    # EDIT-plan DML (per-shard delta application, one job).
    # ------------------------------------------------------------------
    def locate_split(self, split, ctx, predicate, batch_rows):
        """The owning child's locate, with each record id shard-tagged
        as ``(shard, record_id)`` for the routed EditBatch."""
        shard = split.payload.get("shard", 0)
        for record_ids, located in self.children[shard].locate_split(
                split, ctx, predicate, batch_rows):
            yield [(shard, record_id) for record_id in record_ids], located

    def _commit_or_defer(self, session, batch):
        """Commit (or defer) the statement's routed batch.

        Heat accounting reads the shard tags off the edit list before
        publish unpacks them; under an optimistic server transaction the
        batch defers under the logical table name exactly like an
        unsharded commit.
        """
        edits = batch.edits
        if not edits:
            return 0.0
        metrics = self.env.cluster.metrics
        table = self.table.name
        per_shard = {}
        for _, key, _ in edits:
            per_shard[key[0]] = per_shard.get(key[0], 0) + 1
        for shard in sorted(per_shard):
            metrics.incr("shard.dml_rows.%s.%d" % (table, shard),
                         per_shard[shard])
            metrics.incr("shard.heat.%s.%d" % (table, shard),
                         per_shard[shard])
        txn = getattr(session, "current_txn", None)
        if txn is not None and not txn.exclusive:
            txn.defer_edit_batch(table, batch, session)
            return 0.0
        with self.env.cluster.tracer.span(
                "phase", "dualtable:edit-commit", table=table):
            return batch.commit(session)

    # ------------------------------------------------------------------
    # COMPACT (per shard; the logical statement folds every child).
    # ------------------------------------------------------------------
    def compaction_units(self):
        """Independently compactable units (the auto-compaction daemon
        decides and runs per child, so one hot shard compacts alone)."""
        return list(self.children)

    def execute_compact(self, session, major=True, partial=False,
                        max_files=None, victim_paths=None):
        self._check_not_compacting()
        self._ensure_recovered()
        sim_seconds = 0.0
        jobs = []
        affected = 0
        folded_bytes = 0
        files = 0
        rows_written = 0
        attached_bytes = self.attached.size_bytes
        for child in self.children:
            result = child.execute_compact(
                session, major=major, partial=partial, max_files=max_files,
                victim_paths=victim_paths)
            sim_seconds += result.sim_seconds
            jobs.extend(result.jobs)
            affected += result.affected
            folded_bytes += result.detail.get("folded_bytes", 0)
            files += result.detail.get("files", 0)
            rows_written += result.detail.get("rows_written", 0)
        self.note_attached_bytes()
        return QueryResult(
            sim_seconds=sim_seconds, jobs=jobs, affected=affected,
            plan="compact",
            detail={"attached_bytes": attached_bytes,
                    "folded_bytes": folded_bytes,
                    "mode": "sharded", "files": files,
                    "shards": self.num_shards,
                    "rows_written": rows_written})

    # ------------------------------------------------------------------
    # SHOW SHARDS / heat accounting.
    # ------------------------------------------------------------------
    def shard_heats(self):
        """Per-shard heat (routed lookups + DML delta rows) since the
        last rebalance."""
        metrics = self.env.cluster.metrics
        table = self.table.name
        return [max(0, metrics.counter("shard.heat.%s.%d" % (table, index))
                    - self._heat_baseline[index])
                for index in range(self.num_shards)]

    def _reset_heat_baseline(self):
        metrics = self.env.cluster.metrics
        table = self.table.name
        self._heat_baseline = [
            metrics.counter("shard.heat.%s.%d" % (table, index))
            for index in range(self.num_shards)]

    def shard_rows(self):
        """``SHOW SHARDS`` rows (see :data:`SHARD_COLUMNS`)."""
        heats = self.shard_heats()
        rows = []
        for index, child in enumerate(self.children):
            rows.append((index,
                         len(self.shard_map.buckets_of(index)),
                         len(child.master.file_paths()),
                         child.master.row_count(),
                         child.master.data_bytes(),
                         child.attached.size_bytes,
                         heats[index]))
        return rows

    # ------------------------------------------------------------------
    # REBALANCE (deterministic one-bucket 2PC move).
    # ------------------------------------------------------------------
    def execute_rebalance(self, session):
        """Move the hottest shard's lowest bucket to the coldest shard.

        Phase 1 (rolls back on a crash): major-compact source and
        destination so the move copies master rows only, then spill the
        *complete* new contents of both shards as JSON and write the
        rebalance manifest — the commit point.  Phase 2 (rolls forward):
        overwrite both children from their spill files, persist the new
        shard map, clean up.  Every phase-2 step is existence-guarded,
        so replaying from any prefix converges.
        """
        self._check_not_compacting()
        self._ensure_recovered()
        src, dst, heats = self._rebalance_choice()
        if src is None:
            return QueryResult(
                sim_seconds=0.0, jobs=[], affected=0,
                plan="rebalance-noop",
                detail={"heats": heats, "reason": "balanced"})
        bucket = min(self.shard_map.buckets_of(src))
        cluster = self.env.cluster
        fs = self.env.fs
        faults = cluster.faults
        table = self.table.name
        keep_path = self._rebalance_dir + "/keep.json"
        dest_path = self._rebalance_dir + "/dest.json"
        assignment = list(self.shard_map.assignment)
        assignment[bucket] = dst
        moved = []
        with cluster.tracer.span("phase", "dualtable:rebalance",
                                 table=table, bucket=bucket,
                                 src=src, dst=dst):
            # Fold both shards' deltas first: the spill then only has to
            # carry master rows, and the attached stores stay empty
            # through the move.
            fold_src = self.children[src].execute_compact(session)
            fold_dst = self.children[dst].execute_compact(session)
            sim_seconds = fold_src.sim_seconds + fold_dst.sim_seconds
            jobs = list(fold_src.jobs) + list(fold_dst.jobs)
            key_idx = self.schema.index_of(self.shard_key)

            def spill():
                faults.hit("dualtable.rebalance.spill", table=table)
                src_rows = list(self.children[src].read_all_rows())
                dst_rows = list(self.children[dst].read_all_rows())
                keep = []
                del moved[:]
                for row in src_rows:
                    if ShardMap.bucket_of(row[key_idx]) == bucket:
                        moved.append(list(row))
                    else:
                        keep.append(list(row))
                dest = [list(row) for row in dst_rows] + moved
                if fs.exists(self._rebalance_dir):
                    fs.delete(self._rebalance_dir, recursive=True)
                fs.mkdirs(self._rebalance_dir)
                fs.write_file(keep_path,
                              json.dumps(keep).encode("utf-8"))
                fs.write_file(dest_path,
                              json.dumps(dest).encode("utf-8"))

            def write_manifest():
                faults.hit("dualtable.rebalance.manifest", table=table)
                manifest = {"table": table, "mode": "rebalance",
                            "bucket": bucket, "src": src, "dst": dst,
                            "assignment": assignment,
                            "keep": keep_path, "dest": dest_path}
                if fs.exists(self._rebalance_manifest):
                    fs.delete(self._rebalance_manifest)
                fs.write_file(self._rebalance_manifest,
                              json.dumps(manifest).encode("utf-8"))

            sim_seconds += run_with_retries(session, spill,
                                            "rebalance-spill")
            sim_seconds += run_with_retries(session, write_manifest,
                                            "rebalance-manifest")
            manifest = self._load_rebalance_manifest()
            sim_seconds += run_with_retries(
                session, lambda: self._apply_rebalance(manifest,
                                                       inject=True),
                "rebalance-apply")
        self._reset_heat_baseline()
        metrics = cluster.metrics
        metrics.incr("shard.rebalances.%s" % table)
        metrics.observe("shard.rebalance.moved_rows", len(moved))
        return QueryResult(
            sim_seconds=sim_seconds, jobs=jobs, affected=len(moved),
            plan="rebalance",
            detail={"bucket": bucket, "src": src, "dst": dst,
                    "moved_rows": len(moved), "heats": heats})

    def _rebalance_choice(self):
        """``(src, dst, heats)`` — deterministic, or ``(None, None, h)``.

        Hottest shard donates (ties -> lowest index), coldest receives
        (ties -> lowest index); no-op when already balanced, when one
        shard holds everything worth nothing, or when the donor owns no
        buckets.
        """
        heats = self.shard_heats()
        if self.num_shards < 2:
            return None, None, heats
        indices = range(self.num_shards)
        src = max(indices, key=lambda i: (heats[i], -i))
        dst = min(indices, key=lambda i: (heats[i], i))
        if src == dst or heats[src] <= heats[dst] \
                or not self.shard_map.buckets_of(src):
            return None, None, heats
        return src, dst, heats

    def _load_rebalance_manifest(self):
        """The rebalance manifest as a dict, or None if absent/torn."""
        fs = self.env.fs
        if not fs.exists(self._rebalance_manifest):
            return None
        try:
            manifest = json.loads(
                fs.read_file_silent(self._rebalance_manifest)
                .decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return None
        if not isinstance(manifest, dict) \
                or manifest.get("table") != self.table.name \
                or manifest.get("mode") != "rebalance":
            return None
        assignment = manifest.get("assignment")
        if not isinstance(assignment, list) \
                or len(assignment) != NUM_BUCKETS:
            return None
        return manifest

    def _apply_rebalance(self, manifest, inject=False):
        """Phase 2: overwrite both shards from their spills; idempotent.

        Spill files carry each shard's *complete* new contents, so apply
        is a pure overwrite and replaying any prefix converges: an
        already-applied spill file is still present until cleanup, and
        re-overwriting with it is a no-op in content terms.
        """
        fs = self.env.fs
        faults = self.env.cluster.faults

        def hit(point):
            if inject:
                faults.hit(point, table=self.table.name)

        hit("dualtable.rebalance.apply")
        for key, shard in (("keep", manifest["src"]),
                           ("dest", manifest["dst"])):
            path = manifest[key]
            if fs.exists(path):
                rows = [tuple(self.schema.coerce_row(row))
                        for row in json.loads(
                            fs.read_file(path).decode("utf-8"))]
                self._overwrite_child_bucketed(self.children[shard], rows)
        self.shard_map.persist(manifest["assignment"])
        hit("dualtable.rebalance.cleanup")
        if fs.exists(self._rebalance_dir):
            fs.delete(self._rebalance_dir, recursive=True)
        if fs.exists(self._rebalance_manifest):
            fs.delete(self._rebalance_manifest)

    def _overwrite_child_bucketed(self, child, rows):
        """Replace one child's contents, keeping the bucket-grouped
        layout invariant (one append per bucket, ascending)."""
        key_idx = self.schema.index_of(self.shard_key)
        child.insert_rows([], overwrite=True)
        buckets = {}
        for row in rows:
            buckets.setdefault(ShardMap.bucket_of(row[key_idx]),
                               []).append(row)
        for bucket in sorted(buckets):
            child.insert_rows(buckets[bucket])

    def _recover_rebalance(self):
        """Roll an interrupted rebalance forward or back; idempotent."""
        fs = self.env.fs
        manifest = self._load_rebalance_manifest()
        if manifest is not None:
            self._apply_rebalance(manifest, inject=False)
            self.env.cluster.metrics.incr(
                "shard.rebalance.recovered.%s" % self.table.name)
            return "rolled_forward"
        rolled_back = False
        if fs.exists(self._rebalance_manifest):
            fs.delete(self._rebalance_manifest)     # torn manifest
            rolled_back = True
        if fs.exists(self._rebalance_dir):
            fs.delete(self._rebalance_dir, recursive=True)
            rolled_back = True
        return "rolled_back" if rolled_back else "clean"


register_handler("dualtable-sharded", ShardedDualTableHandler)
