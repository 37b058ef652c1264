"""The LOOKUP plan: point and small-range reads that skip MapReduce.

DualTable already holds the two halves of a hybrid table — sorted ORC
master files with per-stripe min/max statistics, and an attached store
of live deltas keyed by record ID.  A ``SELECT ... WHERE pk = v`` (or a
small BETWEEN / IN range over the declared PRIMARY KEY) therefore never
needs a MapReduce job: consult a control-plane **stripe index** to find
the candidate stripes, probe the attached table for the candidate
files' deltas, and merge the two streams under exactly the scan path's
UNION READ semantics.  The win is the MR fixed cost (job startup + one
task per file) plus every pruned stripe's bytes.

Soundness of PK pruning on a *dirty* file: a delta that updates non-PK
columns cannot move a row across PK ranges, and a delete of a pruned
row is irrelevant — so stripe pruning by PK min/max stays sound unless
some delta rewrites the PK column itself.  :func:`plan_lookup` checks
that per file (:meth:`AttachedTable.pk_dirty_in_file`) and reads
PK-dirty files in full.

Planning is entirely uncharged control-plane work (metastore-style
stats); execution charges exactly what the scan path's per-file union
read charges for the same stripes.  Both fault points fire *before* the
first charged byte, so a mid-lookup crash can fall back to the scan
plan with no double-charged cost.
"""

from dataclasses import dataclass

from repro.core.master import FILE_ID_KEY
from repro.mapreduce import InputSplit
from repro.orc import OrcReader

#: allowed fault kinds per LOOKUP injection point.  Kept separate from
#: :data:`repro.faults.injector.POINT_KINDS` (like SERVER_CHAOS_POINTS)
#: so existing random chaos seeds keep selecting the same faults.
LOOKUP_CHAOS_POINTS = {
    "lookup.index_read": ("crash",),
    "lookup.hbase_probe": ("crash", "region_crash"),
}


@dataclass
class LookupPlan:
    """A fully planned LOOKUP read (control-plane only, nothing charged)."""

    pk: str                 # primary-key column (lowercase)
    pk_range: object        # pushdown.ColumnRange bounding it
    projection: list        # column names to decode, or None for all
    files: list             # candidate file dicts (path/file_id/whole_file)
    choice: object          # cost_model.LookupChoice
    est_rows: int
    total_files: int


# ----------------------------------------------------------------------
# Stripe min/max index (control-plane, cached in the delta cache).
# ----------------------------------------------------------------------
def stripe_index(handler, hit_faults=True):
    """Per-file PK stripe index: ``[{path, file_id, stripes, ...}]``.

    Built uncharged from silent file reads (real warehouses keep these
    stats in the metastore; cf. ``MasterTable.file_meta``) and memoized
    in the cluster's delta cache keyed ``(attached_name, "stripe-index",
    path, file_size)``.  Keying by the attached table's name means every
    PR-3 invalidation path — DML writes, COMPACT, INSERT OVERWRITE, a
    region-server crash clearing the whole cache — drops the index too;
    the file size in the key is belt-and-braces on top (replaced master
    files also get fresh file IDs, hence fresh paths).
    """
    cluster = handler.env.cluster
    if hit_faults:
        cluster.faults.hit("lookup.index_read", table=handler.table.name)
    pk = handler.primary_key
    cache = getattr(cluster, "delta_cache", None)
    if cache is not None and cache.budget_bytes <= 0:
        cache = None
    fs = handler.env.fs
    entries = []
    for path in handler.master.file_paths():
        size = fs.file_size(path)
        key = None
        if cache is not None:
            key = (handler.attached.name, "stripe-index", path, size)
            cached = cache.get(key)
            if cached is not None:
                entries.append(cached)
                continue
        entry = _index_entry(fs, path, pk, size)
        if key is not None:
            cache.put(key, entry,
                      nbytes=96 + 48 * len(entry["stripes"]))
        entries.append(entry)
    return entries


def _index_entry(fs, path, pk, file_size):
    reader = OrcReader(fs.read_file_silent(path))
    names = [n.lower() for n, _ in reader.schema]
    pk_idx = names.index(pk)
    stripes = []
    for stripe in reader.stripes:
        stats = stripe.stats(pk_idx)
        stripes.append((stripe.num_rows, stats["min"], stats["max"],
                        tuple(col["length"] for col in stripe.columns)))
    footer_bytes = max(0, file_size - sum(s.length for s in reader.stripes))
    return {"path": path,
            "file_id": int(reader.metadata[FILE_ID_KEY]),
            "num_rows": reader.num_rows,
            "names": names,
            "footer_bytes": footer_bytes,
            "stripes": stripes}


# ----------------------------------------------------------------------
# Planning.
# ----------------------------------------------------------------------
def plan_lookup(handler, ranges, projection=None, hit_faults=True):
    """Plan a LOOKUP for the extracted column ranges; None if ineligible.

    Eligibility: the table declares a PRIMARY KEY, the predicate bounds
    it on both sides (equality, IN list, or a closed BETWEEN range), and
    the stripe index estimates at most ``dualtable.lookup.max_rows``
    candidate rows.  The returned plan carries the cost-model verdict
    (:class:`~repro.core.cost_model.LookupChoice`); callers decide
    whether a ``scan``-preferring verdict falls through to MR.
    """
    pk = handler.primary_key
    if pk is None or not ranges:
        return None
    pk_range = ranges.get(pk)
    if pk_range is None:
        return None
    if pk_range.in_set is None and (pk_range.low is None
                                    or pk_range.high is None):
        return None
    index = stripe_index(handler, hit_faults=hit_faults)
    candidates = []
    est_rows = 0
    lookup_bytes = 0
    scan_bytes = 0
    probe_bytes = 0
    probe_entries = 0
    for entry in index:
        proj_idx = _projection_indices(entry["names"], projection)
        file_scan_bytes = sum(sum(lengths[i] for i in proj_idx)
                              for _, _, _, lengths in entry["stripes"])
        scan_bytes += file_scan_bytes
        delta_bytes, delta_entries = \
            handler.attached.file_delta_stats(entry["file_id"])
        whole_file = bool(delta_entries) and handler.attached.pk_dirty_in_file(
            entry["file_id"], entry["names"].index(pk))
        match_rows = 0
        match_bytes = 0
        for nrows, pk_min, pk_max, lengths in entry["stripes"]:
            if pk_range.may_overlap(pk_min, pk_max):
                match_rows += nrows
                match_bytes += sum(lengths[i] for i in proj_idx)
        if whole_file:
            match_rows = entry["num_rows"]
            match_bytes = file_scan_bytes
        if match_rows == 0:
            # No stripe can hold a matching PK and (if dirty) no delta
            # can move one in: the file contributes nothing.  Trailing
            # deltas of skipped files never produce rows either.
            continue
        est_rows += match_rows
        lookup_bytes += entry["footer_bytes"] + match_bytes
        probe_bytes += delta_bytes
        probe_entries += delta_entries
        candidates.append({"path": entry["path"],
                           "file_id": entry["file_id"],
                           "whole_file": whole_file,
                           "est_rows": match_rows})
    if est_rows > handler.lookup_rows_limit:
        return None
    profile = handler.env.cluster.profile
    choice = handler.cost_model().choose_lookup_plan(
        scan_bytes=scan_bytes, total_files=len(index),
        lookup_bytes=lookup_bytes, files_read=len(candidates),
        probe_bytes=probe_bytes, probe_entries=probe_entries,
        job_startup_s=profile.job_startup_s,
        task_overhead_s=profile.task_overhead_s)
    return LookupPlan(pk=pk, pk_range=pk_range, projection=projection,
                      files=candidates, choice=choice, est_rows=est_rows,
                      total_files=len(index))


def _projection_indices(names, projection):
    if projection is None:
        return list(range(len(names)))
    return [names.index(name.lower()) for name in projection
            if name.lower() in names]


# ----------------------------------------------------------------------
# Execution.
# ----------------------------------------------------------------------
def run_lookup(handler, plan, batch_rows=None):
    """Execute a planned LOOKUP; returns the merged value tuples.

    Each candidate file is one UNION READ through the handler's
    :meth:`read_split_batches` — the scan path's overlay merge, with the
    stripe filter bounded by the PK range (or none for a PK-dirty file)
    — so it charges exactly what a scan of the same stripes charges:
    the ORC footer plus decoded stripe-column bytes, the memoized delta
    scan, the per-output-row ``unionread`` CPU charge and the
    ``unionread.*`` counters.

    The ``lookup.hbase_probe`` fault point fires before the first
    charged byte, so a region crash here leaves the ledger exactly as if
    the statement had been a scan from the start.
    """
    handler.env.cluster.faults.hit("lookup.hbase_probe",
                                   table=handler.table.name)
    handler.attached.ensure_available()
    out = []
    for candidate in plan.files:
        ranges = {} if candidate["whole_file"] else {plan.pk: plan.pk_range}
        split = InputSplit(payload={"path": candidate["path"],
                                    "file_id": candidate["file_id"],
                                    "projection": plan.projection,
                                    "ranges": ranges},
                           label=candidate["path"])
        for batch in handler.read_split_batches(split, None,
                                                batch_rows=batch_rows):
            out.extend(batch.rows())
    return out
