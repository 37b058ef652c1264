"""Per-table maintenance statistics from the metrics registry.

The daemon must not instrument the data path itself — the handler
already counts ``dualtable.scans.<table>`` (one per UNION-READ split
planning) and ``dualtable.dml.<table>`` (one per cost-model plan
choice).  This module turns those *cumulative* counters into the one
number the compaction policy needs: the **read horizon** — how many
table reads are expected to pay union-read overhead per mutation — as
an exponentially weighted moving average of the observed reads-per-DML
mix.

Counter deltas are observed at daemon tick time, after all jobs of the
triggering statement completed, so the derived stats are a function
of the workload alone.
"""


class TableStats:
    """Observed read/write mix of one DualTable."""

    #: EWMA weight of the newest observation.
    EWMA_ALPHA = 0.4

    def __init__(self, read_factor=1):
        #: the horizon estimate, seeded from the table's declared
        #: ``dualtable.read_factor`` (the paper's ``k``) until real
        #: observations arrive.
        self.reads_per_dml = float(max(1, read_factor))
        self.total_scans = 0
        self.total_dmls = 0
        self._last_scans = 0
        self._last_dmls = 0
        self._reads_since_dml = 0

    def advance(self, scans, dmls):
        """Fold the latest cumulative counter values into the EWMA.

        Each DML performs one table scan of its own (the EDIT/OVERWRITE
        plans both read the table), so pure reads in a window are
        ``new_scans - new_dmls``.  Reads between mutations accumulate
        and are attributed when the next mutation window closes.
        """
        new_scans = max(0, scans - self._last_scans)
        new_dmls = max(0, dmls - self._last_dmls)
        self._last_scans = scans
        self._last_dmls = dmls
        self.total_scans = scans
        self.total_dmls = dmls
        reads = max(0, new_scans - new_dmls)
        if new_dmls > 0:
            observed = (self._reads_since_dml + reads) / new_dmls
            self.reads_per_dml += self.EWMA_ALPHA * (observed
                                                     - self.reads_per_dml)
            self._reads_since_dml = 0
        else:
            self._reads_since_dml += reads

    @property
    def horizon(self):
        """Projected reads that will pay for the current deltas."""
        return max(1.0, self.reads_per_dml)


class StatsCollector:
    """Derives and caches per-table :class:`TableStats` from metrics."""

    def __init__(self, cluster):
        self.cluster = cluster
        self._tables = {}

    def table_stats(self, name, read_factor=1):
        stats = self._tables.get(name)
        if stats is None:
            stats = self._tables[name] = TableStats(read_factor)
        return stats

    def refresh(self, name, read_factor=1):
        """Advance one table's stats to the current counter values."""
        counters = self.cluster.metrics.counters
        stats = self.table_stats(name, read_factor)
        stats.advance(counters.get("dualtable.scans.%s" % name, 0),
                      counters.get("dualtable.dml.%s" % name, 0))
        return stats

    def forget(self, name):
        self._tables.pop(name, None)
