"""Wall-clock caching with simulated-charge replay.

* :class:`ByteBudgetLRU` — a byte-budgeted LRU used for the ORC
  footer/stripe cache and the Attached-Table delta-range cache.  Cache
  hits skip the *real* CPU work (footer parse, stream decode, HBase
  scan) but replay the same simulated charges a miss records, so the
  cost model, figures and ``sim_seconds`` never depend on cache state.
* :class:`TaskRecorder` — the capture buffer behind that replay: while
  :meth:`repro.cluster.Cluster.capture` is active, ledger charges and
  metric events land in the recorder instead of being applied, and
  :meth:`TaskRecorder.replay` later issues exactly the same sequence of
  ``ledger.record`` / ``metrics`` calls.

See docs/INTERNALS.md §6 for the replay argument and the cache
invalidation rules.
"""

from repro.cache.cache import ByteBudgetLRU
from repro.cache.recorder import TaskRecorder

__all__ = ["ByteBudgetLRU", "TaskRecorder"]
