"""Byte-budgeted, thread-safe LRU cache with hit/miss metrics.

Used for the ORC footer/stripe cache (``cluster.orc_cache``) and the
Attached-Table delta-range cache (``cluster.delta_cache``).  Entries
carry an explicit byte estimate; inserting past the budget evicts from
the LRU end, and a value larger than the whole budget is simply not
stored.

Cache *contents* never influence simulated time — hits replay the same
charges a miss records (callers enforce this; see
:mod:`repro.cache`) — so the only observable difference a cache makes
is wall-clock speed plus the ``cache.<name>.*`` counters, which are
explicitly excluded from determinism comparisons (they depend on cache
budgets and on what earlier reads left behind).

Invalidation is by key prefix: keys are tuples whose first element is a
group tag (an HDFS path or an Attached-Table name), so a whole table's
entries drop in one call.  String tags match by ``startswith`` to cover
path prefixes (a master directory invalidates every file under it).
"""

import threading
from collections import OrderedDict


class ByteBudgetLRU:
    """An LRU mapping of tuple keys to (value, nbytes) with a byte cap."""

    def __init__(self, budget_bytes, metrics=None, name="cache"):
        self.budget_bytes = int(budget_bytes)
        self.metrics = metrics
        self.name = name
        self._lock = threading.Lock()
        self._entries = OrderedDict()    # key -> (value, nbytes)
        self._used = 0

    # ------------------------------------------------------------------
    def _incr(self, event):
        if self.metrics is not None:
            self.metrics.incr("%s.%s" % (self.name, event))

    def get(self, key):
        """The cached value, or None on a miss (counts either way)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            self._incr("misses")
            return None
        self._incr("hits")
        return entry[0]

    def put(self, key, value, nbytes):
        """Insert (or refresh) an entry, evicting LRU past the budget."""
        nbytes = max(0, int(nbytes))
        if self.budget_bytes <= 0 or nbytes > self.budget_bytes:
            return
        evicted = 0
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._used -= old[1]
            self._entries[key] = (value, nbytes)
            self._used += nbytes
            while self._used > self.budget_bytes and self._entries:
                _, (_, freed) = self._entries.popitem(last=False)
                self._used -= freed
                evicted += 1
        if evicted and self.metrics is not None:
            self.metrics.incr("%s.evictions" % self.name, evicted)

    # ------------------------------------------------------------------
    # Invalidation (strict: callers hook every mutation of the backing
    # store — EDIT commit, COMPACT, INSERT OVERWRITE, WAL loss).
    # ------------------------------------------------------------------
    def invalidate_group(self, tag):
        """Drop every entry whose key's first element matches ``tag``.

        String tags match by prefix so a directory tag covers all file
        paths beneath it; non-string tags match by equality.
        """
        dropped = 0
        with self._lock:
            if isinstance(tag, str):
                doomed = [k for k in self._entries
                          if isinstance(k[0], str) and k[0].startswith(tag)]
            else:
                doomed = [k for k in self._entries if k[0] == tag]
            for key in doomed:
                _, freed = self._entries.pop(key)
                self._used -= freed
                dropped += 1
        if dropped and self.metrics is not None:
            self.metrics.incr("%s.invalidations" % self.name, dropped)
        return dropped

    def clear(self):
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._used = 0
        if dropped and self.metrics is not None:
            self.metrics.incr("%s.invalidations" % self.name, dropped)
        return dropped

    # ------------------------------------------------------------------
    @property
    def used_bytes(self):
        with self._lock:
            return self._used

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def __contains__(self, key):
        with self._lock:
            return key in self._entries

    def __repr__(self):
        return ("ByteBudgetLRU(%s: %d entries, %d/%d bytes)"
                % (self.name, len(self), self.used_bytes,
                   self.budget_bytes))
