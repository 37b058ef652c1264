"""Per-layer wall-clock attribution from outside the program.

:class:`Recorder` wraps public entry points of the ``repro`` modules
(class methods in place, module functions wherever a module has bound
them by name) and records one span per call: name, start, end, parent
span and statement id.  Generator entry points are timed over their
iteration: every resumption is an interval of the same span, so a
span's *active* time excludes the consumer's work between items.  A
span's self time is its active time minus the time its child spans
were active inside it.

High-frequency leaves (ledger charges and metric events) are timed and
counted without span records.  Spans stay in memory;
:meth:`Recorder.chrome_trace` renders them as Chrome trace events.
Wrappers only observe: they pass arguments and results through
unchanged, so simulated output is identical with tracing on or off.
"""

import dataclasses
import functools
import sys
import types
from collections import defaultdict
from time import perf_counter_ns

#: (module, class or None, attribute, span name).  A callable span name
#: picks the name from the open spans when the call starts.
SPANS = (
    ("repro.hive.session", "HiveSession", "execute", "session.execute"),
    ("repro.hive.parser", None, "parse", "parser.parse"),
    ("repro.hive.executor", "SelectExecutor", "run", "executor.run"),
    ("repro.hive.vexpr", None, "compile_batch", "vexpr.compile"),
    ("repro.hive.vexpr", None, "compile_batch_predicate", "vexpr.compile"),
    ("repro.core.handler", "DualTableHandler", "execute_update",
     "handler.dml"),
    ("repro.core.handler", "DualTableHandler", "execute_delete",
     "handler.dml"),
    ("repro.core.handler", "DualTableHandler", "execute_compact",
     "handler.compact"),
    ("repro.core.handler", "DualTableHandler", "scan_splits",
     "handler.scan_splits"),
    ("repro.core.handler", "DualTableHandler", "read_split_with_rids",
     lambda stack: ("handler.locate"
                    if any(s.name == "handler.dml" for s in stack)
                    else "handler.read_rows")),
    ("repro.core.handler", "DualTableHandler", "read_split_batches",
     "handler.read_batches"),
    ("repro.core.handler", "DualTableHandler", "plan_lookup", "lookup.plan"),
    ("repro.core.handler", "DualTableHandler", "execute_lookup",
     "lookup.run"),
    ("repro.core.union_read", None, "union_read_overlay",
     "union_read.overlay"),
    ("repro.core.union_read", None, "union_read_file", "union_read.row_merge"),
    ("repro.core.union_read", None, "union_read_batches",
     "union_read.row_merge"),
    ("repro.core.union_read", None, "build_overlay", "union_read.build"),
    ("repro.core.attached", "AttachedTable", "put_update", "attached.put"),
    ("repro.core.attached", "AttachedTable", "put_delete", "attached.put"),
    ("repro.core.attached", "AttachedTable", "scan_file",
     "attached.scan_file"),
    ("repro.core.attached", "AttachedTable", "file_delta_stats",
     "attached.probe"),
    ("repro.core.attached", "AttachedTable", "has_entries_in_file",
     "attached.probe"),
    ("repro.core.attached", "AttachedTable", "pk_dirty_in_file",
     "attached.probe"),
    ("repro.hbase.table", "HTable", "put", "hbase.put"),
    ("repro.hbase.table", "HTable", "scan", "hbase.scan"),
    ("repro.hbase.region", "Region", "flush", "hbase.flush"),
    ("repro.hbase.region", "Region", "compact", "hbase.compact"),
    ("repro.orc.reader", "OrcReader", "__init__", "orc.open"),
    ("repro.orc.reader", "OrcReader", "rows", "orc.decode"),
    ("repro.orc.reader", "OrcReader", "batches", "orc.decode"),
    ("repro.orc.writer", "OrcWriter", "write_rows", "orc.write"),
    ("repro.orc.writer", "OrcWriter", "finish", "orc.write"),
    ("repro.mapreduce.runner", "JobRunner", "run", "mapreduce.run"),
)

#: Leaves: (module, class, attribute, leaf name).
LEAVES = (
    ("repro.cluster.cluster", "Cluster", "record_charge", "ledger"),
    ("repro.cluster.ledger", "MetricsLedger", "record", "ledger"),
    ("repro.obs.registry", "MetricsRegistry", "incr", "metrics"),
    ("repro.obs.registry", "MetricsRegistry", "gauge", "metrics"),
    ("repro.obs.registry", "MetricsRegistry", "observe", "metrics"),
    ("repro.obs.registry", "MetricsRegistry", "replay", "metrics"),
)

#: Task functions of a job are attributed to the layer that built it.
_TASK_SPAN = {"update-edit": "task.dml", "delete-edit": "task.dml",
              "compact": "task.compact", "compact-partial": "task.compact"}


class Span:
    __slots__ = ("name", "start", "end", "parent", "stmt", "active",
                 "child", "items", "resumed", "generator")

    def __init__(self, name, parent, stmt):
        self.name = name
        self.parent = parent
        self.stmt = stmt
        self.start = self.end = self.resumed = 0
        self.active = self.child = self.items = 0
        self.generator = False


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.active = False
        self.stack = []
        self.spans = []
        self.stmt = 0
        self.leaf_calls = defaultdict(int)     # leaf attribute -> calls
        self.leaf_ns = defaultdict(int)        # leaf name -> outer time
        self.stripes_total = 0
        self.stripes_read = 0
        self._in_leaf = False
        self._undo = []

    # -- span bookkeeping ----------------------------------------------
    def _open(self, name):
        stack = self.stack
        span = Span(name, stack[-1] if stack else None, self.stmt)
        self.spans.append(span)
        span.start = span.resumed = perf_counter_ns()
        stack.append(span)
        return span

    def _close(self, span):
        now = perf_counter_ns()
        elapsed = now - span.resumed
        span.active += elapsed
        span.end = now
        stack = self.stack
        stack.pop()
        if stack:
            stack[-1].child += elapsed

    def _iterate(self, span, generator):
        """Re-yield ``generator`` timing each resumption under ``span``."""
        span.generator = True
        stack = self.stack
        step = generator.__next__
        try:
            while True:
                span.resumed = perf_counter_ns()
                stack.append(span)
                try:
                    item = step()
                except StopIteration:
                    return
                finally:
                    self._close(span)
                span.items += 1
                yield item
        finally:
            generator.close()

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, fn, name):
        recorder = self
        pick = name if callable(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span = recorder._open(pick(recorder.stack) if pick else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._close(span)
            if isinstance(result, types.GeneratorType):
                return recorder._iterate(span, result)
            return result
        return wrapper

    def _leaf_wrapper(self, fn, name, key):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            recorder.leaf_calls[key] += 1
            if recorder._in_leaf:
                return fn(*args, **kwargs)
            recorder._in_leaf = True
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - started
                recorder._in_leaf = False
                recorder.leaf_ns[name] += elapsed
                if recorder.stack:
                    recorder.stack[-1].child += elapsed
        return wrapper

    def _stripe_counter(self, fn):
        """Count stripes offered vs read by an ORC row/batch iterator."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(reader, projection=None, stripe_filter=None, **kwargs):
            if recorder.active:
                recorder.stripes_total += len(reader.stripes)
                recorder.stripes_read += sum(
                    1 for s in reader.stripes
                    if stripe_filter is None or stripe_filter(s))
            return fn(reader, projection=projection,
                      stripe_filter=stripe_filter, **kwargs)
        return wrapper

    def _job_wrapper(self, fn):
        """Time a job's task functions as spans of their own."""
        recorder = self

        @functools.wraps(fn)
        def wrapper(runner, job):
            if not recorder.active:
                return fn(runner, job)
            name = _TASK_SPAN.get(job.name, "task.select")
            wrap = recorder._span_wrapper
            job = dataclasses.replace(
                job, map_fn=wrap(job.map_fn, name),
                reduce_fn=job.reduce_fn and wrap(job.reduce_fn, name),
                combiner_fn=job.combiner_fn and wrap(job.combiner_fn, name))
            return fn(runner, job)
        return wrapper

    # -- installation --------------------------------------------------
    def install(self):
        """Wrap every entry point; :meth:`uninstall` restores them."""
        for module_name, owner, attr, name in SPANS:
            original = _lookup(module_name, owner, attr)
            wrapped = self._span_wrapper(original, name)
            if (owner, attr) in (("OrcReader", "rows"),
                                 ("OrcReader", "batches")):
                wrapped = self._stripe_counter(wrapped)
            if (owner, attr) == ("JobRunner", "run"):
                wrapped = self._job_wrapper(wrapped)
            self._replace(module_name, owner, attr, original, wrapped)
        for module_name, owner, attr, name in LEAVES:
            original = _lookup(module_name, owner, attr)
            wrapped = self._leaf_wrapper(original, name,
                                         "%s.%s" % (owner, attr))
            self._replace(module_name, owner, attr, original, wrapped)

    def _replace(self, module_name, owner, attr, original, wrapped):
        if owner is not None:
            cls = getattr(sys.modules[module_name], owner)
            setattr(cls, attr, wrapped)
            self._undo.append((cls, attr, original))
            return
        # A module function is also bound by name in every module that
        # imported it; rebind all of them.
        for module in list(sys.modules.values()):
            if (getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original):
                setattr(module, attr, wrapped)
                self._undo.append((module, attr, original))

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo = []

    # -- results -------------------------------------------------------
    def totals(self):
        """``{span name: [calls, active_ns, self_ns, items]}``.

        Calls and active time count only the outermost span of a
        recursion (a span whose parent has another name), so a layer
        calling itself is not counted twice.
        """
        out = defaultdict(lambda: [0, 0, 0, 0])
        for span in self.spans:
            entry = out[span.name]
            if span.parent is None or span.parent.name != span.name:
                entry[0] += 1
                entry[1] += span.active
            entry[2] += span.active - span.child
            entry[3] += span.items
        return out

    def chrome_trace(self):
        """Chrome trace-event JSON (``chrome://tracing``, Perfetto).

        Calls go on thread 1; generator spans, which interleave with
        their consumers, go on thread 2 with their active time in args.
        """
        index = {id(span): i for i, span in enumerate(self.spans)}
        base = self.spans[0].start if self.spans else 0
        events = []
        for i, span in enumerate(self.spans):
            events.append({
                "name": span.name, "cat": span.name.split(".")[0],
                "ph": "X", "pid": 1, "tid": 2 if span.generator else 1,
                "ts": (span.start - base) / 1000.0,
                "dur": (span.end - span.start) / 1000.0,
                "args": {"id": i, "stmt": span.stmt,
                         "parent": (index[id(span.parent)]
                                    if span.parent is not None else None),
                         "active_ms": span.active / 1e6,
                         "self_ms": (span.active - span.child) / 1e6}})
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _lookup(module_name, owner, attr):
    module = sys.modules[module_name]
    return getattr(getattr(module, owner) if owner else module, attr)
