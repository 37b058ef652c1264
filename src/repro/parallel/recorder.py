"""Capture of ledger charges and metric events for later replay.

:meth:`repro.cluster.Cluster.capture` pushes a :class:`TaskRecorder`
onto the cluster's capture stack; every charge and metric event produced
while the recorder is on top is appended to it instead of being applied.
:meth:`TaskRecorder.replay` then issues exactly the sequence of
``ledger.record`` / ``metrics.incr`` calls that were captured — same
floats, same order, and attributed to whatever cost scope is active at
replay time.  The delta-range cache stores a miss's recorder next to
the cached items and replays it on every hit, so a hit charges exactly
what the miss did.

Recorders nest: replaying while an outer recorder is active appends to
the outer recorder instead of the global ledger, so charges bubble out
one level at a time.
"""


class TaskRecorder:
    """Captured side effects of one cache fill (or any captured block)."""

    __slots__ = ("charges", "events")

    def __init__(self):
        #: :class:`repro.cluster.ledger.Charge` objects, in charge order.
        self.charges = []
        #: ``("incr"|"observe"|"gauge", name, value)`` metric events.
        self.events = []

    def add_charge(self, charge):
        self.charges.append(charge)

    def add_event(self, kind, name, value):
        self.events.append((kind, name, value))

    def replay(self, cluster):
        """Apply the captured charges and events to ``cluster``.

        Routed through :meth:`Cluster.record_charge` and
        :meth:`MetricsRegistry.replay`, both of which respect any capture
        that is active at replay time — so nested replays compose.
        """
        record = cluster.record_charge
        for charge in self.charges:
            record(charge)
        if self.events:
            cluster.metrics.replay(self.events)

    def __repr__(self):
        return ("TaskRecorder(charges=%d, events=%d)"
                % (len(self.charges), len(self.events)))
