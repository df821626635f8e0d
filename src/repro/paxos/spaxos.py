"""S-Paxos-style dissemination/ordering separation (paper §5.1).

The paper's related-work analysis singles out S-Paxos (Biely et al.) as "a
good candidate for a gossip-based implementation, where values are
inherently disseminated to all processes, while the proposed semantic
techniques can be adopted to improve the ordering layer". This module
implements that variant:

* client values are *disseminated* by their origin process as ordinary
  gossip broadcasts (every process ends up holding the body);
* the coordinator *orders* value ids only: Phase 2a and Decision messages
  carry a tiny :class:`ValueRef` instead of the 1 KB body;
* delivery of a decided instance waits until the instance's value body has
  arrived through the dissemination layer (in total order — a missing body
  blocks later instances exactly like a missing decision).

Everything else — acceptors, learners, semantic filtering/aggregation —
is inherited unchanged, which is the point: the ordering layer's traffic
shrinks while the dissemination layer already was a gossip broadcast.
"""

from collections import deque

from repro.paxos.messages import HEADER_BYTES, ClientValue, Value
from repro.paxos.process import PaxosProcess


class ValueRef(Value):
    """A value placeholder carrying identity only (proposed/decided)."""

    #: Wire size of a reference: id + checksum, no body.
    REF_BYTES = 24

    def __init__(self, value_id):
        super().__init__(value_id, client_id=None,
                         size_bytes=ValueRef.REF_BYTES)


class SPaxosProcess(PaxosProcess):
    """Paxos process with S-Paxos-style id-only ordering."""

    def __init__(self, *args, **kwargs):
        #: value_id -> Value body, filled by the dissemination layer.
        self._bodies = {}
        #: decided (instance, ref) pairs awaiting their body, in order.
        self._undelivered = deque()
        #: The installed delivery callback; initialised before
        #: super().__init__ because the shell calls deliver_to() there.
        self._deliver_body = None
        super().__init__(*args, **kwargs)

    def deliver_to(self, callback):
        """Body resolution stays in front of ``callback``: decided refs
        funnel through it and the callback sees the resolved stream."""
        previous = self._deliver_body
        self._deliver_body = callback
        self.on_deliver = (
            self._resolve_and_deliver if callback is not None else None)
        return previous

    # -- client path --------------------------------------------------------

    def submit_value(self, value):
        """Disseminate the body; ordering happens via its reference."""
        if not self.alive:
            return
        self.stats.values_submitted += 1
        self._bodies[value.value_id] = value
        if self.coordinator is not None:
            self.coordinator.on_client_value(ValueRef(value.value_id),
                                             self.now)
        self.stats.values_forwarded += 1
        # One broadcast serves both dissemination (everyone stores the
        # body) and coordinator notification (it proposes the ref).
        self.comm.broadcast(ClientValue(value, self.process_id))

    # -- message handling -----------------------------------------------------

    def handle(self, payload):
        if not self.alive:
            return
        if type(payload) is ClientValue:
            self.stats.messages_handled += 1
            value = payload.value
            if value.value_id not in self._bodies:
                self._bodies[value.value_id] = value
                self._drain_undelivered()
            if self.coordinator is not None:
                self.coordinator.on_client_value(ValueRef(value.value_id),
                                                 self.now)
            return
        super().handle(payload)

    # -- delivery with body resolution -------------------------------------------

    def _resolve_and_deliver(self, instance, ref):
        self._undelivered.append((instance, ref))
        self._drain_undelivered()

    def _drain_undelivered(self):
        callback = self._deliver_body
        while self._undelivered:
            instance, ref = self._undelivered[0]
            body = self._bodies.get(ref.value_id)
            if body is None:
                return  # body still in flight; later instances must wait
            self._undelivered.popleft()
            if callback is not None:
                callback(instance, body)

    @property
    def bodies_pending(self):
        """Decided instances blocked on a missing value body."""
        return len(self._undelivered)


def reference_overhead_bytes():
    """Wire size of an ordered instance's control data (2a header + ref)."""
    return HEADER_BYTES + ValueRef.REF_BYTES
