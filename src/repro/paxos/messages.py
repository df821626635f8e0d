"""Paxos message types.

All messages subclass :class:`repro.net.message.Payload`, carrying the
unique identifier the gossip duplication check relies on (the paper notes
ids are defined by the consensus protocol). Identifiers encode the logical
identity of the message — e.g. an acceptor's Phase 2b for a given instance
and round — plus an ``attempt`` counter for retransmissions, so that a
retransmitted message is propagated by gossip rather than suppressed as a
duplicate of the original.

Sizes: consensus metadata is accounted as a fixed 64-byte header; messages
carrying a client value add the value's size (the paper evaluates 1 KB
values). An aggregated Phase 2b has "essentially the same size regardless of
the number of single vote messages it has replaced" (paper §3.2) — we charge
the header plus a small sender bitmap.
"""

from repro.net.message import Payload

#: Fixed per-message metadata size in bytes.
HEADER_BYTES = 64


class Value:
    """A client-proposed value: identity plus size; content is opaque."""

    __slots__ = ("value_id", "client_id", "size_bytes")

    def __init__(self, value_id, client_id, size_bytes=1024):
        self.value_id = value_id
        self.client_id = client_id
        self.size_bytes = size_bytes

    def __eq__(self, other):
        return isinstance(other, Value) and self.value_id == other.value_id

    def __hash__(self):
        return hash(self.value_id)

    def __repr__(self):
        return "Value(id={}, client={})".format(self.value_id, self.client_id)


class ClientValue(Payload):
    """A client value forwarded by its receiving process to the coordinator."""

    __slots__ = ("value", "origin")

    def __init__(self, value, origin):
        super().__init__(("V", value.value_id), HEADER_BYTES + value.size_bytes)
        self.value = value
        self.origin = origin


class Phase1a(Payload):
    """Coordinator starts ``round`` for all instances >= ``from_instance``.

    As in the paper (§2.3), a coordinator starts the same round in multiple
    instances of consensus at once.
    """

    __slots__ = ("round", "from_instance", "coordinator")

    def __init__(self, round_, from_instance, coordinator, attempt=0):
        super().__init__(("1A", round_, coordinator, attempt), HEADER_BYTES)
        self.round = round_
        self.from_instance = from_instance
        self.coordinator = coordinator


class Phase1b(Payload):
    """Acceptor's promise for ``round`` with its previously accepted values.

    ``accepted`` is a tuple of ``(instance, accepted_round, value)`` for
    every instance >= the Phase 1a's ``from_instance`` in which the acceptor
    had accepted a value.
    """

    __slots__ = ("round", "sender", "accepted")

    def __init__(self, round_, sender, accepted, attempt=0):
        size = HEADER_BYTES + sum(HEADER_BYTES + v.size_bytes for (_, _, v) in accepted)
        super().__init__(("1B", round_, sender, attempt), size)
        self.round = round_
        self.sender = sender
        self.accepted = tuple(accepted)


class Phase2a(Payload):
    """Coordinator asks acceptors to accept ``value`` in (instance, round)."""

    __slots__ = ("instance", "round", "value")

    def __init__(self, instance, round_, value, attempt=0):
        super().__init__(
            ("2A", instance, round_, attempt), HEADER_BYTES + value.size_bytes
        )
        self.instance = instance
        self.round = round_
        self.value = value


class Phase2b(Payload):
    """Acceptor ``sender`` accepted ``value_id`` in (instance, round)."""

    __slots__ = ("instance", "round", "value_id", "sender")

    def __init__(self, instance, round_, value_id, sender, attempt=0):
        super().__init__(("2B", instance, round_, sender, attempt), HEADER_BYTES)
        self.instance = instance
        self.round = round_
        self.value_id = value_id
        self.sender = sender


class Aggregated2b(Payload):
    """Multiple identical Phase 2b messages merged by semantic aggregation.

    Reversible (paper §3.2): carries one copy of the vote plus the set of
    senders; :meth:`disaggregate` reconstructs the originals, so Paxos never
    sees this type.
    """

    __slots__ = ("instance", "round", "value_id", "senders", "attempt")

    aggregated = True

    def __init__(self, instance, round_, value_id, senders, attempt=0):
        senders = frozenset(senders)
        size = HEADER_BYTES + 8 + len(senders) // 8  # vote + sender bitmap
        super().__init__(("A2B", instance, round_, value_id, senders, attempt), size)
        self.instance = instance
        self.round = round_
        self.value_id = value_id
        self.senders = senders
        self.attempt = attempt

    def disaggregate(self):
        """Reconstruct the original Phase 2b messages."""
        return [
            Phase2b(self.instance, self.round, self.value_id, sender, self.attempt)
            for sender in sorted(self.senders)
        ]


class Decision(Payload):
    """Coordinator announces the value decided in ``instance``."""

    __slots__ = ("instance", "round", "value")

    def __init__(self, instance, round_, value):
        super().__init__(("DEC", instance), HEADER_BYTES + value.size_bytes)
        self.instance = instance
        self.round = round_
        self.value = value
