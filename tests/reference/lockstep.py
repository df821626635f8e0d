"""What the lockstep properties share: one op stream through a compiled
type and its reference model, compared after every op (:func:`lockstep`),
the log both sides must agree on (:class:`Recorder`) and messages as
comparable data (:func:`describe`)."""

from repro.checks.auditor import args_signature
from repro.net.message import Payload
from repro.sim.random import make_stream

#: The message fields :func:`describe` compares (None where absent).
FIELDS = ("instance", "round", "value_id", "sender", "senders", "attempt",
          "term", "index", "leader_commit", "from_instance", "coordinator",
          "origin")


def describe(payload):
    """Class, uid, size, interned id, the :data:`FIELDS`, a carried value
    by its id and a promise's accepted triples by value id."""
    value, accepted = (getattr(payload, name, None)
                       for name in ("value", "accepted"))
    return (type(payload).__name__, payload.uid, payload.size_bytes,
            payload.iid, tuple(getattr(payload, name, None)
                               for name in FIELDS),
            None if value is None else value.value_id,
            None if accepted is None else [(i, r, v.value_id)
                                           for i, r, v in accepted])


def lockstep(sides, ops, step, state=lambda side: None, finish=None):
    """``step(side, op)`` applies an op to one side and returns what it
    gave. Before the first op and after each, both sides' returns and
    ``state(side)`` must be equal; ``finish(side)``, if given, then ends
    each side (a simulator run dry, say) before a last comparison."""
    ours, theirs = sides
    assert state(ours) == state(theirs)
    for op in ops:
        assert step(ours, op) == step(theirs, op), op
        assert state(ours) == state(theirs), op
    if finish is not None:
        finish(ours)
        finish(theirs)
        assert state(ours) == state(theirs)


class Recorder:
    """One side's log. ``note(*entry)`` stamps an entry with the clock; as
    ``Simulator(auditor=...)`` it logs every push and execution, and as a
    tracer or a communicator every call (the gossip hooks by uid and
    clock, any other by name, each message by :func:`describe`)."""

    def __init__(self, sim=None):
        self.log = []
        self.sim = sim

    def note(self, *entry):
        self.log.append(entry + (self.sim.now.hex(),))

    def make_stream(self, root_seed, name):
        return make_stream(root_seed, name)

    def bind(self, sim):
        self.sim = sim

    def note_push(self, time, seq, fn, args):
        self.log.append(("push", time.hex(), seq, fn.__name__,
                         args_signature(args)))

    def note_exec(self, time, seq, fn, args):
        self.log.append(("exec", time.hex(), seq, fn.__name__,
                         args_signature(args)))

    def gossip_receive(self, node_id, peer_id, payload, fresh):
        self.note("obs-receive", node_id, peer_id, payload.uid, fresh)

    def gossip_filtered(self, node_id, peer_id, payload):
        self.note("obs-filtered", node_id, peer_id, payload.uid)

    def gossip_aggregated(self, node_id, peer_id, payload, saved):
        self.note("obs-aggregated", node_id, peer_id,
                  type(payload).__name__, payload.uid, saved)

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.log.append((name, [describe(a) if isinstance(a, Payload)
                                    else a for a in args],
                             sorted(kwargs.items())))
        return record
