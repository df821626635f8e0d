"""Property tests: the event queue honours the ``(time, seq)`` contract.

A random interleaving of handle pushes (``push`` → :class:`Event`), bare
pushes (``push_bare`` → ``seq``), ``reserve``, reserved pushes of either
kind, cancellations of either kind and ``pop(limit)`` is replayed against a
naive model (a dict of live ``(time, seq)`` keys, sorted on demand). After
every step the queue must agree with the model on the live count and with
plain arithmetic on everything it derives from its four counters:
``heap_size`` (live entries plus the shells still queued),
``scheduled_total`` and the identity ``scheduled = popped + pending +
cancelled`` that ``Simulator.events_scheduled`` reports. The tombstone set
of cancelled bare entries must be empty after every compaction and after
a full drain. Every push carries its own ``fn`` (the push index) and
``args`` (``(index,)``), checked on every pop of either kind, so a
callback shifted against its ``(time, seq)`` — in a bucket's columns or
by a compaction — cannot pass.

Times are drawn from a palette engineered to stress the wheel: exact ties
(tie-break by seq), near-ties inside one 1 ms bucket, bucket-boundary
values, and far-future outliers that leave empty bucket gaps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue

# Palette spanning: same-bucket ties/near-ties (0.0 .. 0.0009), the first
# bucket boundary (0.001), mid-range, and sparse long-horizon outliers.
TIME_PALETTE = [0.0, 0.0004, 0.0005, 0.0009, 0.001, 0.0011,
                0.002, 0.01, 0.0101, 0.25, 1.0, 7.5]

TIMES = st.one_of(
    st.sampled_from(TIME_PALETTE),
    st.floats(min_value=0.0, max_value=2.0,
              allow_nan=False, allow_infinity=False),
)

# Op encoding: ("push", t, bare) | ("reserve",) | ("push_reserved", t, bare)
# — uses the oldest outstanding reservation, plain push if none |
# ("cancel", k) — cancels the k-th (mod len) live event, whichever kind it
# is | ("pop", limit_or_None).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), TIMES, st.booleans()),
        st.tuples(st.just("reserve")),
        st.tuples(st.just("push_reserved"), TIMES, st.booleans()),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.none() | TIMES),
    ),
    max_size=200,
)


class _Model:
    """The queue next to a sorted-dict model of what it should hold."""

    def __init__(self):
        self.queue = EventQueue()
        # (time, seq) -> (handle, push index); a handle is an Event or a seq
        self.live = {}
        self.reserved = []      # outstanding reservation seqs, oldest first
        self.pushed = self.popped = self.cancelled = 0
        self.shells = {}        # cancelled but still queued: key -> handle
        self.compactions = 0

    def push(self, time, bare, seq=None):
        queue = self.queue
        self.pushed += 1
        index = self.pushed
        if bare:
            handle = seq = queue.push_bare(time, index, (index,), seq)
            assert handle.__class__ is int
        else:
            handle = queue.push(time, index, (index,), seq)
            assert handle.__class__ is Event and handle.time == time
            seq = handle.seq
        self.live[(time, seq)] = (handle, index)

    def cancel(self, index):
        key = sorted(self.live)[index % len(self.live)]
        handle, _index = self.live.pop(key)
        # Mirror Simulator.cancel: a seq goes to the tombstones; an Event
        # is marked, then the queue notified.
        if handle.__class__ is int:
            self.queue.cancel_bare(handle)
        else:
            handle.cancel()
            self.queue.note_cancelled()
        self.cancelled += 1
        self.shells[key] = handle
        # The documented trigger, recomputed from first principles.
        if (len(self.shells) > len(self.live)
                and len(self.live) + len(self.shells)
                >= EventQueue.COMPACT_MIN_SIZE):
            self.shells.clear()
            self.compactions += 1
            assert not self.queue._dead

    def pop(self, limit):
        got = self.queue.pop(limit)
        expect = min(self.live) if self.live else None
        # Shells ahead of the earliest live entry are discarded in
        # passing, whether or not that entry is within the limit.
        self.shells = {key: handle for key, handle in self.shells.items()
                       if expect is not None and key > expect}
        if expect is None or (limit is not None and expect[0] > limit):
            assert got is None
        else:
            assert (got.time, got.seq) == expect
            handle, index = self.live.pop(expect)
            # A handle entry pops as its own Event; a bare one is wrapped.
            assert handle.__class__ is int or got is handle
            assert got.fn == index and got.args == (index,)
            self.popped += 1

    def check(self):
        queue = self.queue
        assert len(queue) == len(self.live)
        assert queue.heap_size == len(self.live) + len(self.shells)
        assert queue.scheduled_total == self.pushed
        assert queue.cancelled_total == self.cancelled
        assert (queue.scheduled_total
                == self.popped + len(queue) + queue.cancelled_total)
        assert queue._dead == {handle for handle in self.shells.values()
                               if handle.__class__ is int}

    def step(self, op):
        kind = op[0]
        if kind == "push":
            self.push(op[1], op[2])
        elif kind == "reserve":
            self.reserved.append(self.queue.reserve())
        elif kind == "push_reserved":
            self.push(op[1], op[2],
                      self.reserved.pop(0) if self.reserved else None)
        elif kind == "cancel":
            if self.live:
                self.cancel(op[1])
        else:
            self.pop(op[1])
        self.check()

    def drain(self):
        drained = []
        while True:
            event = self.queue.pop()
            if event is None:
                break
            drained.append((event.time, event.seq, event.fn, event.args))
        assert drained == [key + (index, (index,))
                           for key, (_handle, index) in sorted(self.live.items())]
        assert len(self.queue) == self.queue.heap_size == 0
        assert not self.queue._dead


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_queue_matches_sorted_model(ops):
    model = _Model()
    for op in ops:
        model.step(op)
    model.drain()


@settings(max_examples=50, deadline=None)
@given(
    pushes=st.lists(st.tuples(TIMES, st.booleans()),
                    min_size=70, max_size=120),
    cancel_stride=st.integers(min_value=3, max_value=5),
    tail=OPS,
)
def test_order_survives_forced_compaction(pushes, cancel_stride, tail):
    """Cancel most of a large mixed population — shells overtake the live
    entries with >= 64 queued, so the queue compacts mid-sequence — then
    keep going: counters, tombstones and order hold on both sides."""
    model = _Model()
    for time, bare in pushes:
        model.step(("push", time, bare))
    for index in range(len(pushes)):
        if index % cancel_stride:
            model.step(("cancel", index))
    assert model.compactions >= 1
    for op in tail:
        model.step(op)
    model.drain()
