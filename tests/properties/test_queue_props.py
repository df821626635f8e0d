"""Property tests: the compiled event queue against the calendar queue.

One random op stream — handle pushes (``push`` → :class:`Event`), bare
pushes (``push_bare`` → ``seq``), cancellations of either kind,
``pop(limit)`` and
``pop_entry(limit)`` — is replayed in lockstep against three queues:
:class:`repro.sim.events.EventQueue` (the compiled heap), the calendar
queue it replaced (``tests/reference/queue.py``) and a naive model
(a dict of live ``(time, seq)`` keys, sorted on demand). Only the public
surface is used. At every step the two queues must hand out the same
seqs, pop the same ``(time, seq, fn, args)`` (the model's
minimum), and agree on every counter: ``len``, ``heap_size`` (live
entries plus the shells still queued, so both must compact at the same
cancellation and discard the same shells in passing),
``scheduled_total`` and ``cancelled_total``. Every push carries its own
``fn`` (the push index) and ``args`` (``(index,)``), so a callback
shifted against its ``(time, seq)`` — by a sift or a compaction — cannot
pass.

Times are drawn from a palette of exact ties (tie-break by seq), near
ties, the calendar's 1 ms bucket boundaries, and far-future outliers.
Two more properties pin the 64-entry compaction threshold against the
reference and drive the compiled run loop against the reference's pop
order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import Event, EventQueue

from tests.reference.queue import Event as RefEvent
from tests.reference.queue import EventQueue as ReferenceQueue

TIME_PALETTE = [0.0, 0.0004, 0.0005, 0.0009, 0.001, 0.0011,
                0.002, 0.01, 0.0101, 0.25, 1.0, 7.5]

TIMES = st.one_of(
    st.sampled_from(TIME_PALETTE),
    st.floats(min_value=0.0, max_value=2.0,
              allow_nan=False, allow_infinity=False),
)

# Op encoding: ("push", t, bare) | ("cancel", k) — cancels the k-th
# (mod len) live event, whichever kind it is | ("pop", limit_or_None) |
# ("pop_entry", limit).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), TIMES, st.booleans()),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.none() | TIMES),
        st.tuples(st.just("pop_entry"), TIMES),
    ),
    max_size=200,
)


def _cancel(queue, handle):
    """Cancel as Simulator.cancel does: a seq goes to the tombstones; an
    Event is marked, then the queue notified."""
    if handle.__class__ is int:
        queue.cancel_bare(handle)
    else:
        handle.cancel()
        queue.note_cancelled()


class _Lockstep:
    """The compiled queue, the reference queue and a sorted-dict model."""

    def __init__(self):
        self.queue = EventQueue()
        self.ref = ReferenceQueue()
        # (time, seq) -> (handle, reference handle, push index)
        self.live = {}
        self.pushed = self.popped = self.cancelled = 0
        self.compactions = 0

    def push(self, time, bare):
        self.pushed += 1
        index = self.pushed
        if bare:
            handle = self.queue.push_bare(time, index, (index,))
            ref_handle = self.ref.push_bare(time, index, (index,))
            assert handle.__class__ is int and handle == ref_handle
            key = (time, handle)
        else:
            handle = self.queue.push(time, index, (index,))
            ref_handle = self.ref.push(time, index, (index,))
            assert handle.__class__ is Event and ref_handle.__class__ is RefEvent
            assert (handle.time, handle.seq, handle.fn, handle.args) == (
                ref_handle.time, ref_handle.seq, index, (index,))
            key = (time, handle.seq)
        self.live[key] = (handle, ref_handle, index)

    def cancel(self, k):
        key = sorted(self.live)[k % len(self.live)]
        handle, ref_handle, _index = self.live.pop(key)
        before = self.queue.heap_size
        _cancel(self.queue, handle)
        _cancel(self.ref, ref_handle)
        self.cancelled += 1
        if self.queue.heap_size < before:
            self.compactions += 1
            assert self.queue.heap_size == len(self.live)

    def _expect(self, limit):
        """The model's next live key within ``limit``, or None."""
        expect = min(self.live) if self.live else None
        if expect is None or (limit is not None and expect[0] > limit):
            return None
        return expect

    def pop(self, limit):
        got, ref_got = self.queue.pop(limit), self.ref.pop(limit)
        expect = self._expect(limit)
        if expect is None:
            assert got is None and ref_got is None
            return
        handle, ref_handle, index = self.live.pop(expect)
        assert (got.time, got.seq, got.fn, got.args) == expect + (
            index, (index,))
        assert (ref_got.time, ref_got.seq, ref_got.fn, ref_got.args) == (
            got.time, got.seq, got.fn, got.args)
        # A handle entry pops as its own Event; a bare one is wrapped.
        if handle.__class__ is not int:
            assert got is handle and ref_got is ref_handle
        assert not got.cancelled
        self.popped += 1

    def pop_entry(self, limit):
        got, ref_got = self.queue.pop_entry(limit), self.ref.pop_entry(limit)
        expect = self._expect(limit)
        if expect is None:
            assert got is None and ref_got is None
            return
        handle, ref_handle, index = self.live.pop(expect)
        time, seq, fn, args = got
        assert (time, seq) == (ref_got[0], ref_got[1]) == expect
        if handle.__class__ is int:
            assert (fn, args) == (ref_got[2], ref_got[3]) == (index, (index,))
        else:
            # A handle entry: args is None and fn is the Event.
            assert args is None and ref_got[3] is None
            assert fn is handle and ref_got[2] is ref_handle
        self.popped += 1

    def check(self):
        queue, ref = self.queue, self.ref
        assert len(queue) == len(ref) == len(self.live)
        assert queue.heap_size == ref.heap_size
        assert queue.scheduled_total == ref.scheduled_total == self.pushed
        assert queue.cancelled_total == ref.cancelled_total == self.cancelled
        assert (queue.scheduled_total
                == self.popped + len(queue) + queue.cancelled_total)

    def step(self, op):
        kind = op[0]
        if kind == "push":
            self.push(op[1], op[2])
        elif kind == "cancel":
            if self.live:
                self.cancel(op[1])
        elif kind == "pop":
            self.pop(op[1])
        else:
            self.pop_entry(op[1])
        self.check()

    def drain(self):
        while self.live:
            self.step(("pop", None))
        self.step(("pop", None))
        assert len(self.queue) == self.queue.heap_size == 0


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_queue_matches_sorted_model(ops):
    model = _Lockstep()
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
    entries with >= 64 queued, so both queues compact mid-sequence — then
    keep going: counters and order hold on both sides."""
    model = _Lockstep()
    for time, bare in pushes:
        model.step(("push", time, bare))
    for index in range(len(pushes)):
        if index % cancel_stride:
            model.step(("cancel", index))
    assert model.compactions >= 1
    for op in tail:
        model.step(op)
    model.drain()


@settings(max_examples=50, deadline=None)
@given(
    pushes=st.lists(st.tuples(TIMES, st.booleans()), max_size=120),
    cancels=st.lists(st.integers(min_value=0), max_size=80),
    limit=st.none() | TIMES,
    budget=st.none() | st.integers(min_value=0, max_value=150),
)
def test_run_executes_in_reference_order(pushes, cancels, limit, budget):
    """The compiled run loop executes what the reference pops, in its
    order: within ``limit``, at most ``budget`` callbacks, the clock set
    to each event's time as it runs, and each handle retired first."""
    queue, ref = EventQueue(), ReferenceQueue()
    executed = []

    def callback(index, handle_box):
        handle = handle_box[0]
        # A handle is retired before its callback runs.
        assert handle.__class__ is int or handle.cancelled
        executed.append((queue.now, index))

    handles, ref_handles = [], []
    for index, (time, bare) in enumerate(pushes):
        box = [None]
        push = queue.push_bare if bare else queue.push
        ref_push = ref.push_bare if bare else ref.push
        box[0] = push(time, callback, (index, box))
        handles.append(box[0])
        ref_handles.append(ref_push(time, index, ()))
    cancelled = set()
    for k in cancels:
        if len(cancelled) == len(handles):
            break
        index = sorted(set(range(len(handles))) - cancelled)[
            k % (len(handles) - len(cancelled))]
        cancelled.add(index)
        _cancel(queue, handles[index])
        _cancel(ref, ref_handles[index])
    assert queue.heap_size == ref.heap_size

    count = queue.run(limit, budget)
    expect = []
    while budget is None or len(expect) < budget:
        event = ref.pop(limit)
        if event is None:
            break
        expect.append((event.time, event.fn))
    assert executed == expect
    assert count == queue.executed_total == len(expect)
    assert len(queue) == len(ref) and queue.heap_size == ref.heap_size
    assert (queue.scheduled_total
            == queue.executed_total + len(queue) + queue.cancelled_total)


@settings(max_examples=30, deadline=None)
@given(
    kinds=st.lists(st.booleans(), min_size=56, max_size=72),
    time=TIMES,
)
def test_compaction_starts_at_the_reference_size(kinds, time):
    """Around the 64-entry threshold, cancel every event one by one: the
    two queues must compact at the same cancellation, or not at all."""
    model = _Lockstep()
    for bare in kinds:
        model.step(("push", time, bare))
    for _ in kinds:
        model.step(("cancel", 0))
    assert model.compactions == (1 if len(kinds) >= 64 else 0)
    model.drain()
