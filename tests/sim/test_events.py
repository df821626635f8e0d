"""Unit tests for the event queue."""

import tracemalloc

from repro.sim.events import Event, EventQueue, resolve_queue_backend


def test_push_returns_event_handle():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None, ())
    assert isinstance(event, Event)
    assert event.time == 1.0
    assert not event.cancelled


def test_pop_returns_events_in_time_order():
    queue = EventQueue()
    queue.push(3.0, "c", ())
    queue.push(1.0, "a", ())
    queue.push(2.0, "b", ())
    assert [queue.pop().fn for _ in range(3)] == ["a", "b", "c"]


def test_same_time_events_pop_in_scheduling_order():
    queue = EventQueue()
    for label in ("first", "second", "third"):
        queue.push(5.0, label, ())
    assert [queue.pop().fn for _ in range(3)] == ["first", "second", "third"]


def test_pop_skips_cancelled_events():
    queue = EventQueue()
    keep = queue.push(1.0, "keep", ())
    drop = queue.push(0.5, "drop", ())
    drop.cancel()
    queue.note_cancelled()
    assert queue.pop() is keep


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None


def test_len_counts_live_events_only():
    queue = EventQueue()
    event = queue.push(1.0, "x", ())
    queue.push(2.0, "y", ())
    assert len(queue) == 2
    event.cancel()
    queue.note_cancelled()
    assert len(queue) == 1


def test_cancel_clears_references():
    queue = EventQueue()
    event = queue.push(1.0, "payload", ("big-arg",))
    event.cancel()
    assert event.fn is None
    assert event.args == ()


def test_pop_with_limit_leaves_future_event_queued():
    queue = EventQueue()
    event = queue.push(5.0, "future", ())
    assert queue.pop(2.0) is None
    assert len(queue) == 1            # still queued, not consumed
    assert queue.pop(5.0) is event


def test_pop_with_limit_discards_cancelled_heads_first():
    queue = EventQueue()
    head = queue.push(1.0, "cancelled", ())
    queue.push(5.0, "future", ())
    head.cancel()
    queue.note_cancelled()
    # The cancelled head is before the limit but must not mask the live
    # event's time: nothing to run by t=2 even though the heap head is
    # at t=1.
    assert queue.pop(2.0) is None
    assert queue.heap_size == 1       # the shell was discarded in passing


def test_pop_returns_event_exactly_at_limit():
    queue = EventQueue()
    event = queue.push(2.0, "now", ())
    assert queue.pop(2.0) is event


def test_reserved_seq_pins_tie_break_position():
    queue = EventQueue()
    early_slot = queue.reserve()
    queue.push(1.0, "pushed-first", ())
    queue.push(1.0, "pushed-second", ())
    # Armed later, but at the slot reserved before either push: fires first.
    queue.push(1.0, "reserved", (), early_slot)
    assert [queue.pop().fn for _ in range(3)] == [
        "reserved", "pushed-first", "pushed-second"]


def test_unused_reservation_is_harmless():
    queue = EventQueue()
    queue.reserve()
    queue.push(1.0, "a", ())
    queue.reserve()
    queue.push(1.0, "b", ())
    assert queue.scheduled_total == 2
    assert [queue.pop().fn for _ in range(2)] == ["a", "b"]


def _cancel(queue, event):
    """Cancel through the queue's bookkeeping (as Simulator.cancel does)."""
    event.cancel()
    queue.note_cancelled()


def test_compaction_reclaims_cancelled_shells():
    queue = EventQueue()
    events = [queue.push(float(i), "e", ()) for i in range(100)]
    for event in events[:70]:
        _cancel(queue, event)
    assert len(queue) == 30
    # Compaction fired once shells outnumbered live entries (at the 51st
    # cancellation, rebuilding the structure to 49 live events); the queue
    # no longer holds one shell per cancelled event.
    assert queue.heap_size == 49


def test_no_compaction_below_minimum_heap_size():
    queue = EventQueue()
    events = [queue.push(float(i), "e", ()) for i in range(40)]
    for event in events[:30]:
        _cancel(queue, event)
    assert len(queue) == 10
    # Under COMPACT_MIN_SIZE entries the shells are left for pop() to
    # discard lazily — compaction would cost more than it saves.
    assert queue.heap_size == 40


def test_order_preserved_after_compaction():
    queue = EventQueue()
    events = [queue.push(float(i % 7), i, ()) for i in range(80)]
    for event in events[::2]:
        _cancel(queue, event)
    survivors = []
    while True:
        event = queue.pop()
        if event is None:
            break
        survivors.append(event)
    assert [e.fn for e in survivors] == sorted(
        (e.fn for e in survivors),
        key=lambda i: (i % 7, i))
    assert sorted(e.fn for e in survivors) == list(range(1, 80, 2))


def test_bare_push_returns_its_seq_and_creates_no_event():
    queue = EventQueue()
    slot = queue.reserve()
    assert queue.push_bare(1.0, "a", ()) == 1
    assert queue.push_bare(1.0, "b", ("arg",), slot) == slot
    assert queue.scheduled_total == len(queue) == queue.heap_size == 2
    # The entry is the whole record: (time, seq, fn, args) as pushed.
    assert queue.pop_entry(5.0) == (1.0, slot, "b", ("arg",))
    assert queue.pop_entry(0.5) is None
    assert queue.pop_entry(5.0) == (1.0, 1, "a", ())
    assert len(queue) == queue.heap_size == 0


def test_pop_entry_marks_a_handle_entry_with_args_none():
    queue = EventQueue()
    event = queue.push(1.0, "a", ("arg",))
    assert queue.pop_entry(5.0) == (1.0, event.seq, event, None)


def test_wheel_orders_across_and_within_buckets():
    # Width 1e-3: 0.0004/0.0006 share bucket 0; 0.0014 is bucket 1;
    # 0.25 is bucket 250. Interleave pushes and pops so late pushes land
    # behind the drain frontier and must enter the current list in order.
    queue = EventQueue()
    queue.push(0.25, "far", ())
    queue.push(0.0006, "b", ())
    queue.push(0.0004, "a", ())
    assert queue.pop().fn == "a"
    # Frontier now at bucket 0; a new event in an already-drained range
    # must still sort ahead of everything later.
    queue.push(0.0005, "a2", ())
    queue.push(0.0014, "c", ())
    assert [queue.pop().fn for _ in range(3)] == ["a2", "b", "c"]
    assert queue.pop().fn == "far"
    assert queue.pop() is None


def test_wheel_compaction_drops_emptied_buckets():
    queue = EventQueue()
    events = [queue.push(float(i), "e", ()) for i in range(100)]
    for event in events[:70]:
        _cancel(queue, event)
    # Buckets fully emptied by compaction leave stale indices in the
    # bucket heap; popping must skip them and still drain in order.
    times = []
    while True:
        event = queue.pop()
        if event is None:
            break
        times.append(event.time)
    assert times == sorted(times)
    assert len(times) == 30


def test_a_pending_future_event_retains_at_most_48_bytes():
    # Future buckets are columns: a pending bare event is a raw double,
    # a raw int64 and two list slots — no entry tuple, no boxed time or
    # seq (an entry tuple alone is 80 bytes).
    def fn():
        pass

    args = ()
    count = 20_000
    queue = EventQueue()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(count):
            # 200 buckets, 100 events each, distinct times within a bucket.
            queue.push_bare((1 + i % 200) * 1e-3 + i * 1e-8, fn, args)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(queue) == count
    assert retained / count <= 48


def test_resolve_queue_backend_is_the_benchmark_seam():
    # benchmarks/e2e/drivers.py calls it with no argument for the class.
    assert resolve_queue_backend() is EventQueue


def test_event_repr_mentions_state():
    event = Event(1.5, 3, None, ())
    assert "1.5" in repr(event)
    event.cancelled = True
    assert "cancelled" in repr(event)
