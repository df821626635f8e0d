"""Property tests: the event queue honours the ``(time, seq)`` contract.

A random interleaving of ``push`` / ``reserve`` / reserved-``push`` /
``cancel`` / ``pop`` operations is replayed against a naive model (a sorted
list of live ``(time, seq)`` keys). The queue must agree with the model on
every pop, on the live count, and on ``peek_time`` — including across
compactions triggered mid-sequence.

Times are drawn from a palette engineered to stress the wheel: exact ties
(tie-break by seq), near-ties inside one 1 ms bucket, bucket-boundary
values, and far-future outliers that leave empty bucket gaps.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue

# Palette spanning: same-bucket ties/near-ties (0.0 .. 0.0009), the first
# bucket boundary (0.001), mid-range, and sparse long-horizon outliers.
TIME_PALETTE = [0.0, 0.0004, 0.0005, 0.0009, 0.001, 0.0011,
                0.002, 0.01, 0.0101, 0.25, 1.0, 7.5]

TIMES = st.one_of(
    st.sampled_from(TIME_PALETTE),
    st.floats(min_value=0.0, max_value=2.0,
              allow_nan=False, allow_infinity=False),
)

# Op encoding: ("push", t) | ("reserve",) | ("push_reserved", t) — uses the
# oldest outstanding reservation, plain push if none | ("cancel", k) —
# cancels the k-th (mod len) live event | ("pop", limit_or_None).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), TIMES),
        st.tuples(st.just("reserve")),
        st.tuples(st.just("push_reserved"), TIMES),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("pop"), st.none() | TIMES),
    ),
    max_size=200,
)


def _model_min(model):
    return min(model) if model else None


def _run_interleaving(ops):
    queue = EventQueue()
    model = {}          # (time, seq) -> event handle, live entries only
    reserved = []       # outstanding reservation seqs, oldest first
    label = 0

    for op in ops:
        kind = op[0]
        if kind == "push":
            label += 1
            event = queue.push(op[1], label, ())
            model[(op[1], event.seq)] = event
        elif kind == "reserve":
            reserved.append(queue.reserve())
        elif kind == "push_reserved":
            seq = reserved.pop(0) if reserved else None
            label += 1
            event = queue.push(op[1], label, (), seq)
            model[(op[1], event.seq)] = event
        elif kind == "cancel":
            if model:
                key = sorted(model)[op[1] % len(model)]
                event = model.pop(key)
                # Mirror Simulator.cancel: mark, then notify the queue.
                event.cancel()
                queue.note_cancelled()
        else:  # pop
            limit = op[1]
            got = queue.pop(limit)
            expect = _model_min(model)
            if expect is None or (limit is not None and expect[0] > limit):
                assert got is None
            else:
                assert got is not None
                assert (got.time, got.seq) == expect
                del model[expect]

        assert len(queue) == len(model)

    # peek agrees with the model, then a full drain matches exactly.
    expect = _model_min(model)
    assert queue.peek_time() == (expect[0] if expect else None)
    drained = []
    while True:
        event = queue.pop()
        if event is None:
            break
        drained.append((event.time, event.seq))
    assert drained == sorted(model)
    assert len(queue) == 0


@settings(max_examples=100, deadline=None)
@given(ops=OPS)
def test_queue_matches_sorted_model(ops):
    _run_interleaving(ops)


@settings(max_examples=50, deadline=None)
@given(
    times=st.lists(TIMES, min_size=70, max_size=120),
    cancel_stride=st.integers(min_value=2, max_value=5),
)
def test_order_survives_forced_compaction(times, cancel_stride):
    """Cancel enough of a large population to force compaction, then verify
    the survivors drain in exact (time, seq) order."""
    queue = EventQueue()
    events = [queue.push(t, None, ()) for t in times]
    survivors = set()
    for i, event in enumerate(events):
        if i % cancel_stride == 0:
            survivors.add((event.time, event.seq))
        else:
            event.cancel()
            queue.note_cancelled()
    drained = []
    while True:
        event = queue.pop()
        if event is None:
            break
        drained.append((event.time, event.seq))
    assert drained == sorted(survivors)
