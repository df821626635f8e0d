"""Unit tests for the Simulator event loop."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_clock_starts_at_zero(sim):
    assert sim.now == 0.0


def test_schedule_executes_at_right_time(sim):
    seen = []
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.5]


def test_schedule_with_args(sim):
    seen = []
    sim.schedule(1.0, seen.append, "value")
    sim.run()
    assert seen == ["value"]


def test_schedule_at_absolute_time(sim):
    seen = []
    sim.schedule_at(4.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.0]


def test_schedule_in_past_raises(sim):
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_run_until_advances_clock_exactly(sim):
    sim.schedule(10.0, lambda: None)
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert sim.pending() == 1


def test_run_until_composes(sim):
    seen = []
    sim.schedule(1.0, lambda: seen.append("a"))
    sim.schedule(5.0, lambda: seen.append("b"))
    sim.run(until=2.0)
    assert seen == ["a"]
    sim.run(until=6.0)
    assert seen == ["a", "b"]


def test_run_until_with_empty_queue_still_advances(sim):
    sim.run(until=7.0)
    assert sim.now == 7.0


@pytest.mark.parametrize("until", [float("nan"), float("inf"),
                                   float("-inf")])
def test_run_rejects_a_non_finite_until(sim, until):
    seen = []
    sim.schedule(1.0, seen.append, "a")
    with pytest.raises(SimulationError, match="^until "):
        sim.run(until=until)
    # Rejected before anything ran: the clock, the queue and the
    # re-entrancy guard are untouched, and a finite run still works.
    assert seen == [] and sim.now == 0.0 and sim.pending() == 1
    sim.run(until=2.0)
    assert seen == ["a"] and sim.now == 2.0


def test_max_events_limits_execution(sim):
    seen = []
    for i in range(5):
        sim.schedule(float(i + 1), seen.append, i)
    executed = sim.run(max_events=2)
    assert executed == 2
    assert seen == [0, 1]


def test_step_executes_one_event(sim):
    seen = []
    sim.schedule(1.0, seen.append, "x")
    assert sim.step() is True
    assert seen == ["x"]
    assert sim.step() is False


def test_cancel_prevents_execution(sim):
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    sim.cancel(event)
    sim.run()
    assert seen == []
    assert sim.pending() == 0


def test_double_cancel_is_noop(sim):
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    assert sim.pending() == 0


def test_events_scheduled_during_run_execute(sim):
    seen = []

    def first():
        sim.schedule(1.0, lambda: seen.append("second"))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["second"]
    assert sim.now == 2.0


def test_run_until_with_only_cancelled_future_events(sim):
    event = sim.schedule(5.0, lambda: None)
    sim.cancel(event)
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert sim.pending() == 0
    # The next run must not rewind the clock over the drained queue.
    sim.run(until=1.0)
    assert sim.now == 2.0


def test_run_until_behind_the_clock_never_rewinds_over_a_live_event(sim):
    sim.schedule(6.0, lambda: None)
    sim.run(until=5.0)
    sim.run(until=3.0)
    assert sim.now == 5.0
    with pytest.raises(SimulationError):
        sim.schedule_at(4.0, lambda: None)


def test_callback_cancelling_its_own_event_is_safe(sim):
    """A callback cancelling the very event that invoked it (e.g. a timer
    stopped from inside its firing) must not corrupt the live count."""
    seen = []
    holder = {}

    def fire():
        sim.cancel(holder["event"])
        seen.append(sim.now)

    holder["event"] = sim.schedule(1.0, fire)
    sim.schedule(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.0, 2.0]
    assert sim.pending() == 0


def test_rng_streams_are_deterministic():
    a = Simulator(seed=1).rng("jitter")
    b = Simulator(seed=1).rng("jitter")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_rng_streams_are_independent_by_name():
    sim = Simulator(seed=1)
    assert sim.rng("a").random() != sim.rng("b").random()


def test_rng_stream_cached_per_name(sim):
    assert sim.rng("x") is sim.rng("x")


def test_events_executed_counter(sim):
    for i in range(3):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 3


def test_scheduled_events_are_executed_pending_or_cancelled(sim):
    """Double cancels and a callback cancelling its own (already retired)
    event must not be counted: the three buckets partition the pushes."""
    holder = {}
    events = [sim.schedule(float(i), lambda: None) for i in range(6)]
    holder["self"] = sim.schedule(0.5, lambda: sim.cancel(holder["self"]))
    sim.cancel(events[1])
    sim.cancel(events[1])
    sim.cancel(events[5])
    sim.run(until=3.5)
    assert (sim.events_executed, sim.pending(), sim.events_cancelled) == (4, 1, 2)
    assert sim.events_scheduled == 7


def test_raising_callback_is_counted_and_the_run_resumes(sim):
    """A callback that raises was popped: it counts as executed, the clock
    stays at it, and a second run() executes what is left."""
    seen = []

    def boom():
        raise RuntimeError("callback failed")

    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, seen.append, t)
    sim.schedule(4.0, boom)
    sim.schedule(5.0, seen.append, 5.0)
    with pytest.raises(RuntimeError):
        sim.run()
    assert (sim.events_executed, sim.pending(), sim.events_cancelled) == (4, 1, 0)
    assert sim.events_scheduled == 5
    assert sim.now == 4.0
    assert sim.run() == 1
    assert seen == [1.0, 2.0, 3.0, 5.0]
    assert sim.events_executed == 5


def test_bare_event_cancelled_from_another_callback_never_runs(sim):
    """``push_event`` returns a bare handle (no Event); cancelling it while
    pending — here from inside an earlier callback — is counted once and
    the event never runs."""
    seen = []
    handle = sim.push_event(2.0, seen.append, ("cancelled",))
    assert handle.__class__ is int
    sim.push_event(3.0, seen.append, ("kept",))
    sim.schedule(1.0, sim.cancel, handle)
    assert sim.pending() == 3
    sim.run()
    assert seen == ["kept"]
    assert (sim.events_executed, sim.pending(), sim.events_cancelled) == (2, 0, 1)
    assert sim.events_scheduled == 3


def test_pop_wraps_a_bare_entry_in_an_event(sim):
    """The queue's Event-returning pop serves bare entries too: callers
    outside the run loop see ``.time/.seq/.fn/.args`` either way."""
    seq = sim.push_event(1.5, print, ("x", 2))
    event = sim._queue.pop()
    assert (event.time, event.seq, event.fn, event.args) == (
        1.5, seq, print, ("x", 2))
    assert not event.cancelled
    assert sim.pending() == 0


def test_reentrant_run_raises(sim):
    def nested():
        sim.run()

    sim.schedule(1.0, nested)
    with pytest.raises(SimulationError):
        sim.run()


_SCHEDULERS = {
    "schedule": lambda sim, t: sim.schedule(t, print),
    "schedule_at": lambda sim, t: sim.schedule_at(t, print),
}


@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
@pytest.mark.parametrize("entry", sorted(_SCHEDULERS))
def test_non_finite_times_are_rejected_by_name(sim, entry, bad):
    with pytest.raises(SimulationError, match="non-finite.*{}".format(bad)):
        _SCHEDULERS[entry](sim, bad)
    assert sim.pending() == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_push_event_rejects_a_non_finite_time(sim, bad):
    """The unchecked hot-path push still refuses a time the heap cannot
    order: nothing is queued and no sequence number is spent."""
    with pytest.raises(ValueError, match="finite"):
        sim.push_event(bad, print, ())
    assert sim.pending() == sim.events_scheduled == 0
    assert sim.push_event(1.0, print, ()) == 0
