"""The simulated clock lives in the event queue, and only its run loop
moves it: to each event's time as the event runs, and to ``until`` when a
run stops there. Python callbacks read it as ``sim.now`` and the compiled
types read the same double in C."""

from types import SimpleNamespace

import pytest

from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload
from repro.paxos.messages import ClientValue, Value
from repro.paxos.process import Communicator, PaxosProcess
from repro.sim.kernel import Simulator
from repro.sim.server import FifoServer


def _accounting_holds(sim):
    assert sim.events_scheduled == (sim.events_executed + sim.pending()
                                    + sim.events_cancelled)


def test_callbacks_and_compiled_types_see_the_events_time(sim):
    """At an event, ``sim.now`` is its time, and the compiled server and
    link compute from that same time when given no instant of their
    own."""
    server = FifoServer(sim)
    arrivals = []
    link = DirectedLink(sim, 0, 1, 0.010,
                        LinkConfig(per_message_s=0.001, per_byte_s=0.0),
                        lambda src, payload: arrivals.append(sim.now))
    seen = []

    def at_event():
        seen.append(sim.now)
        seen.append(server.submit_acct(0.125))
        assert link.transmit(RawPayload("m", 100))

    sim.schedule_at(0.25, at_event)
    sim.run()
    assert seen == [0.25, 0.25 + 0.125]
    assert arrivals == [0.25 + 0.001 + 0.010]


def test_the_replica_hands_the_coordinator_the_events_time(sim):
    calls = []

    class Recorder:
        def on_client_value(self, value, now):
            calls.append((value.value_id, now))

    class Quiet(Communicator):
        def broadcast(self, payload):
            pass

        def to_coordinator(self, payload):
            pass

    process = PaxosProcess(sim, 0, 3, Quiet())
    process.coordinator = Recorder()
    sim.schedule_at(0.375, process.handle, ClientValue(Value("v", 1), 1))
    sim.run()
    assert calls == [("v", 0.375)]


def test_a_replica_needs_a_simulators_queue(sim):
    process = PaxosProcess(sim, 0, 3, Communicator())
    with pytest.raises(TypeError, match="PaxosProcess"):
        process.sim = SimpleNamespace(_queue=None)
    assert process.sim is sim


def test_until_leaves_the_clock_exactly_there(sim):
    times = []
    sim.schedule_at(0.5, lambda: times.append(sim.now))
    sim.schedule_at(2.0, lambda: times.append(sim.now))
    assert sim.run(until=1.0) == 1
    assert times == [0.5] and sim.now == 1.0
    # Drained before `until`: the clock still ends at `until`.
    assert sim.run(until=3.0) == 1
    assert times == [0.5, 2.0] and sim.now == 3.0
    assert sim.run(until=4.5) == 0
    assert sim.now == 4.5


def test_a_budget_stop_leaves_the_clock_at_the_last_event(sim):
    for time in (0.1, 0.2, 0.3):
        sim.schedule_at(time, lambda: None)
    assert sim.run(until=5.0, max_events=2) == 2
    assert sim.now == 0.2
    # A budget that happens to drain the queue is still a budget stop.
    assert sim.run(until=5.0, max_events=1) == 1
    assert sim.now == 0.3
    assert sim.step() is False
    assert sim.now == 0.3


def test_an_until_behind_the_clock_does_not_move_it_back(sim):
    sim.schedule_at(2.0, lambda: None)
    sim.run()
    assert sim.now == 2.0
    assert sim.run(until=1.0) == 0
    assert sim.now == 2.0


def test_a_raising_callback_leaves_the_clock_at_its_time(sim):
    def boom():
        raise RuntimeError("boom")

    sim.schedule_at(0.5, lambda: None)
    sim.schedule_at(0.75, boom)
    cancelled = sim.schedule_at(0.9, lambda: None)
    sim.schedule_at(1.5, lambda: None)
    sim.cancel(cancelled)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=10.0)
    assert sim.now == 0.75
    assert sim.events_executed == 2 and sim.pending() == 1
    _accounting_holds(sim)


def test_the_clock_is_always_a_float():
    sim = Simulator()
    assert type(sim.now) is float and sim.now == 0.0
    sim.schedule(1, lambda: None)
    sim.run(until=3)
    assert type(sim.now) is float and sim.now == 3.0
    sim.push_event(4, lambda: None, ())
    sim.run()
    assert type(sim.now) is float and sim.now == 4.0


def test_the_clock_is_read_only(sim):
    with pytest.raises(AttributeError):
        sim.now = 1.0
    with pytest.raises(AttributeError):
        sim._queue.now = 1.0
    assert sim.now == 0.0
