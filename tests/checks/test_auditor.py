"""Unit tests for the dynamic :class:`RaceAuditor`."""

from types import SimpleNamespace

import pytest

from repro.checks.auditor import (
    RaceAuditor,
    SETUP_ORIGIN,
    args_signature,
    callback_label,
)
from repro.sim.events import EventQueue
from repro.sim.kernel import Simulator
from repro.sim.random import CountingStream, make_stream


def _noop(*_args):
    pass


# -- attachment ------------------------------------------------------------

def test_unattached_simulator_uses_plain_machinery():
    sim = Simulator(seed=3)
    assert type(sim._queue) is EventQueue
    assert sim._stream_factory is make_stream
    assert type(sim.rng("a")) is not CountingStream


def test_attached_simulator_counts_draws_without_changing_them():
    plain = Simulator(seed=3)
    audited = Simulator(seed=3, auditor=RaceAuditor())
    draws_plain = [plain.rng("s").random() for _ in range(5)]
    draws_audited = [audited.rng("s").random() for _ in range(5)]
    assert draws_plain == draws_audited          # bit-identical sequences
    assert audited.rng("s").draws == 5


def test_auditor_is_single_run():
    auditor = RaceAuditor()
    Simulator(seed=1, auditor=auditor)
    with pytest.raises(RuntimeError):
        Simulator(seed=2, auditor=auditor)


# -- tie groups ------------------------------------------------------------

def test_same_timestamp_events_form_a_hazard_group():
    auditor = RaceAuditor()
    sim = Simulator(seed=0, auditor=auditor)
    sim.schedule(1.0, _noop, "a")
    sim.schedule(1.0, _noop, "b")
    sim.schedule(2.0, _noop, "c")            # alone at its instant: no group
    groups = auditor.tie_groups()
    assert len(groups) == 1
    group = groups[0]
    assert group.time == 1.0
    assert [m.args_sig for m in group.members] == ["'a'", "'b'"]
    assert all(m.origin == SETUP_ORIGIN for m in group.members)
    assert group.is_hazard()                 # two push-ordered members
    assert auditor.group_at(2.0) is not None
    assert not auditor.group_at(2.0).is_hazard()


def test_reserved_slots_defuse_the_hazard():
    auditor = RaceAuditor()
    sim = Simulator(seed=0, auditor=auditor)
    slot = sim.reserve_slot()
    sim.schedule(1.0, _noop, "pushed")
    sim.schedule_at_reserved(1.0, slot, _noop, "reserved")
    (group,) = auditor.tie_groups()
    by_sig = {m.args_sig: m for m in group.members}
    assert by_sig["'reserved'"].reserved
    assert not by_sig["'pushed'"].reserved
    assert not group.is_hazard()             # only one push-ordered member
    assert auditor.summary()["reserved_slots"] == 1


def test_queue_tells_its_observer_of_reservations_pushes_and_executions():
    """The audit hook: the compiled queue calls its observer at every
    reservation, push (flagging an explicit seq) and execution, in order,
    with the callback and args that ran — a handle's included."""
    calls = []

    class Recorder:
        def note_reserved(self, seq):
            calls.append(("reserved", seq))

        def note_push(self, time, seq, fn, args, explicit_seq):
            calls.append(("push", time, seq, fn, args, explicit_seq))

        def note_exec(self, time, seq, fn, args):
            calls.append(("exec", time, seq, fn, args))

    queue = EventQueue(Recorder())
    slot = queue.reserve()
    queue.push(1.0, _noop, ("a",))
    queue.push_bare(1.0, _noop, ("b",), slot)
    assert queue.run(SimpleNamespace(now=0.0), None, None) == 2
    assert calls == [
        ("reserved", 0),
        ("push", 1.0, 1, _noop, ("a",), False),
        ("push", 1.0, 0, _noop, ("b",), True),
        ("exec", 1.0, 0, _noop, ("b",)),
        ("exec", 1.0, 1, _noop, ("a",)),
    ]


def test_origin_is_the_scheduling_events_exec_index():
    auditor = RaceAuditor()
    sim = Simulator(seed=0, auditor=auditor)

    def chain():
        sim.schedule(1.0, _noop, "x")
        sim.schedule(1.0, _noop, "y")

    sim.schedule(0.5, chain)
    sim.run()
    group = auditor.group_at(1.5)
    # chain executed as event #0, so both members carry origin 0.
    assert [m.origin for m in group.members] == [0, 0]


# -- trace / digest --------------------------------------------------------

def _pair_run(seed, flip=False, capture=False):
    auditor = RaceAuditor(capture=capture)
    sim = Simulator(seed=seed, auditor=auditor)

    def draw(name):
        sim.rng("payload").random()
        _noop(name)

    names = ["b", "a"] if flip else ["a", "b"]
    for offset, name in enumerate(names):
        sim.schedule(0.1 * (offset + 1), draw, name)
    sim.run()
    return auditor


def test_identical_runs_have_identical_digests():
    assert _pair_run(7).digest() == _pair_run(7).digest()


def test_digest_is_sensitive_to_event_order():
    assert _pair_run(7).digest() != _pair_run(7, flip=True).digest()


def test_capture_retains_trace_without_changing_digest():
    silent, captured = _pair_run(7), _pair_run(7, capture=True)
    assert silent.trace() == []
    assert len(captured.trace()) == 2
    assert silent.digest() == captured.digest()


def test_trace_entries_attribute_rng_draws_to_previous_event():
    auditor = _pair_run(7, capture=True)
    first, second = auditor.trace()
    # Deltas are snapshotted at pop: the first entry predates any callback,
    # the second sees the draw made by the first event's callback.
    assert first[5] == ()
    assert second[5] == (("payload", 1),)
    assert auditor.rng_draws() == {"payload": 2}


def test_summary_shape():
    auditor = _pair_run(7)
    summary = auditor.summary()
    assert summary["events_recorded"] == 2
    assert summary["events_executed"] == 2
    assert summary["tie_groups"] == 0
    assert summary["hazard_groups"] == 0
    assert summary["trace_digest"] == auditor.digest()


# -- address-free labelling ------------------------------------------------

def test_args_signature_is_address_free():
    class Payload:
        pass

    sig = args_signature((1, "x", 0.5, None, True, Payload()))
    assert sig == "1,'x',{},None,True,Payload".format((0.5).hex())
    assert "0x7f" not in sig.lower() or "0x1.0" in sig


def test_callback_label_uses_qualname():
    assert callback_label(_noop) == "_noop"

    class Holder:
        def method(self):
            pass

    assert "Holder.method" in callback_label(Holder().method)
