"""Tests for directed links: timing, queueing, drops, loss."""

import pytest

from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload


def _payload(uid="m", size=100):
    return RawPayload(uid, size)


def _link(sim, deliver, latency=0.01, loss_hook=None, **config_kwargs):
    config = LinkConfig(**config_kwargs)
    return DirectedLink(sim, 0, 1, latency, config, deliver, loss_hook)


def _commit(link, payload):
    return link.commit(payload, (payload,), link.sim.now)


@pytest.mark.parametrize("field", ["per_message_s", "per_byte_s", "jitter_s"])
@pytest.mark.parametrize("bad", [-1e-3, float("nan"), float("inf")])
def test_config_rejects_negative_or_non_finite_times(field, bad):
    """A negative time would make messages arrive before they were sent;
    a NaN jitter used to mean "no jitter" silently."""
    with pytest.raises(ValueError, match="LinkConfig." + field):
        LinkConfig(**{field: bad})
    assert getattr(LinkConfig(**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("bad", [-1, float("nan")])
def test_config_rejects_negative_queue_capacity(bad):
    with pytest.raises(ValueError, match="LinkConfig.queue_capacity"):
        LinkConfig(queue_capacity=bad)
    assert LinkConfig(queue_capacity=0).queue_capacity == 0
    assert LinkConfig(queue_capacity=None).queue_capacity is None


def test_delivery_after_tx_plus_latency(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append((src, p.uid, sim.now)),
                 latency=0.010, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload())
    sim.run()
    assert seen == [(0, "m", pytest.approx(0.011))]


def test_per_byte_cost_charged(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append(sim.now),
                 latency=0.0, per_message_s=0.0, per_byte_s=1e-5)
    link.transmit(_payload(size=1000))
    sim.run()
    assert seen == [pytest.approx(0.01)]


def test_serialization_is_sequential(sim):
    """Two messages share the wire: second is delayed by the first's tx."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.0, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload("a"))
    link.transmit(_payload("b"))
    sim.run()
    assert seen == [("a", pytest.approx(0.001)), ("b", pytest.approx(0.002))]


def test_queue_capacity_drops_and_counts(sim):
    link = _link(sim, lambda src, p: None,
                 per_message_s=1.0, queue_capacity=1)
    link.transmit(_payload("a"))   # in service
    link.transmit(_payload("b"))   # queued
    link.transmit(_payload("c"))   # dropped
    assert link.stats.dropped_queue == 1


def test_bound_is_judged_as_the_wire_stands_at_the_handover(sim):
    """``transmit(payload, at)`` counts against the bound only what is
    still serialising at ``at``; ``stats.sent`` still waits for the clock
    to pass each completion."""
    link = _link(sim, lambda src, p: None,
                 per_message_s=1.0, per_byte_s=0.0, queue_capacity=1)
    assert link.transmit(_payload("a"))            # serialises [0, 1)
    assert link.transmit(_payload("b"))            # queued, [1, 2)
    assert not link.transmit(_payload("c"))        # full now
    assert link.transmit(_payload("d"), 1.0)       # "a" is done by 1
    assert not link.transmit(_payload("e"), 1.0)   # "b" and "d" are not
    assert link.transmit(_payload("f"), 2.0)       # "b" is done by 2
    assert link.stats.dropped_queue == 2
    assert link.stats.sent == 0
    sim.run(until=1.0)
    assert link.stats.sent == 1
    sim.run()
    assert link.stats.sent == link.stats.delivered == 4


def test_loss_hook_drops_at_delivery(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append(p.uid),
                 loss_hook=lambda dst: True)
    link.transmit(_payload())
    sim.run()
    assert seen == []
    assert link.stats.dropped_loss == 1
    assert link.stats.delivered == 0


def test_loss_hook_receives_destination(sim):
    destinations = []

    def hook(dst):
        destinations.append(dst)
        return False

    link = _link(sim, lambda src, p: None, loss_hook=hook)
    link.transmit(_payload())
    sim.run()
    assert destinations == [1]


def test_stats_sent_and_bytes(sim):
    link = _link(sim, lambda src, p: None)
    link.transmit(_payload("a", size=10))
    link.transmit(_payload("b", size=20))
    sim.run()
    assert link.stats.sent == 2
    assert link.stats.bytes_sent == 30
    assert link.stats.delivered == 2


def test_jitter_spreads_delivery(sim):
    seen = []
    link = _link(sim, lambda src, p: seen.append(sim.now),
                 latency=0.010, per_message_s=0.0, per_byte_s=0.0,
                 jitter_s=0.005)
    for i in range(20):
        link.transmit(_payload("m{}".format(i)))
    sim.run()
    assert all(0.010 <= t <= 0.016 for t in seen)
    assert len(set(seen)) > 1  # jitter actually varied


def test_busy_and_queue_length(sim):
    link = _link(sim, lambda src, p: None, per_message_s=1.0)
    assert not link.busy
    link.transmit(_payload("a"))
    link.transmit(_payload("b"))
    assert link.busy
    assert link.queue_length == 1


def test_jitter_free_hop_schedules_single_event(sim):
    """One kernel event per hop: the propagation arrival."""
    link = _link(sim, lambda src, p: None,
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    before = sim.events_scheduled
    link.transmit(_payload())
    assert sim.events_scheduled == before + 1
    sim.run()
    assert link.stats.sent == 1
    assert link.stats.delivered == 1


def test_jittered_hop_schedules_single_event(sim):
    """Jitter is drawn when the arrival is committed, so a jittered hop
    costs the same one event, landing inside the jitter window."""
    arrived = {}
    link = _link(sim, lambda src, p: arrived.update({p.uid: sim.now}),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0,
                 jitter_s=0.005)
    before = sim.events_scheduled
    assert link.transmit(_payload("a"))
    serialised = {"a": 0.001,
                  "b": _commit(link, _payload("b")),
                  "c": _commit(link, _payload("c"))}
    assert serialised == pytest.approx({"a": 0.001, "b": 0.002, "c": 0.003})
    sim.run()
    assert sim.events_scheduled == before + 3
    assert link.stats.delivered == 3
    for uid, done in serialised.items():
        assert 0.01 <= arrived[uid] - done <= 0.015 + 1e-12


def test_stats_sent_drained_at_observation(sim):
    """The sent/bytes counters must read as if counted at each message's
    serialisation completion, even mid-run."""
    link = _link(sim, lambda src, p: None,
                 latency=5.0, per_message_s=1.0, per_byte_s=0.0)
    link.transmit(_payload("a", size=10))
    link.transmit(_payload("b", size=20))
    assert link.stats.sent == 0
    sim.run(until=1.5)
    assert link.stats.sent == 1
    assert link.stats.bytes_sent == 10
    sim.run(until=2.5)
    assert link.stats.sent == 2
    assert link.stats.bytes_sent == 30
    assert link.stats.delivered == 0  # still propagating


def test_degrade_applies_to_not_yet_serialised_messages(sim):
    """The documented contract: only messages serialised after degrade()
    see the new parameters — including messages submitted before the
    call whose serialisation completes after it."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload("a"))
    link.transmit(_payload("b"))
    sim.schedule_at(0.0005, link.degrade, 10.0)
    sim.run()
    # Both serialise after t=0.0005, so both travel at the degraded 0.1s.
    assert seen == [("a", pytest.approx(0.101)), ("b", pytest.approx(0.102))]
    assert link.stats.sent == 2
    assert link.stats.delivered == 2


def test_degrade_restore_roundtrip_with_in_flight(sim):
    """restore() mid-flight must also re-time the unserialised messages."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    link.degrade(10.0)
    link.transmit(_payload("a"))
    sim.schedule_at(0.0005, link.restore)
    sim.run()
    assert seen == [("a", pytest.approx(0.011))]


def test_degrade_leaves_serialised_messages_alone(sim):
    """A message that finished serialising before degrade() is propagating
    and keeps its arrival; the one still on the wire is re-timed."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    link.transmit(_payload("a"))
    link.transmit(_payload("b"))
    sim.schedule_at(0.0015, link.degrade, 10.0)
    sim.run()
    assert seen == [("a", pytest.approx(0.011)), ("b", pytest.approx(0.102))]


def test_degrade_draws_jitter_for_unserialised_messages(sim):
    """degrade() re-commits each unserialised arrival with a fresh draw
    from the stream it was given, inside the widened window."""
    seen = []
    link = _link(sim, lambda src, p: seen.append(sim.now),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    for uid in "abc":
        _commit(link, _payload(uid))
    rng = sim.rng("test-jitter")
    before = sim.events_scheduled
    sim.schedule_at(0.0005, link.degrade, 2.0, 0.004, rng)
    sim.run()
    assert sim.events_scheduled == before + 1 + 3   # the call + 3 re-timed
    assert sim.events_cancelled == 3
    assert len(set(t - done for t, done in
                   zip(seen, (0.001, 0.002, 0.003)))) == 3
    for arrived_at, sent_at in zip(seen, (0.001, 0.002, 0.003)):
        assert 0.02 <= arrived_at - sent_at <= 0.024 + 1e-12
    assert link.stats.sent == link.stats.delivered == 3


def test_abort_after_mid_round_degrade_withdraws_the_whole_tail(sim):
    """Regression: degrade() used to move the unserialised chain onto a
    second path the link no longer tracked, so a later abort rolled the
    server back while those messages still serialised and arrived."""
    seen = []
    link = _link(sim, lambda src, p: seen.append((p.uid, sim.now)),
                 latency=0.01, per_message_s=0.001, per_byte_s=0.0)
    for uid in "abc":
        _commit(link, _payload(uid))
    sim.run(until=0.0005)
    link.degrade(2.0)
    for uid in "de":
        _commit(link, _payload(uid))
    assert link.abort_pending_chain() == 4
    # The wire is free right after the in-service message, not before.
    assert _commit(link, _payload("f")) == pytest.approx(0.002)
    sim.run()
    assert seen == [("a", pytest.approx(0.021)), ("f", pytest.approx(0.022))]
    assert link.stats.sent == len(seen) == 2
    assert not link.busy and link.queue_length == 0
    assert link._payload is None and not link._behind
