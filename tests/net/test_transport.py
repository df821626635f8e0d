"""Tests for the process-facing transport."""

import pytest

from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload
from repro.net.transport import Transport


def _wire(sim, a, b):
    """Two transports connected by a bidirectional channel."""
    ta, tb = Transport(a), Transport(b)
    config = LinkConfig(per_message_s=0.0, per_byte_s=0.0)
    ta.connect(DirectedLink(sim, a, b, 0.001, config, tb.deliver))
    tb.connect(DirectedLink(sim, b, a, 0.001, config, ta.deliver))
    return ta, tb


def test_send_and_receive(sim):
    ta, tb = _wire(sim, 0, 1)
    seen = []
    tb.on_receive(lambda src, p: seen.append((src, p.uid)))
    ta.link_to(1).transmit(RawPayload("hello", 10))
    sim.run()
    assert seen == [(0, "hello")]


def test_connect_rejects_foreign_link(sim):
    transport = Transport(0)
    config = LinkConfig()
    link = DirectedLink(sim, 5, 1, 0.001, config, lambda s, p: None)
    with pytest.raises(ValueError):
        transport.connect(link)


def test_peers_lists_connected_ids(sim):
    ta, tb = _wire(sim, 0, 1)
    assert ta.peers() == [1]
    assert tb.peers() == [0]


def test_link_to_unknown_raises(sim):
    ta, _ = _wire(sim, 0, 1)
    with pytest.raises(KeyError):
        ta.link_to(9)


def test_deliver_without_callback_is_safe(sim):
    transport = Transport(0)
    transport.deliver(1, RawPayload("m", 10))  # no registered callback
