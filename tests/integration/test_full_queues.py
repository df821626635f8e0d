"""Integration: a full queue lowers throughput, never safety.

The bounded queues of a run are the gossip send queue (``send_queue_capacity``)
and the link queue (``LinkConfig.queue_capacity``). Shrunk to one slot and
zero slots under a load far beyond either, they drop thousands of messages;
retransmission must still decide values, and the strict SafetyMonitor must
see no violation.
"""

import pytest

from repro.checks.monitor import SafetyMonitor
from repro.net.channel import LinkConfig
from repro.runtime.config import ExperimentConfig
from repro.runtime.runner import run_experiment


@pytest.mark.parametrize("setup, protocol", [
    ("semantic", "paxos"),
    ("gossip", "paxos"),
    ("semantic", "raft"),
    ("baseline", "paxos"),
    ("baseline", "raft"),
])
def test_full_queues_drop_messages_but_stay_safe(setup, protocol):
    config = ExperimentConfig(
        setup=setup, protocol=protocol, n=7, rate=1500, duration=0.5,
        send_queue_capacity=1, link=LinkConfig(queue_capacity=0),
        retransmit_timeout=0.25)
    monitor = SafetyMonitor(strict=True)
    report = run_experiment(config, monitor=monitor)
    if setup == "baseline":
        assert report.messages.link_dropped_queue > 0
    else:
        assert report.messages.send_queue_drops > 0
    assert report.decided >= 1
    assert monitor.finalize() == []
