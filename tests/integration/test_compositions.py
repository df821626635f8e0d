"""Feature-composition matrix.

Each feature works alone; these runs pin the pairwise compositions that
could plausibly interact (strategy x protocol, faults x variant, ...).
Every run must still order values and keep total order.
"""

import pytest

from repro.checks.monitor import SafetyMonitor
from repro.membership import MembershipConfig
from repro.net.faults.events import Crash
from repro.runtime.deployment import build_deployment
from repro.runtime.metrics import build_report
from tests.conftest import fast_config

COMPOSITIONS = [
    pytest.param(dict(setup="semantic", protocol="raft",
                      gossip_strategy="push-pull", pull_interval=0.1),
                 id="raft+semantic+push-pull"),
    pytest.param(dict(setup="semantic", spaxos=True),
                 id="spaxos+semantic"),
    pytest.param(dict(setup="gossip", spaxos=True, loss_rate=0.05,
                      retransmit_timeout=0.4, drain=4.0),
                 id="spaxos+loss+retransmit"),
    pytest.param(dict(setup="semantic", protocol="raft", loss_rate=0.05,
                      retransmit_timeout=0.4, drain=4.0),
                 id="raft+semantic+loss+retransmit"),
    pytest.param(dict(setup="semantic",
                      faults=((0.9, Crash(4, duration=0.4)),),
                      retransmit_timeout=0.4, drain=4.0),
                 id="semantic+crash-recovery+retransmit"),
    pytest.param(dict(setup="gossip", gossip_strategy="push-pull",
                      pull_interval=0.1, loss_rate=0.10, drain=5.0),
                 id="push-pull+loss"),
    pytest.param(dict(setup="semantic", enable_aggregation=False),
                 id="filtering-only"),
    pytest.param(dict(setup="semantic", faults=((1.0, Crash(0)),),
                      membership=MembershipConfig(), retransmit_timeout=0.4,
                      drain=5.0),
                 id="semantic+coordinator-failover"),
]


@pytest.mark.parametrize("overrides", COMPOSITIONS)
def test_composition_orders_values_safely(overrides):
    config = fast_config(n=7, rate=40, **overrides)
    deployment = build_deployment(config)
    monitor = SafetyMonitor().attach(deployment)
    deployment.start()
    deployment.run()
    report = build_report(deployment)

    # Safety held throughout (the monitor raises at violation time).
    assert monitor.deliveries > 0
    # Liveness: the healthy majority keeps ordering. Compositions with a
    # permanently crashed client-serving process lose that client's
    # values, and lossy runs without full retransmission may drop a few.
    assert report.decided >= 0.5 * report.submitted
    # Total-order checkers on final state, instance by instance.
    chosen = {}
    for process in deployment.processes:
        for instance, value in process.decided_values().items():
            expected = chosen.setdefault(instance, value.value_id)
            assert expected == value.value_id, (instance, overrides)
