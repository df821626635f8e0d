"""Tests for the S-Paxos-style dissemination/ordering separation."""

import pytest

from repro.paxos.messages import HEADER_BYTES
from repro.paxos.spaxos import SPaxosProcess, ValueRef
from repro.runtime.config import ExperimentConfig
from repro.runtime.runner import run_deployment, run_experiment
from tests.conftest import fast_config


def _wire_bytes(deployment):
    return sum(
        link.stats.bytes_sent
        for node in deployment.nodes
        for link in node.links.values()
    )


def test_value_ref_is_tiny():
    ref = ValueRef(("c", 0))
    assert ref.size_bytes == ValueRef.REF_BYTES
    assert ref.value_id == ("c", 0)


def test_config_rejects_spaxos_on_baseline():
    with pytest.raises(ValueError):
        ExperimentConfig(setup="baseline", spaxos=True)


def test_config_rejects_spaxos_with_raft():
    with pytest.raises(ValueError):
        ExperimentConfig(protocol="raft", spaxos=True)


def test_deployment_uses_spaxos_processes():
    deployment, _ = run_deployment(fast_config(setup="gossip", spaxos=True))
    assert all(type(p) is SPaxosProcess for p in deployment.processes)


def test_all_values_ordered():
    report = run_experiment(fast_config(setup="gossip", spaxos=True))
    assert report.not_ordered == 0
    assert report.decided == report.submitted


def test_total_order_preserved():
    deployment, _ = run_deployment(fast_config(setup="gossip", spaxos=True,
                                               n=7))
    reference = None
    for process in deployment.processes:
        decided = process.learner.decided
        log = [(i, decided[i].value_id) for i in sorted(decided)]
        if reference is None:
            reference = log
        prefix = min(len(log), len(reference))
        assert log[:prefix] == reference[:prefix]
    assert reference


def test_ordering_messages_carry_refs_not_bodies():
    """Phase 2a / Decision sizes shrink to header + reference."""
    deployment, _ = run_deployment(fast_config(setup="gossip", spaxos=True))
    coordinator = deployment.processes[0]
    decided = coordinator.learner.decided
    assert decided
    for value in decided.values():
        assert isinstance(value, ValueRef)
        assert value.size_bytes == ValueRef.REF_BYTES


def test_clients_receive_real_bodies():
    """Delivery resolves refs back to the disseminated bodies: clients
    match decisions by client_id, which only the original bodies carry."""
    deployment, _ = run_deployment(fast_config(setup="gossip", spaxos=True))
    for client in deployment.clients:
        assert client.own_decided > 0


def test_bytes_on_wire_reduced():
    base_dep, base = run_deployment(fast_config(setup="gossip", rate=60))
    sp_dep, spaxos = run_deployment(fast_config(setup="gossip", rate=60,
                                                spaxos=True))
    assert spaxos.not_ordered == 0
    assert _wire_bytes(sp_dep) < 0.7 * _wire_bytes(base_dep)


def test_composes_with_semantic_gossip():
    report = run_experiment(fast_config(setup="semantic", spaxos=True,
                                        rate=60))
    assert report.not_ordered == 0
    assert report.messages.filtered > 0


def test_missing_body_blocks_delivery_in_order():
    """Unit-level: a decided ref without its body parks delivery, and the
    body's late arrival releases the ordered prefix."""
    from repro.paxos.messages import Value
    from repro.sim.kernel import Simulator

    class NullComm:
        def broadcast(self, payload):
            pass

        def to_coordinator(self, payload):
            pass

        def phase2b(self, payload):
            pass

    sim = Simulator(seed=0)
    delivered = []
    process = SPaxosProcess(sim, 1, 3, NullComm())
    process.deliver_to(lambda i, v: delivered.append((i, v.value_id)))

    # Simulate two decided instances arriving before any body.
    process.on_deliver(1, ValueRef("a"))
    process.on_deliver(2, ValueRef("b"))
    assert delivered == []
    assert process.bodies_pending == 2

    # Body for instance 2 alone does not unblock instance 1.
    process._bodies["b"] = Value("b", 0, 10)
    process._drain_undelivered()
    assert delivered == []

    # Body for instance 1 releases both, in order.
    process._bodies["a"] = Value("a", 0, 10)
    process._drain_undelivered()
    assert delivered == [(1, "a"), (2, "b")]
    assert process.bodies_pending == 0


def test_reference_overhead_constant():
    from repro.paxos.spaxos import reference_overhead_bytes

    assert reference_overhead_bytes() == HEADER_BYTES + ValueRef.REF_BYTES
