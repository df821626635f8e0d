"""Tests for the open-loop client."""

import pytest

from repro.paxos.messages import Value
from repro.runtime.client import Client
from repro.runtime.deployment import build_deployment
from repro.runtime.metrics import MetricsCollector
from tests.conftest import fast_config


class FakeProcess:
    def __init__(self):
        self.values = []

    def submit_value(self, value):
        self.values.append(value)


def _client(sim, rate=10.0, start=0.0, stop=1.0, phase=0.0, collector=None):
    return Client(
        sim, client_id=2, process=FakeProcess(), rate=rate, value_size=100,
        lan_delay_s=0.001, collector=collector or MetricsCollector(),
        start_at=start, stop_at=stop, phase=phase,
    )


def test_open_loop_submission_count(sim):
    client = _client(sim, rate=10.0, start=0.0, stop=1.0)
    client.start()
    sim.run()
    # Submissions at 0.0, 0.1, ..., 1.0.
    assert client.submitted == 11
    assert len(client.process.values) == 11


def test_submissions_stop_at_deadline(sim):
    client = _client(sim, rate=100.0, start=0.0, stop=0.5)
    client.start()
    sim.run(until=10.0)
    # 0.0, 0.01, ..., ~0.5 — the endpoint may fall off by float accumulation.
    assert client.submitted in (50, 51)


def test_phase_offsets_start(sim):
    client = _client(sim, rate=10.0, start=0.0, stop=1.0, phase=0.05)
    times = []
    client.collector.record_submit = lambda vid, cid, now: times.append(now)
    client.start()
    sim.run()
    assert times[0] == 0.05


def test_value_ids_unique_and_owned(sim):
    client = _client(sim, rate=10.0, stop=0.5)
    client.start()
    sim.run()
    ids = [v.value_id for v in client.process.values]
    assert len(set(ids)) == len(ids)
    assert all(v.client_id == 2 for v in client.process.values)


def test_lan_delay_before_process_sees_value(sim):
    client = _client(sim, rate=10.0, stop=0.0)
    client.start()
    sim.run(max_events=1)  # the submit event
    assert client.process.values == []  # still in flight
    sim.run()
    assert len(client.process.values) == 1


def test_decision_recording_for_own_values(sim):
    collector = MetricsCollector()
    client = _client(sim, rate=10.0, stop=0.0, collector=collector)
    client.start()
    sim.run()
    value = client.process.values[0]
    client.on_decision(1, value)
    assert client.own_decided == 1
    (record,) = collector.records()
    assert record.decided_at is not None


def test_foreign_decisions_are_not_recorded(sim):
    collector = MetricsCollector()
    client = _client(sim, rate=10.0, stop=0.0, collector=collector)
    client.start()
    sim.run()
    client.notify(1, Value(("other", 0), client_id=9, size_bytes=10))
    sim.run()
    assert client.own_decided == 0
    (record,) = collector.records()
    assert record.decided_at is None


def test_only_own_decisions_schedule_an_event(sim):
    client = _client(sim, rate=10.0, stop=0.0)
    client.start()
    sim.run()
    scheduled = sim.events_scheduled
    client.notify(1, Value(("other", 0), client_id=9, size_bytes=10))
    assert sim.events_scheduled == scheduled
    client.notify(2, client.process.values[0])
    assert sim.events_scheduled == scheduled + 1
    decided_at = sim.now + client.lan_delay_s
    sim.run()
    assert client.own_decided == 1
    (record,) = client.collector.records()
    assert record.decided_at == decided_at


@pytest.mark.parametrize("setup", ["baseline", "gossip"])
def test_on_decision_runs_once_per_own_decided_value(setup):
    deployment = build_deployment(fast_config(setup=setup, duration=0.5))
    seen = {}
    for client in deployment.clients:
        def count(instance, value, client=client, original=client.on_decision):
            seen.setdefault(client.client_id, []).append(value.value_id)
            original(instance, value)

        client.on_decision = count
    deployment.start()
    deployment.run()
    for client in deployment.clients:
        decided = client.process.decided_values().values()
        own = sorted(v.value_id for v in decided
                     if v.client_id == client.client_id)
        assert own
        assert sorted(seen[client.client_id]) == own
        assert client.own_decided == len(own)
