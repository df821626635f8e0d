"""Unit tests for the FIFO single-server queue."""

import pytest

from repro.sim.server import FifoServer


def test_job_effect_runs_at_completion(sim):
    server = FifoServer(sim)
    seen = []
    server.submit_timed(2.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_jobs_execute_fifo_and_serially(sim):
    server = FifoServer(sim)
    seen = []
    server.submit_timed(1.0, lambda: seen.append(("a", sim.now)))
    server.submit_timed(1.0, lambda: seen.append(("b", sim.now)))
    server.submit_timed(0.5, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 2.0), ("c", 2.5)]


def test_submit_while_busy_queues(sim):
    server = FifoServer(sim)
    server.submit_timed(5.0, lambda: None)
    server.submit_timed(1.0, lambda: None)
    assert server.busy
    assert server.queue_length == 1


def test_idle_after_drain(sim):
    server = FifoServer(sim)
    server.submit_timed(1.0, lambda: None)
    sim.run()
    assert not server.busy
    assert server.queue_length == 0


def test_stats_counts(sim):
    """busy_time charges each job at its start; waiting jobs are counted
    by queue_length until they start."""
    server = FifoServer(sim)
    for _ in range(3):
        server.submit_timed(1.0, lambda: None)
    assert server.busy_time == 1.0
    assert server.queue_length == 2
    sim.run(until=1.5)
    assert server.busy_time == 2.0
    assert server.queue_length == 1
    sim.run()
    assert server.busy_time == 3.0
    assert not server.busy and server.queue_length == 0


def test_utilization(sim):
    server = FifoServer(sim)
    server.submit_timed(2.0, lambda: None)
    sim.run(until=4.0)
    assert server.utilization(4.0) == 0.5
    assert server.utilization(0.0) == 0.0


def test_submissions_during_service_preserve_order(sim):
    server = FifoServer(sim)
    seen = []

    def first():
        seen.append("first")
        server.submit_timed(1.0, lambda: seen.append("third"))

    server.submit_timed(1.0, first)
    server.submit_timed(1.0, lambda: seen.append("second"))
    sim.run()
    assert seen == ["first", "second", "third"]


def test_new_job_after_idle_starts_immediately(sim):
    server = FifoServer(sim)
    seen = []
    server.submit_timed(1.0, lambda: None)
    sim.run()
    server.submit_timed(1.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [2.0]


def test_accounting_only_jobs_schedule_no_events(sim):
    """None callbacks and submit_acct are pure arithmetic: zero kernel
    events."""
    server = FifoServer(sim)
    before = sim.events_scheduled
    server.submit_acct(1.0)
    server.submit_timed(0.5, None)
    server.submit_acct(0.25)
    assert sim.events_scheduled == before
    assert server.busy and server.queue_length == 2
    assert server.busy_time == 1.0
    sim.run(until=3.0)
    assert server.busy_time == 1.75
    assert not server.busy and server.queue_length == 0


def test_real_callback_schedules_exactly_one_event(sim):
    server = FifoServer(sim)
    before = sim.events_scheduled
    server.submit_timed(1.0, lambda: None)
    assert sim.events_scheduled == before + 1


def test_submit_timed_returns_completion_time(sim):
    server = FifoServer(sim)
    assert server.submit_timed(0.5, None) == pytest.approx(0.5)
    # Queued behind the first job: completion chains off busy_until.
    assert server.submit_timed(0.25, None) == pytest.approx(0.75)
