"""Tests for metrics collection and report mathematics."""

import pytest

from repro.analysis.fingerprint import report_to_dict
from repro.runtime.metrics import (
    MessageStats,
    MetricsCollector,
    mean,
    percentile,
    stddev,
)


def test_mean():
    assert mean([1.0, 2.0, 3.0]) == 2.0
    assert mean([]) == 0.0


def test_stddev():
    assert stddev([2.0, 4.0]) == pytest.approx(1.4142, abs=1e-3)
    assert stddev([5.0]) == 0.0
    assert stddev([]) == 0.0


def test_percentile_interpolates():
    xs = [0.0, 10.0]
    assert percentile(xs, 0) == 0.0
    assert percentile(xs, 100) == 10.0
    assert percentile(xs, 50) == 5.0


def test_percentile_edge_cases():
    assert percentile([], 50) == 0.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_monotone():
    xs = sorted([3.0, 1.0, 4.0, 1.5, 9.0, 2.6])
    values = [percentile(xs, p) for p in range(0, 101, 5)]
    assert values == sorted(values)


def test_collector_records_lifecycle():
    collector = MetricsCollector()
    collector.record_submit("v1", client_id=3, now=1.0)
    collector.record_decided("v1", now=1.5)
    (record,) = collector.records()
    assert record.client_id == 3
    assert record.submitted_at == 1.0
    assert record.decided_at == 1.5


def test_collector_first_decision_wins():
    collector = MetricsCollector()
    collector.record_submit("v1", 0, 1.0)
    collector.record_decided("v1", 2.0)
    collector.record_decided("v1", 9.0)
    (record,) = collector.records()
    assert record.decided_at == 2.0


def test_collector_counts_unknown_decisions():
    collector = MetricsCollector()
    collector.record_decided("ghost", 1.0)  # no crash, but accounted
    assert list(collector.records()) == []
    assert collector.decisions_unknown == 1
    assert collector.decisions_duplicate == 0


def test_collector_counts_duplicate_decisions():
    collector = MetricsCollector()
    collector.record_submit("v1", 0, 1.0)
    collector.record_decided("v1", 2.0)
    collector.record_decided("v1", 9.0)
    collector.record_decided("v1", 9.5)
    assert collector.decisions_duplicate == 2
    assert collector.decisions_unknown == 0
    (record,) = collector.records()
    assert record.decided_at == 2.0   # first decision still wins


def test_undecided_record_has_none():
    collector = MetricsCollector()
    collector.record_submit("v1", 0, 1.0)
    (record,) = collector.records()
    assert record.decided_at is None


def test_collector_items_exposes_value_ids():
    collector = MetricsCollector()
    collector.record_submit("v1", 0, 1.0)
    ((value_id, record),) = collector.items()
    assert value_id == "v1"
    assert record.client_id == 0


def test_message_stats_fault_fields_default_empty():
    stats = MessageStats()
    assert stats.loss_examined == 0
    assert stats.retransmissions == 0
    assert stats.fault_injections == {}
    assert stats.fault_partition_drops == 0
    assert stats.fault_link_loss_drops == 0
    assert stats.fault_burst_drops == 0
    assert stats.partition_windows == []


def test_message_stats_decision_anomalies_default_to_zero():
    stats = MessageStats()
    assert stats.decisions_unknown == 0
    assert stats.decisions_duplicate == 0


def test_failfree_run_reports_no_decision_anomalies():
    from repro.runtime.runner import run_deployment
    from tests.conftest import fast_config

    deployment, report = run_deployment(fast_config())
    assert deployment.collector.decisions_unknown == 0
    assert deployment.collector.decisions_duplicate == 0
    assert report.messages.decisions_unknown == 0
    # Like every MessageStats field, both are in the fingerprinted outcome.
    messages = report_to_dict(report)["messages"]
    assert messages["decisions_unknown"] == 0
    assert messages["decisions_duplicate"] == 0


def test_delivery_ratio():
    stats = MessageStats()
    assert stats.delivery_ratio == 1.0        # no sends yet
    stats.link_sent = 10
    stats.link_delivered = 8
    assert stats.delivery_ratio == pytest.approx(0.8)


def test_report_surfaces_link_and_loss_aggregates():
    from repro.runtime.runner import run_experiment
    from tests.conftest import fast_config

    report = run_experiment(fast_config(loss_rate=0.2,
                                        retransmit_timeout=0.3))
    messages = report.messages
    assert messages.link_sent > 0
    assert messages.link_delivered > 0
    assert messages.link_dropped_loss > 0
    assert messages.loss_injected == messages.link_dropped_loss
    assert messages.loss_examined >= messages.loss_injected
    assert messages.retransmissions > 0
    assert 0.0 < messages.delivery_ratio < 1.0


def test_report_link_aggregates_without_loss():
    from repro.runtime.runner import run_experiment
    from tests.conftest import fast_config

    report = run_experiment(fast_config())
    messages = report.messages
    assert messages.link_dropped_loss == 0
    assert messages.link_bytes_sent > 0
    # In-flight messages at the run cutoff are sent but never delivered.
    assert messages.link_delivered + messages.link_dropped_queue \
        <= messages.link_sent
