"""Fingerprint inertness of the MessageStats anomaly counters.

``decisions_unknown`` and ``decisions_duplicate`` were added after
fingerprints were committed, so they carry
:data:`repro.analysis.fingerprint.OMIT_AT_DEFAULT`: a zero counter is
absent from the canonical form — committed fingerprints of clean runs
never moved — while any nonzero value is serialised and changes the
fingerprint loudly. These cases pin the rule, and the exact set of fields
that are *not* under it.
"""

from dataclasses import fields

from repro.analysis.fingerprint import _canonical, report_fingerprint
from repro.checks.scenarios import SCENARIOS
from repro.runtime.metrics import MessageStats, build_report
from repro.runtime.runner import run_deployment

#: The anomaly counters serialised only when nonzero.
LAZY_FIELDS = ("decisions_unknown", "decisions_duplicate")


def test_zero_anomaly_counters_stay_out_of_canonical_form():
    stats = MessageStats()
    for name in LAZY_FIELDS:
        assert getattr(stats, name) == 0
    # At zero, these two and no other field are left out.
    assert ({f.name for f in fields(MessageStats)} - set(_canonical(stats))
            == set(LAZY_FIELDS))


def test_zero_anomaly_counters_are_fingerprint_inert():
    reference = _canonical(MessageStats())
    # A nonzero count adds exactly its own key and nothing else.
    for name in LAZY_FIELDS:
        stats = MessageStats()
        setattr(stats, name, 1)
        assert _canonical(stats) == dict(reference, **{name: 1})
    # Writing the default back is not a change: the rule looks at the
    # value, not at whether the attribute was ever assigned.
    stats = MessageStats()
    stats.decisions_unknown = 0
    assert _canonical(stats) == reference


def test_no_future_field_reintroduces_the_eager_pattern():
    """Every unmarked field is part of the committed fingerprint surface;
    this pins the exact set so additions are deliberate.

    Adding an unmarked field shifts every committed baseline fingerprint —
    if that is intended, re-pin the literals in
    tests/integration/test_committed_fingerprints.py and
    benchmarks/test_large_scenarios.py and update this list;
    if not, give the field ``metadata=OMIT_AT_DEFAULT``.
    """
    eager = sorted(set(_canonical(MessageStats())) - {"__class__"})
    assert eager == sorted((
        "received_total", "received_regular_mean", "received_coordinator",
        "duplicates", "delivered", "filtered", "aggregated_saved",
        "disaggregated", "send_queue_drops", "loss_injected",
        "loss_examined", "retransmissions", "retransmissions_election",
        "reproposals_election", "membership", "cpu_utilization_mean",
        "cpu_utilization_max", "link_sent", "link_delivered",
        "link_dropped_queue", "link_dropped_loss", "link_bytes_sent",
        "fault_injections", "fault_partition_drops", "fault_link_loss_drops",
        "fault_burst_drops", "partition_windows",
    ))


def test_clean_run_report_omits_anomaly_counters():
    deployment, report = run_deployment(SCENARIOS["fig3_workload"]())
    for name in LAZY_FIELDS:
        assert name not in _canonical(report.messages)
    # Force an anomaly on the finished deployment's collector and rebuild:
    # the counter must reach the report and move its fingerprint.
    deployment.collector.decisions_unknown = 3
    rebuilt = build_report(deployment)
    assert _canonical(rebuilt.messages)["decisions_unknown"] == 3
    assert report_fingerprint(rebuilt) != report_fingerprint(report)
