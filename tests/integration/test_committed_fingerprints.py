"""Committed report fingerprints: the oracle that holds behaviour still.

Every fixed-seed scenario must keep producing the exact experiment report
(every raw latency sample and counter, floats hashed via ``float.hex``)
that was committed for it, and must schedule no more kernel events than
its committed ceiling: event counts are an implementation property that
hot-path work drives down, so they are capped, not pinned — a lower count
passes and is ratcheted in by editing the table. Every scheduled event is
executed, still pending at the horizon, or cancelled; nothing else.

The regression scenarios' values were captured at the last commit
that still carried the event-per-job server deployments and the
binary-heap queue, where the A/B suite proved them equal on all four
combinations — except ``degrade_jitter``, captured at the commit that made
every link hop a single event with jitter drawn when the arrival is
committed (jittered runs have no older bits to hold on to) —
``raft_semantic``, captured at the last commit where Raft had its own copy
of the vote-merging rule — and ``crash_recover``, captured at the last
commit where process outages had a second, config-driven path beside the
fault engine. The large-N scenarios are pinned the same way by
benchmarks/test_large_scenarios.py, outside tier-1.
"""

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.checks.monitor import SafetyMonitor
from repro.checks.scenarios import REGRESSION_SCENARIOS, SCENARIOS
from repro.runtime.runner import run_deployment, run_experiment

#: name -> (report fingerprint, ceiling on kernel events scheduled).
COMMITTED = {
    "fig3_workload": (
        "0bce67466ab755b01cd0b9e8ab0d0159e36c5b19c717fbc5acea5cbe0c3b4b26",
        109_720),
    "fig5_latency": (
        "5032970ffe6c7e568871dc3574212754cd1376abc917b8c5baa7fa6688913647",
        86_017),
    "fig6_loss": (
        "6a91f5a6683b6dca61450ce6bf2016258754585ae272ecb92d9441698a0f2ceb",
        53_906),
    "fig7_overlay": (
        "27ca88e09feadf05e669dc776b1a5f88049f55b0bd4fd28b012f0bbc1ae45575",
        29_069),
    "fig8_saturation": (
        "808a845132763a34201d918951898104927519e1997da5754f47d9e34cd0c3cc",
        481_562),
    "agg_heavy": (
        "a277d5640d83672c8aec13ce1ce16b15d5ad4e45fa9b8bc959211faa202c9f64",
        338_145),
    "churn_leader": (
        "04de14c8dec015cf96bbb539057c06bf309001600b56d6b0b106291f297690f3",
        20_556),
    "churn_smoke": (
        "0812e07183daf648601c9bcd83b306b7ee2187de06514f67a35d0f9c600c3147",
        41_822),
    "crash_recover": (
        "cd0b984e0a10a5c56fa8b3513fd026a7467ba5a559da6be15bfac295cad1c98c",
        102_847),
    "degrade_jitter": (
        "7f20b6bf7030f1e002a2b7f02af48f3ec4bb00de15a2e869c8e4b3986756e63c",
        210_686),
    "raft_semantic": (
        "453a43590ee3132d8ac11b16c5bc900248f55490343e6d33cfa64175a8e4882c",
        80_650),
}


def _assert_committed(name, config):
    deployment, report = run_deployment(config)
    sim = deployment.sim
    fingerprint, ceiling = COMMITTED[name]
    assert report_fingerprint(report) == fingerprint
    assert sim.events_scheduled == (
        sim.events_executed + sim.pending() + sim.events_cancelled)
    assert sim.events_scheduled <= ceiling, (
        "{} scheduled {} kernel events, above the committed {}: the hot "
        "path grew an event".format(name, sim.events_scheduled, ceiling))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_figure_scenario_matches_perf_baseline(name):
    _assert_committed(name, SCENARIOS[name]())


@pytest.mark.parametrize("name", sorted(REGRESSION_SCENARIOS))
def test_regression_scenario_matches_committed_fingerprint(name):
    _assert_committed(name, REGRESSION_SCENARIOS[name]())


def test_degrade_jitter_is_safe_under_a_strict_monitor():
    """Jittered, degraded links reorder arrivals; Paxos safety must hold
    anyway, and the armed run must reproduce the committed bits."""
    report = run_experiment(REGRESSION_SCENARIOS["degrade_jitter"](),
                            monitor=SafetyMonitor(strict=True))
    assert report_fingerprint(report) == COMMITTED["degrade_jitter"][0]


def test_membership_field_unconfigured_is_bitwise_inert():
    """The membership *field* existing (as None) must not perturb a fixed
    run: same seed, same report fingerprint, with the membership layer
    compiled in but unconfigured. Guards the inert-when-unconfigured
    contract at the report level (the event ceilings guard event counts).
    """
    config = SCENARIOS["fig7_overlay"]()
    assert config.membership is None
    first = report_fingerprint(run_experiment(config))
    second = report_fingerprint(run_experiment(SCENARIOS["fig7_overlay"]()))
    assert first == second
