"""Committed report fingerprints: the oracle that holds behaviour still.

Every fixed-seed scenario must keep producing the exact outcome (every raw
latency sample and counter, floats hashed via ``float.hex``) that was
committed for it, and must schedule no more kernel events than its
committed ceiling: event counts are an implementation property that
hot-path work drives down, so they are capped, not pinned — a lower count
passes and is ratcheted in by editing the table. Every scheduled event is
executed, still pending at the horizon, or cancelled; nothing else.

The digests hash outcome-only documents: the config that produced a run
is not part of them. They were re-pinned once when the config left the
document, after a comparison showed each new document equal to the old
one minus its config (old → new table in CHANGES.md). The large-N
scenarios are pinned the same way by benchmarks/test_large_scenarios.py,
outside tier-1.
"""

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.checks.monitor import SafetyMonitor
from repro.checks.scenarios import REGRESSION_SCENARIOS, SCENARIOS
from repro.runtime.runner import run_deployment, run_experiment
from tests.conftest import fast_config

#: name -> (report fingerprint, ceiling on kernel events scheduled).
COMMITTED = {
    "fig3_workload": (
        "7f525613c3c5187161485953b83c369bda86cf263ec727d8687deff054d97c41",
        107_908),
    "fig5_latency": (
        "476f7201cf3acf3cd0bf9e91376ef8a07d8557d15dd9e927049d7404e356d71e",
        84_577),
    "fig6_loss": (
        "d4450e0894b9ebc557328353f8135856b6bca27d4bcce8e8b519b8490f53f20e",
        53_210),
    "fig7_overlay": (
        "4c7d15a2570c014e43078247e07cc200a3333efb606f886ad90072fe7ba668da",
        28_709),
    "fig8_saturation": (
        "f230a0b81b318e0a9a0815a4fcdd66d37010ff0696a84b9f3210854aeaf57bf4",
        476_270),
    "agg_heavy": (
        "172ae07ae3458b14f828621aa0c71e5f833cfc2adf40de1b7baa7fbff6b75dec",
        337_050),
    "baseline_faults": (
        "ac94e5e2406450a083b3ed75554b02b4077fd5189cd583cd55532d2f65d38c4b",
        78_281),
    "baseline_star": (
        "97399f2a91fa6e3f1145d0db243e5b2a459f1a4a658156d037e196257bb1413c",
        48_049),
    "churn_leader": (
        "b32bc1f2f24f3abc41108f1e3df8f55cbc1185e32aafbc75566e805d20a0fb3f",
        20_353),
    "churn_smoke": (
        "2bd86d2056d9e01c5dcb1be27f09f3a82dce0daebad69bea38a5d359ea2c4440",
        41_431),
    "crash_recover": (
        "74ff43af8a5d71904a0e43c1c0dea87a71cd8b822d911cd7ab498fe3458ad156",
        101_234),
    "degrade_jitter": (
        "a1607f412eabbb8ceeed45b0afea1c555917bdd5127fef5c3c0e7b09cabddf94",
        206_876),
    "link_faults": (
        "be0f4dba032fc82275f534315415c63c10f2290580a5bdbfbbacdff88eb14ed4",
        13_364),
    "push_pull_loss": (
        "32626df5ec5f8aa2beda50c4f62aa843714b9f94b51f419233c8750fe145ee62",
        13_523),
    "raft_semantic": (
        "5f5021874bc775bf0a7b90c510efc9a7e5dc4c3e9d9501649495269a66a12169",
        79_318),
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
    """Jittered, degraded links reorder arrivals, and heavy aggregation
    rewrites batches at every busy link; Paxos safety must hold anyway,
    every value must be decided, and the armed run must reproduce the
    committed bits. These are the two tier-1 runs whose digests the tie
    order of a sender's wake-up decides."""
    for name in ("agg_heavy", "degrade_jitter"):
        report = run_experiment(REGRESSION_SCENARIOS[name](),
                                monitor=SafetyMonitor(strict=True))
        assert report_fingerprint(report) == COMMITTED[name][0], name
        assert report.submitted == report.decided, name


def test_knob_the_run_never_reads_leaves_the_fingerprint_alone():
    """Push gossip never reads ``pull_interval``: the run computes the same
    outcome, so the fingerprint, which hashes outcomes only, is the same."""
    config = fast_config(gossip_strategy="push")
    other = config.replace(pull_interval=0.2)
    assert other != config
    assert (report_fingerprint(run_experiment(config))
            == report_fingerprint(run_experiment(other)))
