"""The inertness guarantee: tracing must never change what a run reports.

These are the acceptance gates of the obs subsystem: a traced run's
report fingerprints identically to the untraced run (for both consensus
protocols and all gossip setups), and the trace itself is a deterministic
function of the configuration.
"""

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.obs import ObsConfig, to_chrome_trace, validate_chrome_trace
from repro.runtime.runner import run_deployment, run_experiment
from tests.conftest import fast_config


@pytest.mark.parametrize("params", [
    dict(setup="gossip"),
    dict(setup="semantic"),
    dict(setup="baseline"),
    dict(setup="gossip", protocol="raft"),
], ids=lambda p: "-".join(str(v) for v in p.values()))
def test_traced_run_keeps_the_untraced_fingerprint(params):
    config = fast_config(**params)
    untraced = report_fingerprint(run_experiment(config))
    traced = report_fingerprint(run_experiment(config, obs=ObsConfig()))
    assert traced == untraced


def test_traced_report_carries_phases_and_timeline():
    deployment, report = run_deployment(fast_config(), obs=ObsConfig())
    assert report.phases is not None
    assert report.timeline is not None
    assert report.phases.percentiles("total")["count"] > 0
    assert report.timeline is deployment.obs.sampler.series


def test_untraced_report_has_no_phases_or_timeline():
    report = run_experiment(fast_config())
    assert report.phases is None
    assert report.timeline is None


def test_spans_only_config_skips_the_sampler():
    deployment, report = run_deployment(
        fast_config(), obs=ObsConfig(timeseries=False))
    assert deployment.obs.sampler is None
    assert report.timeline is None
    assert report.phases is not None


def test_raft_trace_decomposes_phases():
    deployment, report = run_deployment(
        fast_config(setup="gossip", protocol="raft"), obs=ObsConfig())
    tracer = deployment.obs
    events = validate_chrome_trace(to_chrome_trace(tracer))
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert names == {"forward", "quorum", "consensus", "dissemination"}
    assert report.phases.percentiles("quorum")["count"] > 0
    assert tracer.delivered_total > 0


def test_paxos_takeover_appears_as_round_events():
    # The committed leader-churn scenario: coordinator crash + rejoin
    # under membership, so a successor runs Phase 1 and takes over.
    from repro.checks.scenarios import REGRESSION_SCENARIOS

    config = REGRESSION_SCENARIOS["churn_leader"]()
    deployment, _report = run_deployment(config, obs=ObsConfig())
    kinds = {kind for _seq, _t, kind, _d in deployment.obs.events}
    assert "phase1_quorum" in kinds
    assert "takeover" in kinds


def test_race_harness_audits_traced_scenarios():
    """The ':obs' suffix compares report fingerprint + trace digest."""
    from repro.checks.race import race_check

    report = race_check("fig7_overlay:obs", hash_seeds=(0, 1))
    assert report["ok"], report
    assert report["scenario"] == "fig7_overlay:obs"
    for run in report["runs"].values():
        assert "+obs:" in run["fingerprint"]
