"""Integration: seeded chaos scenarios — safety always, liveness after heal.

The fault-composition matrix of the chaos tentpole: every scenario runs
with the :class:`SafetyMonitor` armed and must finish with zero invariant
violations; the liveness gate asserts that values submitted outside the
fault window decide; and repeated same-seed runs produce identical
fingerprints (the determinism contract extends to the failure traces).
"""

import pickle

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.checks.monitor import SafetyMonitor
from repro.net.faults.chaos import (
    SCENARIOS,
    ChaosResult,
    chaos_config,
    liveness_gaps,
    run_chaos_scenario,
    run_chaos_suite,
)
from repro.net.faults.events import Crash, FaultPlan, Heal, Partition
from repro.runtime.metrics import MetricsCollector
from repro.runtime.runner import run_deployment
from repro.sim.random import make_stream
from tests.conftest import fast_config


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_safe_and_live_on_gossip(name):
    result = run_chaos_scenario(name, seed=3)
    assert result.violations == []
    assert result.missing == []
    assert result.ok
    assert result.report.decided > 0
    assert result.report.messages.delivered > 0


@pytest.mark.parametrize("setup", ["baseline", "semantic"])
def test_partition_heal_safe_on_other_setups(setup):
    result = run_chaos_scenario("partition-heal", chaos_config(setup=setup),
                                seed=5)
    assert result.ok
    assert result.report.messages.fault_partition_drops > 0


def test_same_seed_runs_are_identical():
    a = run_chaos_scenario("burst-loss", seed=11)
    b = run_chaos_scenario("burst-loss", seed=11)
    assert report_fingerprint(a.report) == report_fingerprint(b.report)
    assert a.ok and b.ok


def test_different_seeds_randomize_the_failure_trace():
    a = run_chaos_scenario("partition-heal", seed=1)
    b = run_chaos_scenario("partition-heal", seed=2)
    assert (a.fault_start, a.heal_at) != (b.fault_start, b.heal_at)


def test_unsupported_scenario_setup_pair_rejected():
    with pytest.raises(ValueError):
        run_chaos_scenario("coordinator-crash", chaos_config(setup="baseline"))


def test_suite_skips_unsupported_pairs():
    results = run_chaos_suite(chaos_config(setup="baseline"), seeds=(1,))
    names = {result.scenario for result in results}
    # Everything needing broadcast dissemination skips the baseline star.
    gossip_only = {"coordinator-crash", "membership-churn",
                   "leader-churn-rejoin"}
    assert names & gossip_only == set()
    assert names == set(SCENARIOS) - gossip_only
    assert all(result.ok for result in results)


def _outcome(result):
    return (result.scenario, result.setup, result.seed, result.ok,
            result.violations, result.missing,
            report_fingerprint(result.report))


def test_parallel_suite_matches_serial_fingerprints():
    """The chaos suite returns the same results, in the same order, on
    the process pool as in process."""
    names = ["partition-heal", "burst-loss"]
    serial = run_chaos_suite(names=names, seeds=(3,), workers=1)
    parallel = run_chaos_suite(names=names, seeds=(3,), workers=2)
    assert all(isinstance(result, ChaosResult) for result in parallel)
    assert ([_outcome(r) for r in serial]
            == [_outcome(r) for r in parallel])
    assert all(result.ok for result in parallel)


def test_chaos_result_pickles():
    result = run_chaos_scenario("burst-loss", seed=11)
    copy = pickle.loads(pickle.dumps(result))
    assert _outcome(copy) == _outcome(result)


def test_coordinator_crash_mid_phase1_fails_over():
    """The coordinator dies before Phase 1 completes; a backup must take
    over and the system must decide the surviving clients' values."""
    run = SCENARIOS["coordinator-crash"].build(chaos_config(seed=7),
                                               make_stream(7, "chaos"))
    monitor = SafetyMonitor()
    deployment, report = run_deployment(run.config, monitor=monitor)
    assert monitor.violations == []
    assert liveness_gaps(deployment, monitor, run.fault_start, run.heal_at,
                         run.excluded_clients) == []
    coordinator_id = run.config.coordinator_id
    backups = [p for p in deployment.processes
               if p.process_id != coordinator_id and p.coordinator is not None]
    assert backups, "no backup took over after the coordinator crash"
    assert report.decided > 0


def test_crash_plus_loss_plus_retransmission_composes():
    """A recovering acceptor crash under 20% uniform loss: retransmission
    must repair the gaps and the monitor must stay green."""
    victim = 3
    config = fast_config(
        loss_rate=0.2,
        retransmit_timeout=0.25,
        faults=FaultPlan([(0.8, Crash(victim, duration=0.6))]),
        drain=3.0,
    )
    monitor = SafetyMonitor()
    deployment, report = run_deployment(config, monitor=monitor)
    assert monitor.violations == []
    assert report.messages.loss_injected > 0
    assert report.messages.retransmissions > 0
    assert report.messages.fault_injections == {"crash": 1}
    assert report.decided > 0


@pytest.mark.parametrize("isolate_coordinator", [False, True])
def test_partition_minority_with_and_without_coordinator(isolate_coordinator):
    """Partition a minority either around or away from the coordinator;
    safety must hold in both and all pre/post-window values must decide."""
    isolated = [0, 1, 2] if isolate_coordinator else [4, 5, 6]
    start, heal = 0.9, 1.3
    config = fast_config(
        retransmit_timeout=0.25,
        faults=FaultPlan([(start, Partition([isolated])), (heal, Heal())]),
        drain=3.0,
    )
    monitor = SafetyMonitor()
    deployment, report = run_deployment(config, monitor=monitor)
    assert monitor.violations == []
    assert report.messages.fault_partition_drops > 0
    missing = liveness_gaps(deployment, monitor, fault_start=start - 0.2,
                            heal_at=heal)
    assert missing == []
    if not isolate_coordinator:
        # The majority side kept its quorum: decisions span the window too.
        assert report.decided > 0


def test_liveness_gate_counts_learner_chosen_values():
    """A value is live when a learner chose it, even if its client was
    never notified (e.g. the client's process crashed)."""

    class _FakeDeployment:
        def __init__(self):
            self.collector = MetricsCollector()

    class _FakeMonitor:
        chosen = {7: "v-chosen"}

    deployment = _FakeDeployment()
    deployment.collector.record_submit("v-chosen", client_id=0, now=0.1)
    deployment.collector.record_submit("v-lost", client_id=1, now=0.1)
    deployment.collector.record_submit("v-in-window", client_id=1, now=1.0)
    deployment.collector.record_submit("v-excluded", client_id=2, now=0.1)
    missing = liveness_gaps(deployment, _FakeMonitor(), fault_start=0.5,
                            heal_at=1.5, excluded_clients={2})
    assert missing == ["v-lost"]
