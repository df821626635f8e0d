"""Tests for the CPU-utilization metrics."""

from repro.runtime.runner import run_experiment
from tests.conftest import fast_config


def test_utilization_reported_and_bounded():
    report = run_experiment(fast_config(setup="gossip", rate=40))
    messages = report.messages
    assert 0.0 < messages.cpu_utilization_mean <= 1.0
    assert messages.cpu_utilization_mean <= messages.cpu_utilization_max <= 1.0


def test_utilization_grows_with_load():
    low = run_experiment(fast_config(setup="gossip", rate=20))
    high = run_experiment(fast_config(setup="gossip", rate=200,
                                      duration=0.8))
    assert (high.messages.cpu_utilization_mean
            > low.messages.cpu_utilization_mean)


def test_semantic_lowers_utilization():
    """Filtering/aggregation save CPU work, the mechanical reason for the
    paper's higher sustainable workloads."""
    gossip = run_experiment(fast_config(setup="gossip", rate=150,
                                        duration=0.8))
    semantic = run_experiment(fast_config(setup="semantic", rate=150,
                                          duration=0.8))
    assert (semantic.messages.cpu_utilization_mean
            < gossip.messages.cpu_utilization_mean)


def test_baseline_coordinator_is_hot_spot():
    """In the Baseline star the coordinator dominates CPU usage."""
    from repro.runtime.runner import run_deployment

    deployment, report = run_deployment(fast_config(setup="baseline",
                                                    rate=100))
    elapsed = deployment.sim.now
    coordinator = deployment.nodes[0].cpu.utilization(elapsed)
    others = [node.cpu.utilization(elapsed)
              for node in deployment.nodes[1:]]
    assert coordinator > max(others)
    assert report.messages.cpu_utilization_max == coordinator
