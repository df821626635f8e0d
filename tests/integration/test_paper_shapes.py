"""Integration tests asserting the paper's qualitative findings.

These are the repository's regression net for the reproduction itself:
each test pins one directional claim from the paper's evaluation at small
scale, so a refactoring that silently breaks an experimental shape fails
here rather than in a slow benchmark.
"""

import pytest

from repro.gossip.hooks import SemanticHooks
from repro.paxos.messages import Aggregated2b, Phase2b
from repro.raft.messages import AggregatedAck, AppendAck
from repro.runtime.runner import run_experiment
from tests.conftest import fast_config


@pytest.fixture(scope="module")
def n13_reports():
    """One moderate-load run of each setup at n=13 (shared: runs cost)."""
    reports = {}
    for setup in ("baseline", "gossip", "semantic"):
        reports[setup] = run_experiment(fast_config(
            setup=setup, n=13, rate=60, duration=1.2, drain=2.5, seed=3,
        ))
    return reports


def test_gossip_latency_overhead(n13_reports):
    """§4.3: gossip increases latency versus the Baseline."""
    assert (n13_reports["gossip"].avg_latency_s
            > 1.1 * n13_reports["baseline"].avg_latency_s)


def test_gossip_redundancy_factor(n13_reports):
    """§4.3: a regular gossip process receives a multiple of the messages
    the Baseline coordinator receives."""
    baseline_coord = n13_reports["baseline"].messages.received_coordinator
    gossip_regular = n13_reports["gossip"].messages.received_regular_mean
    assert gossip_regular > 1.5 * baseline_coord


def test_gossip_duplicate_fraction_about_half_for_n13(n13_reports):
    """§4.3: for n=13 around half the received messages are duplicates."""
    fraction = n13_reports["gossip"].messages.duplicate_fraction
    assert 0.35 <= fraction <= 0.8


def test_semantic_reduces_received_messages(n13_reports):
    """§4.3: semantic techniques cut the messages received via gossip."""
    assert (n13_reports["semantic"].messages.received_total
            < 0.9 * n13_reports["gossip"].messages.received_total)


def test_semantic_preserves_delivery(n13_reports):
    assert n13_reports["semantic"].not_ordered == 0
    assert n13_reports["gossip"].not_ordered == 0


def test_semantic_keeps_duplicate_redundancy(n13_reports):
    """§4.3: the inherent redundancy of gossip is preserved — duplicates
    drop only mildly under the semantic techniques."""
    gossip_dup = n13_reports["gossip"].messages.duplicate_fraction
    semantic_dup = n13_reports["semantic"].messages.duplicate_fraction
    assert semantic_dup > 0.5 * gossip_dup


def test_gossip_latency_less_geographically_dispersed(n13_reports):
    """§4.4: latency stddev is lower in gossip setups than in Baseline."""
    assert (n13_reports["gossip"].latency_stddev_s
            < n13_reports["baseline"].latency_stddev_s)


class _RecordingHooks(SemanticHooks):
    """Delegates to a node's hooks and records every payload filtered."""

    def __init__(self, inner, filtered):
        self.inner = inner
        self.filtered = filtered

    def validate(self, payload, peer_id):
        verdict = self.inner.validate(payload, peer_id)
        if not verdict:
            self.filtered.append(payload)
        return verdict

    def aggregate(self, payloads, peer_id):
        return self.inner.aggregate(payloads, peer_id)

    def disaggregate(self, payload):
        return self.inner.disaggregate(payload)


class _FilterRecorder:
    """A ``monitor=`` that wraps every node's hooks before the run starts.

    The wrap happens after the nodes are built, so the CPU charge for
    hooks (pinned at construction) and hence the run's timing is unmoved.
    """

    def __init__(self):
        self.filtered = []

    def attach(self, deployment):
        for node in deployment.nodes:
            node.hooks = _RecordingHooks(node.hooks, self.filtered)

    def finalize(self):
        pass


def test_semantic_filtering_only_affects_votes():
    """Decisions and proposals always propagate; only votes are cut — the
    2b votes of Paxos, the acks of Raft."""
    votes = {"paxos": (Phase2b, Aggregated2b),
             "raft": (AppendAck, AggregatedAck)}
    for protocol, vote_types in votes.items():
        recorder = _FilterRecorder()
        report = run_experiment(fast_config(
            setup="semantic", protocol=protocol, n=7, rate=40, seed=5,
        ), monitor=recorder)
        assert report.messages.filtered > 0, protocol
        assert len(recorder.filtered) == report.messages.filtered, protocol
        assert {type(p) for p in recorder.filtered} <= set(vote_types), protocol


def test_both_setups_reliable_under_10pct_loss():
    """§4.5: below 10% injected loss, every submitted value is ordered."""
    for setup in ("gossip", "semantic"):
        report = run_experiment(fast_config(
            setup=setup, n=13, rate=50, loss_rate=0.08,
            duration=1.0, drain=3.0, seed=2,
        ))
        assert report.not_ordered == 0, setup


def test_saturation_order_gossip_before_semantic():
    """§4.3: Semantic Gossip sustains higher workloads than Gossip."""
    high = 900
    gossip = run_experiment(fast_config(
        setup="gossip", n=13, rate=high, duration=0.8, drain=3.0))
    semantic = run_experiment(fast_config(
        setup="semantic", n=13, rate=high, duration=0.8, drain=3.0))
    assert semantic.avg_latency_s < gossip.avg_latency_s


def test_aggregation_savings_scale_with_load():
    """§3.2: aggregation is opportunistic — it exploits pending messages in
    the per-peer send queues. In this simulator, identical votes convoy
    along shared overlay paths, so savings track traffic volume (see
    EXPERIMENTS.md on the low-load deviation from the paper)."""
    low = run_experiment(fast_config(setup="semantic", n=13, rate=20,
                                     duration=1.0, drain=2.0))
    high = run_experiment(fast_config(setup="semantic", n=13, rate=600,
                                      duration=1.0, drain=3.0))
    assert high.messages.aggregated_saved > 5 * low.messages.aggregated_saved
    # Savings are a substantial share of vote traffic in both regimes.
    assert low.messages.aggregated_saved > 0


def test_filtering_only_and_aggregation_only_both_help():
    """Ablation sanity: each technique alone reduces traffic."""
    base = run_experiment(fast_config(setup="gossip", n=13, rate=200,
                                      duration=0.8, drain=2.5))
    filtering = run_experiment(fast_config(
        setup="semantic", n=13, rate=200, duration=0.8, drain=2.5,
        enable_aggregation=False))
    aggregation = run_experiment(fast_config(
        setup="semantic", n=13, rate=200, duration=0.8, drain=2.5,
        enable_filtering=False))
    assert filtering.messages.received_total < base.messages.received_total
    assert aggregation.messages.received_total < base.messages.received_total
