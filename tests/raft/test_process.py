"""Integration tests for RaftProcess over the in-memory loopback substrate."""

from repro.paxos.messages import Value
from repro.raft.process import RaftProcess
from tests.paxos.test_process import LoopbackNetwork


def build_cluster(sim, n=3, retransmit=None):
    network = LoopbackNetwork(sim)
    decided = [[] for _ in range(n)]
    processes = []
    for i in range(n):
        process = RaftProcess(
            sim, i, n, network.communicator(),
            retransmit_timeout=retransmit,
            on_deliver=lambda idx, val, i=i: decided[i].append(
                (idx, val.value_id)),
        )
        processes.append(process)
    network.processes = processes
    processes[0].start()
    return network, processes, decided


def _value(vid, client=0):
    return Value(vid, client, size_bytes=10)


def test_leader_elected_at_startup(sim):
    _, processes, _ = build_cluster(sim)
    sim.run(until=0.1)
    assert processes[0].is_leader
    assert all(not p.is_leader for p in processes[1:])


def test_single_value_committed_by_all(sim):
    _, processes, decided = build_cluster(sim)
    sim.run(until=0.1)
    processes[1].submit_value(_value("a"))
    sim.run(until=0.5)
    assert all(d == [(1, "a")] for d in decided)


def test_values_totally_ordered(sim):
    _, processes, decided = build_cluster(sim, n=5)
    sim.run(until=0.1)
    for index, vid in enumerate(("a", "b", "c", "d")):
        processes[index % 5].submit_value(_value(vid))
    sim.run(until=1.0)
    reference = decided[0]
    assert len(reference) == 4
    assert [i for i, _ in reference] == [1, 2, 3, 4]
    assert all(d == reference for d in decided)


def test_values_buffered_until_leadership(sim):
    _, processes, decided = build_cluster(sim)
    processes[0].submit_value(_value("early"))  # before election completes
    sim.run(until=0.5)
    assert decided[0] == [(1, "early")]


def test_followers_learn_from_ack_majority(sim):
    """With CommitNotice suppressed, ack counting still commits."""
    network, processes, decided = build_cluster(sim)
    sim.run(until=0.1)
    network.dropped_kinds.add("CommitNotice")
    processes[1].submit_value(_value("a"))
    sim.run(until=0.5)
    assert all(d == [(1, "a")] for d in decided)
    assert all(p.stats.decided_by_majority >= 1 for p in processes)


def test_lost_append_blocks_without_retransmit(sim):
    network, processes, decided = build_cluster(sim, retransmit=None)
    sim.run(until=0.1)
    network.dropped_kinds.add("AppendEntries")
    processes[1].submit_value(_value("lost"))
    sim.run(until=1.0)
    assert all(d == [] for d in decided)


def test_retransmission_recovers(sim):
    network, processes, decided = build_cluster(sim, retransmit=0.2)
    sim.run(until=0.1)
    network.dropped_kinds.add("AppendEntries")
    processes[1].submit_value(_value("lost"))
    sim.run(until=0.3)
    network.dropped_kinds.clear()
    sim.run(until=2.0)
    assert all(d == [(1, "lost")] for d in decided)


def test_gap_blocks_delivery_until_filled(sim):
    network, processes, decided = build_cluster(sim, retransmit=0.3)
    sim.run(until=0.1)
    network.dropped_kinds.add("AppendEntries")
    processes[1].submit_value(_value("first"))
    sim.run(until=0.2)
    network.dropped_kinds.clear()
    processes[2].submit_value(_value("second"))
    sim.run(until=0.25)
    assert all(d == [] for d in decided)
    sim.run(until=2.0)
    assert all(d == [(1, "first"), (2, "second")] for d in decided)


def test_duplicate_value_not_replicated_twice(sim):
    _, processes, decided = build_cluster(sim)
    sim.run(until=0.1)
    value = _value("a")
    processes[0].submit_value(value)
    processes[0].submit_value(value)
    sim.run(until=0.5)
    assert decided[0] == [(1, "a")]


def test_duplicate_acks_not_double_counted(sim):
    _, processes, _ = build_cluster(sim)
    sim.run(until=0.1)
    processes[1].submit_value(_value("a"))
    sim.run(until=0.5)
    # Commit index advanced exactly to 1 everywhere.
    assert all(p.log.commit_index == 1 for p in processes)


def test_vote_not_granted_twice_in_a_term(sim):
    _, processes, _ = build_cluster(sim)
    sim.run(until=0.1)
    follower = processes[1]
    assert follower.voted_for[1] == 0
    from repro.raft.messages import RequestVote

    follower.handle(RequestVote(1, candidate=2))
    assert follower.voted_for[1] == 0  # still the original vote


def test_stale_term_messages_ignored(sim):
    _, processes, _ = build_cluster(sim)
    sim.run(until=0.1)
    from repro.raft.messages import AppendEntries, LogEntry

    follower = processes[1]
    follower.current_term = 5
    stale = AppendEntries(1, 0, 0, 0, LogEntry(1, 1, _value("x")), 0)
    before = dict(follower.log.entries)
    follower.handle(stale)
    assert follower.log.entries == before
