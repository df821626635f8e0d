"""A Raft process over a pluggable communication substrate.

Shares :class:`repro.paxos.process.ConsensusProcess` with the Paxos
processes: the same :class:`repro.paxos.process.Communicator` interface
binds it to direct links or to gossip, the same client path applies (values
forwarded to the leader, decisions delivered gap-free in order), and the
same metrics flow out. Process 0 stands for election at startup (term 1),
the analogue of the Paxos coordinator's ranged Phase 1.

Commit learning matches the paper's §3.1 observation for Phase 2b: acks
are broadcast in the gossip setups, so every process counts them and
learns commits from a majority without waiting for the leader's
CommitNotice; the Baseline setup routes acks to the leader only, and
followers commit on the leader's notice.
"""

from collections import deque

from repro.raft.log import RaftLog
from repro.raft.messages import (
    AppendAck,
    AppendEntries,
    CommitNotice,
    LogEntry,
    RequestVote,
    VoteReply,
)
from repro.paxos.messages import ClientValue
from repro.paxos.process import ConsensusProcess


class _PendingReplication:
    __slots__ = ("entry", "proposed_at", "attempt")

    def __init__(self, entry, proposed_at):
        self.entry = entry
        self.proposed_at = proposed_at
        self.attempt = 0


class RaftProcess(ConsensusProcess):
    """One Raft participant (candidate/leader/follower as events dictate)."""

    def __init__(self, sim, process_id, n, comm, leader_id=0,
                 retransmit_timeout=None, on_deliver=None):
        super().__init__(sim, "raft-{}".format(process_id), process_id, n,
                         comm, retransmit_timeout, on_deliver)
        self.is_leader_candidate = process_id == leader_id
        self.current_term = 0
        self.voted_for = {}          # term -> candidate granted
        self.is_leader = False
        self.log = RaftLog()
        self._votes = set()
        self._pending_values = deque()
        self._known_value_ids = set()
        self._replicating = {}       # index -> _PendingReplication
        self._ack_senders = {}       # (term, index) -> sender bitmask
        self._next_index = 1
        # Leader-side per-follower progress (Raft's matchIndex, derived
        # from the per-sender acks): contiguous acked index + buffer.
        self._follower_contig = {}
        self._follower_pending = {}
        self._repair_attempts = {}   # index -> attempt counter
        self._last_repair = {}       # follower -> last repair time

    # -- startup election ----------------------------------------------------

    def start(self):
        """The designated candidate solicits votes for term 1."""
        if self.is_leader_candidate:
            self.current_term = 1
            self.voted_for[1] = self.process_id
            self._votes = {self.process_id}
            self.comm.broadcast(RequestVote(1, self.process_id))
            self._start_retransmit_timer()

    def take_over(self):
        """Stand for a fresh term (the membership layer's re-election path).

        Bumps the term, votes for self and solicits votes carrying the
        log's last (index, term) so stale candidates are refused. Returns
        True when the election was started (False while crashed).
        """
        if not self.alive:
            return False
        self.stats.elections += 1
        self.current_term += 1
        term = self.current_term
        if self.obs is not None:
            self.obs.round_event("election", candidate=self.process_id,
                                 term=term)
        self.is_leader_candidate = True
        self.is_leader = False
        self.voted_for[term] = self.process_id
        self._votes = {self.process_id}
        last_index = self.log.last_index
        self.comm.broadcast(RequestVote(
            term, self.process_id, last_index, self.log.term_of(last_index)))
        self._start_retransmit_timer()
        return True

    def step_down(self):
        """Renounce any leader/candidate role (higher term, or a rejoin)."""
        self.is_leader = False
        self.is_leader_candidate = False
        self._votes = set()

    @property
    def leads(self):
        return self.is_leader or self.is_leader_candidate

    def decided_values(self):
        """The committed log prefix, as far as this process stores it."""
        commit_index = self.log.commit_index
        return {index: entry.value
                for index, entry in self.log.entries.items()
                if index <= commit_index}

    # -- client path -----------------------------------------------------------

    def submit_value(self, value):
        if not self.alive:
            return  # values sent to a crashed process are lost
        self.stats.values_submitted += 1
        if self.is_leader or self.is_leader_candidate:
            self._on_client_value(value)
            return
        self.stats.values_forwarded += 1
        self.comm.to_coordinator(ClientValue(value, self.process_id))

    def _on_client_value(self, value):
        if value.value_id in self._known_value_ids:
            return
        self._known_value_ids.add(value.value_id)
        if not self.is_leader:
            self._pending_values.append(value)
            return
        self._replicate(value)

    def _replicate(self, value):
        index = self._next_index
        self._next_index += 1
        entry = LogEntry(self.current_term, index, value)
        self._replicating[index] = _PendingReplication(entry, self.now)
        if self.obs is not None:
            self.obs.value_proposed(value.value_id, index, self.current_term,
                                    self.process_id)
        self._append_local_and_broadcast(entry, attempt=0)

    def _append_local_and_broadcast(self, entry, attempt):
        prev_index = entry.index - 1
        message = AppendEntries(
            self.current_term, self.process_id, prev_index,
            self.log.term_of(prev_index), entry, self.log.commit_index,
            attempt,
        )
        # The leader stores its own entry and acknowledges it like any
        # follower (the Paxos coordinator's own Phase 2b, analogously).
        for index in self.log.store(entry):
            self.comm.phase2b(
                AppendAck(self.current_term, index, self.process_id, attempt))
            self._count_ack(self.current_term, index, self.process_id)
        self.comm.broadcast(message)

    # -- message handling ---------------------------------------------------------

    def handle(self, payload):
        if not self.alive:
            return
        self.stats.messages_handled += 1
        kind = type(payload)
        if kind is AppendAck:
            self._count_ack(payload.term, payload.index, payload.sender)
        elif kind is AppendEntries:
            self._on_append_entries(payload)
        elif kind is CommitNotice:
            if self.log.advance_commit(payload.index):
                self.stats.decided_by_message += 1
                self._deliver_ready()
        elif kind is ClientValue:
            if self.is_leader or self.is_leader_candidate:
                self._on_client_value(payload.value)
        elif kind is RequestVote:
            self._on_request_vote(payload)
        elif kind is VoteReply:
            self._on_vote_reply(payload)

    def _on_request_vote(self, msg):
        if msg.term < self.current_term:
            return
        if msg.term > self.current_term:
            self.current_term = msg.term
            self.step_down()
        if msg.term > 1:
            # Log up-to-dateness guard (Raft §5.4.1), applied to the
            # membership layer's re-elections; the startup election (term 1)
            # precedes all log activity, so the legacy unguarded behaviour
            # is preserved for fixed-membership runs.
            last_index = self.log.last_index
            if ((msg.last_log_term, msg.last_log_index)
                    < (self.log.term_of(last_index), last_index)):
                return
        already = self.voted_for.get(msg.term)
        if already is not None and already != msg.candidate:
            return
        self.voted_for[msg.term] = msg.candidate
        self.comm.to_coordinator(
            VoteReply(msg.term, self.process_id, granted=True))

    def _on_vote_reply(self, msg):
        if (not self.is_leader_candidate or self.is_leader
                or msg.term != self.current_term or not msg.granted):
            return
        self._votes.add(msg.voter)
        if len(self._votes) >= self.majority:
            self.is_leader = True
            if self.obs is not None:
                self.obs.round_event("leader_elected",
                                     leader=self.process_id,
                                     term=self.current_term)
            self._next_index = self.log.last_index + 1
            # Track progress for every process, including ones that never
            # manage to ack (they may have missed the very first entry).
            for follower in range(self.n):
                self._follower_contig.setdefault(follower, 0)
            if self.current_term > 1:
                self._readopt_uncommitted()
            while self._pending_values:
                self._replicate(self._pending_values.popleft())

    def _readopt_uncommitted(self):
        """Re-flood stored-but-uncommitted entries under the new term.

        A freshly elected leader finishes its predecessor's in-flight
        entries: each is re-broadcast with a fresh attempt tag (so gossip
        dedup floods it again) and re-acked under the new term, letting a
        new-term quorum form. Counted as election retransmissions.
        """
        for index in range(self.log.commit_index + 1, self.log.last_index + 1):
            if not self.log.has(index):
                break
            entry = self.log.entries[index]
            attempt = self._next_ae_attempt(index)
            self.stats.retransmissions += 1
            self.stats.election_retransmissions += 1
            if index not in self._replicating:
                self._replicating[index] = _PendingReplication(entry, self.now)
            self.comm.phase2b(AppendAck(
                self.current_term, index, self.process_id, attempt))
            self._count_ack(self.current_term, index, self.process_id)
            self.comm.broadcast(AppendEntries(
                self.current_term, self.process_id, index - 1,
                self.log.term_of(index - 1), entry, self.log.commit_index,
                attempt,
            ))

    def _on_append_entries(self, msg):
        if msg.term < self.current_term:
            return
        if msg.term > self.current_term:
            self.current_term = msg.term
            self.step_down()
        uid_attempt = msg.uid[3]
        stored = self.log.store(msg.entry)
        for index in stored:
            # Ack each newly contiguous entry (includes buffered ones).
            ack = AppendAck(msg.term, index, self.process_id, uid_attempt)
            self.comm.phase2b(ack)
            self._count_ack(msg.term, index, self.process_id)
        if (not stored and msg.term > 1
                and msg.entry.index > self.log.commit_index
                and self.log.has(msg.entry.index)):
            # A new-term leader re-flooding an entry this process already
            # stored in an earlier term: re-ack under the new term so the
            # new-term quorum can form (gated past term 1, keeping the
            # fixed-membership single-term runs byte-identical).
            ack = AppendAck(msg.term, msg.entry.index, self.process_id,
                            uid_attempt)
            self.comm.phase2b(ack)
            self._count_ack(msg.term, msg.entry.index, self.process_id)
        if self.log.advance_commit(msg.leader_commit):
            self.stats.decided_by_message += 1
        self._deliver_ready()

    # -- commit accounting -----------------------------------------------------------

    def _count_ack(self, term, index, sender):
        self._track_follower_progress(index, sender)
        if index <= self.log.commit_index:
            return
        key = (term, index)
        acked = self._ack_senders.get(key, 0) | (1 << sender)
        self._ack_senders[key] = acked
        if acked.bit_count() >= self.majority:
            if self.obs is not None and self.log.has(index):
                self.obs.value_quorum(
                    self.process_id, index,
                    self.log.entries[index].value.value_id)
            if self.log.advance_commit(index):
                self.stats.decided_by_majority += 1
                if self.is_leader:
                    self.comm.broadcast(CommitNotice(term, index))
                self._deliver_ready()

    def _deliver_ready(self):
        ready = self.log.pop_deliverable()
        if not ready:
            return
        self.stats.decisions_delivered += len(ready)
        for entry in ready:
            self._replicating.pop(entry.index, None)
            self._ack_senders.pop((entry.term, entry.index), None)
            if self.obs is not None:
                self.obs.value_decided(self.process_id, entry.index,
                                       entry.value.value_id)
        if self.on_deliver is not None:
            for entry in ready:
                self.on_deliver(entry.index, entry.value)

    # -- retransmission (optional, as in the Paxos deployment) -------------

    def _track_follower_progress(self, index, sender):
        """Advance the leader's view of a follower's contiguous acks."""
        if not self.is_leader_candidate:
            return
        contig = self._follower_contig.get(sender, 0)
        if index <= contig:
            return
        pending = self._follower_pending.setdefault(sender, set())
        pending.add(index)
        while (contig + 1) in pending:
            contig += 1
            pending.remove(contig)
        self._follower_contig[sender] = contig

    def _check_timeouts(self):
        if not self.alive or not self.is_leader \
                or self.retransmit_timeout is None:
            return
        now = self.now
        # Uncommitted entries: re-flood until a majority acknowledges.
        for index, pending in list(self._replicating.items()):
            if index <= self.log.commit_index:
                self._replicating.pop(index, None)
                continue
            if now - pending.proposed_at >= self.retransmit_timeout:
                pending.proposed_at = now
                pending.attempt += 1
                self.stats.retransmissions += 1
                self._append_local_and_broadcast(pending.entry,
                                                 pending.attempt)
        # Lagging followers: re-flood a window of entries from the first
        # one each misses (Raft's nextIndex repair, adapted to broadcast
        # dissemination). Attempts are capped per (follower, index): the
        # semantic filter drops acks for already-committed indices, so the
        # leader's progress view can stay stale after a successful repair
        # — an interplay documented in EXPERIMENTS.md.
        for follower, contig in self._follower_contig.items():
            if follower == self.process_id or contig >= self.log.commit_index:
                continue
            if now - self._last_repair.get(follower, 0.0) \
                    < self.retransmit_timeout:
                continue
            if self._repair_attempts.get((follower, contig), 0) \
                    >= self.MAX_REPAIR_ATTEMPTS:
                continue
            self._last_repair[follower] = now
            self._repair_attempts[(follower, contig)] = (
                self._repair_attempts.get((follower, contig), 0) + 1)
            for missing in range(contig + 1,
                                 min(contig + 1 + self.REPAIR_WINDOW,
                                     self.log.commit_index + 1)):
                if not self.log.has(missing):
                    break
                attempt = self._next_ae_attempt(missing)
                self.stats.retransmissions += 1
                entry = self.log.entries[missing]
                self.comm.broadcast(AppendEntries(
                    self.current_term, self.process_id, missing - 1,
                    self.log.term_of(missing - 1), entry,
                    self.log.commit_index, attempt,
                ))

    #: Entries re-flooded per repair round, and rounds per stuck position.
    REPAIR_WINDOW = 16
    MAX_REPAIR_ATTEMPTS = 3

    def _next_ae_attempt(self, index):
        """Fresh attempt tag so gossip dedup re-floods the AppendEntries.

        Offset past the replication-path attempts so repair uids never
        collide with retransmission uids for the same index.
        """
        attempt = self._repair_attempts.get(("ae", index), 1000) + 1
        self._repair_attempts[("ae", index)] = attempt
        return attempt
