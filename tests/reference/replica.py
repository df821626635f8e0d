"""The Paxos replica in Python: the executable reference of the compiled one.

:class:`Acceptor`, :class:`Learner` and :class:`DecisionLog` are the
roles as they were written in Python, and :class:`ReferenceProcess` is
``PaxosProcess`` with them and with its Python ``handle`` and
``_on_decided``; it borrows every other method (the coordinator's side,
takeover, step-down, obs) from :class:`repro.paxos.process.PaxosProcess`.
The compiled kernel holds the roles (``repro/sim/_kernel/replica.c``)
and the handle (``PaxosCore``, ``core.c``);
tests/properties/test_replica_lockstep.py holds the two to each other. The one addition: a Phase 2b vote from a sender outside
``[0, n)`` raises ``ValueError``, as the compiled learner's bitset needs.
"""

from repro.paxos.coordinator import Coordinator
from repro.paxos.messages import (
    ClientValue,
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
)
from repro.paxos.process import ConsensusProcess, PaxosProcess


class Acceptor:
    """Promise/accept state machine of one process."""

    __slots__ = ("process_id", "promised_round", "accepted", "_forgotten")

    def __init__(self, process_id):
        self.process_id = process_id
        self.promised_round = 0
        #: instance -> (round, value) of the last accepted proposal.
        self.accepted = {}
        self._forgotten = 0  # watermark: instances <= this were compacted

    def on_phase1a(self, msg):
        """Handle a ranged Phase 1a; returns a Phase1b or None.

        The promise is granted when the round is higher than any promised
        or accepted before; the reply reports accepted values in instances
        >= ``msg.from_instance`` so the coordinator can re-propose them.
        """
        if msg.round <= self.promised_round:
            return None
        self.promised_round = msg.round
        accepted = [
            (instance, round_, value)
            for instance, (round_, value) in sorted(self.accepted.items())
            if instance >= msg.from_instance
        ]
        return Phase1b(msg.round, self.process_id, accepted)

    def on_phase2a(self, msg, attempt=0):
        """Handle a Phase 2a; returns a Phase2b vote or None.

        The proposal is accepted unless the acceptor promised a higher
        round. Accepting also raises the promise to the proposal's round,
        per the classic algorithm.
        """
        if msg.round < self.promised_round:
            return None
        self.promised_round = msg.round
        self.accepted[msg.instance] = (msg.round, msg.value)
        return Phase2b(
            msg.instance, msg.round, msg.value.value_id, self.process_id, attempt
        )

    def forget_up_to(self, instance):
        """Compact state for decided instances <= ``instance``."""
        if instance <= self._forgotten:
            return
        for i in range(self._forgotten + 1, instance + 1):
            self.accepted.pop(i, None)
        self._forgotten = instance


class _InstanceState:
    __slots__ = ("votes", "values", "decided_value_id")

    def __init__(self):
        #: (round, value_id) -> voter bitmask (bit i for process i).
        self.votes = {}
        #: value_id -> Value, learned from Phase 2a / Decision messages.
        self.values = {}
        self.decided_value_id = None


class Learner:
    """Per-process decision tracker across all instances."""

    __slots__ = ("n", "majority", "_instances", "decided", "decided_by_majority",
                 "decided_by_message", "_forgotten", "on_quorum")

    def __init__(self, n):
        self.n = n
        self.majority = n // 2 + 1
        self._instances = {}
        #: instance -> Value, every decision this process learned.
        self.decided = {}
        self.decided_by_majority = 0   # learned from majority of 2b votes
        self.decided_by_message = 0    # learned from a Decision message
        self._forgotten = 0
        #: Optional ``on_quorum(instance, value_id)`` observer fired when a
        #: Phase 2b majority first forms here (repro.obs); None when unset.
        self.on_quorum = None

    def _state(self, instance):
        state = self._instances.get(instance)
        if state is None:
            state = _InstanceState()
            self._instances[instance] = state
        return state

    def is_decided(self, instance):
        return instance in self.decided

    def on_phase2a(self, msg):
        """Record the value content; may complete a pending majority.

        Returns the newly decided ``(instance, value)`` or None.
        """
        if msg.instance in self.decided or msg.instance <= self._forgotten:
            return None
        state = self._state(msg.instance)
        state.values[msg.value.value_id] = msg.value
        if state.decided_value_id == msg.value.value_id:
            return self._finalize(msg.instance, state, by_majority=True)
        return None

    def on_phase2b(self, msg):
        """Count a vote; returns newly decided ``(instance, value)`` or None."""
        if not 0 <= msg.sender < self.n:
            raise ValueError(
                "Phase 2b sender must be a process id in [0, {}), got {!r}"
                .format(self.n, msg.sender))
        if msg.instance in self.decided or msg.instance <= self._forgotten:
            return None
        state = self._state(msg.instance)
        key = (msg.round, msg.value_id)
        voters = state.votes.get(key, 0) | (1 << msg.sender)
        state.votes[key] = voters
        if voters.bit_count() >= self.majority and state.decided_value_id is None:
            state.decided_value_id = msg.value_id
            if self.on_quorum is not None:
                self.on_quorum(msg.instance, msg.value_id)
            if msg.value_id in state.values:
                return self._finalize(msg.instance, state, by_majority=True)
        return None

    def on_decision(self, msg):
        """Record a Decision message; returns ``(instance, value)`` or None."""
        if msg.instance in self.decided or msg.instance <= self._forgotten:
            return None
        state = self._state(msg.instance)
        state.values[msg.value.value_id] = msg.value
        state.decided_value_id = msg.value.value_id
        return self._finalize(msg.instance, state, by_majority=False)

    def _finalize(self, instance, state, by_majority):
        value = state.values[state.decided_value_id]
        self.decided[instance] = value
        if by_majority:
            self.decided_by_majority += 1
        else:
            self.decided_by_message += 1
        del self._instances[instance]
        return (instance, value)

    def forget_up_to(self, instance):
        """Compact vote state for instances <= ``instance``."""
        if instance <= self._forgotten:
            return
        for i in range(self._forgotten + 1, instance + 1):
            self._instances.pop(i, None)
        self._forgotten = instance


class DecisionLog:
    """Orders decided values for delivery to the replicated state machine."""

    __slots__ = ("next_instance", "_pending", "delivered_count")

    def __init__(self, first_instance=1):
        self.next_instance = first_instance
        self._pending = {}
        self.delivered_count = 0

    def add(self, instance, value):
        """Record a decision; idempotent for already-delivered instances."""
        if instance < self.next_instance:
            return
        self._pending.setdefault(instance, value)

    def pop_ready(self):
        """Return the list of (instance, value) now deliverable in order."""
        ready = []
        while self.next_instance in self._pending:
            value = self._pending.pop(self.next_instance)
            ready.append((self.next_instance, value))
            self.next_instance += 1
        self.delivered_count += len(ready)
        return ready

    @property
    def gap_blocked(self):
        """Number of decided-but-undeliverable instances (behind a gap)."""
        return len(self._pending)


class ReferenceProcess(ConsensusProcess):
    """``PaxosProcess`` with the Python roles, ``handle`` and ``_on_decided``."""

    def __init__(self, sim, process_id, n, comm, coordinator_id=0,
                 retransmit_timeout=None, on_deliver=None):
        """
        Parameters
        ----------
        comm:
            The :class:`Communicator` binding to the substrate.
        retransmit_timeout, on_deliver:
            See :class:`ConsensusProcess`; here the coordinator re-issues
            pending Phase 1a/2a messages.

        The process never elects itself: a backup becomes coordinator only
        when the membership layer's election calls :meth:`take_over`.
        """
        super().__init__(sim, "paxos-{}".format(process_id), process_id, n,
                         comm, retransmit_timeout, on_deliver)
        self.is_coordinator = process_id == coordinator_id
        self.acceptor = Acceptor(process_id)
        self.learner = Learner(n)
        self.log = DecisionLog()
        self.coordinator = (
            Coordinator(process_id, n, comm) if self.is_coordinator else None
        )
        self.takeovers = 0
        self._max_seen_round = 1
        #: in-flight client values observed via gossip (election only):
        #: re-proposed by a takeover coordinator so they are not lost.
        self._seen_values = {}
        self._decided_value_ids = set()
        #: Whether to track in-flight values for re-proposal; switched on
        #: by the membership layer's election.
        self._track_values = False
        #: Whether the current coordinator role was assumed by takeover or
        #: election (its retransmissions count as election-triggered).
        self._election_born = False

    # -- message handling ----------------------------------------------------

    def handle(self, payload):
        """Entry point for every message delivered by the substrate."""
        if not self.alive:
            return
        self.stats.messages_handled += 1
        kind = type(payload)
        if kind is Phase2b:
            if payload.round > self._max_seen_round:
                self._max_seen_round = payload.round
            decided = self.learner.on_phase2b(payload)
            if decided is not None:
                self._on_decided(decided)
        elif kind is Phase2a:
            if payload.round > self._max_seen_round:
                self._max_seen_round = payload.round
            vote = self.acceptor.on_phase2a(payload, attempt=payload.uid[3])
            if vote is not None:
                self.comm.phase2b(vote)
            decided = self.learner.on_phase2a(payload)
            if decided is not None:
                self._on_decided(decided)
        elif kind is Decision:
            decided = self.learner.on_decision(payload)
            if decided is not None:
                self._on_decided(decided)
        elif kind is ClientValue:
            if self._track_values:
                value = payload.value
                if value.value_id not in self._decided_value_ids:
                    self._seen_values[value.value_id] = value
            if self.coordinator is not None:
                self.coordinator.on_client_value(payload.value, self.now)
        elif kind is Phase1a:
            if payload.round > self._max_seen_round:
                self._max_seen_round = payload.round
            promise = self.acceptor.on_phase1a(payload)
            if promise is not None:
                self.comm.to_coordinator(promise)
        elif kind is Phase1b:
            if self.coordinator is not None:
                self.coordinator.on_phase1b(payload, self.now)

    # -- decisions ------------------------------------------------------------

    def _on_decided(self, decided):
        instance, value = decided
        if self.obs is not None:
            self.obs.value_decided(self.process_id, instance, value.value_id)
        if self.coordinator is not None:
            # Inform all processes (paper §2.3); filtering turns this into
            # the message that obsoletes the instance's Phase 2b traffic.
            self.coordinator.on_decided(instance)
            self.comm.broadcast(Decision(instance, self.learner_round(), value))
        self.log.add(instance, value)
        ready = self.log.pop_ready()
        if ready:
            self.stats.decisions_delivered += len(ready)
            watermark = ready[-1][0]
            self.acceptor.forget_up_to(watermark)
            self.learner.forget_up_to(watermark)
            if self._track_values:
                for _, ready_value in ready:
                    self._decided_value_ids.add(ready_value.value_id)
                    self._seen_values.pop(ready_value.value_id, None)
            if self.on_deliver is not None:
                for ready_instance, ready_value in ready:
                    self.on_deliver(ready_instance, ready_value)


for _name in ("enable_value_tracking", "start", "stop", "leads", "step_down",
              "install_obs", "decision_modes", "decided_values",
              "submit_value", "learner_round", "_check_timeouts",
              "take_over"):
    setattr(ReferenceProcess, _name, vars(PaxosProcess)[_name])
