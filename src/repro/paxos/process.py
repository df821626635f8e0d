"""A full Paxos process: proposer + acceptor + learner (+ coordinator).

The process receives messages through :meth:`handle` — wired either to the
gossip layer's delivery queue or to direct links — and sends through a
:class:`Communicator`, the only point of contact with the substrate:

* ``broadcast`` — one-to-many (Phase 1a/2a, Decision);
* ``to_coordinator`` — many-to-one (Phase 1b, client value forwarding);
* ``phase2b`` — votes; the Baseline setup routes them to the coordinator
  only (classic three-phase Paxos), the gossip setups broadcast them so
  every process can learn decisions from a majority of votes (paper §3.1).

:class:`ConsensusProcess` is the other side of that seam — what the runtime
may ask of a process — and the base of the Paxos, S-Paxos and Raft classes.
"""

from repro.sim.actors import Actor
from repro.paxos.acceptor import Acceptor
from repro.paxos.coordinator import Coordinator
from repro.paxos.learner import Learner
from repro.paxos.log import DecisionLog
from repro.paxos.messages import (
    ClientValue,
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
)


class Communicator:
    """Substrate interface; see the runtime for concrete bindings."""

    def broadcast(self, payload):
        raise NotImplementedError

    def to_coordinator(self, payload):
        raise NotImplementedError

    def phase2b(self, payload):
        """Route a Phase 2b vote; defaults to broadcast."""
        self.broadcast(payload)


class ProcessStats:
    """Per-process consensus-level counters, one field set for every protocol."""

    __slots__ = ("values_submitted", "values_forwarded", "decisions_delivered",
                 "messages_handled", "decided_by_majority",
                 "decided_by_message", "retransmissions", "elections",
                 "election_retransmissions", "election_reproposals")

    def __init__(self):
        self.values_submitted = 0
        self.values_forwarded = 0
        self.decisions_delivered = 0
        self.messages_handled = 0
        #: Raft commits learned from an ack majority / the leader's notice;
        #: the Paxos learner role keeps its own pair — read either through
        #: :meth:`ConsensusProcess.decision_modes`.
        self.decided_by_majority = 0
        self.decided_by_message = 0
        #: Messages re-issued on timeout, counted when issued so the total
        #: survives the coordinator object a ``step_down()`` discards.
        self.retransmissions = 0
        #: New-term elections this process started (Raft).
        self.elections = 0
        #: Retransmissions issued by a coordinator born from takeover or
        #: election — attributed separately from loss-triggered ones.
        self.election_retransmissions = 0
        #: In-flight values re-proposed by a takeover/elected coordinator.
        self.election_reproposals = 0


class ConsensusProcess(Actor):
    """What the runtime may ask of a protocol process, whatever the protocol.

    The other side of the :class:`Communicator` seam: the substrate calls
    :meth:`handle`, the co-located client :meth:`submit_value`, and the
    runtime (fault engine, membership, monitors, obs, metrics) uses
    only the attributes set here and the verbs and views declared below.
    """

    def __init__(self, sim, name, process_id, n, comm, retransmit_timeout,
                 on_deliver):
        super().__init__(sim, name)
        self.process_id = process_id
        self.n = n
        self.majority = n // 2 + 1
        self.comm = comm
        #: Seconds before pending work is re-issued; ``None`` disables
        #: retransmission (paper §4.5 setting).
        self.retransmit_timeout = retransmit_timeout
        #: ``on_deliver(instance, value)``, invoked for every decided value
        #: in instance order, gap-free; installed through :meth:`deliver_to`.
        self.on_deliver = None
        self.stats = ProcessStats()
        #: Tracer installed by ``obs=`` (repro.obs); None in untraced runs.
        self.obs = None
        self.alive = True
        self._retransmit_timer = None
        self.deliver_to(on_deliver)

    # -- lifecycle ------------------------------------------------------------

    def crash(self):
        """Cease participating. Acceptor/learner/log state persists — the
        crash-recovery model assumes stable storage (paper §2.1)."""
        self.alive = False

    def recover(self):
        self.alive = True

    def _start_retransmit_timer(self):
        if self.retransmit_timeout is not None and self._retransmit_timer is None:
            self._retransmit_timer = self.every(
                self.retransmit_timeout / 2.0, self._check_timeouts)

    def _stop_retransmit_timer(self):
        if self._retransmit_timer is not None:
            self._retransmit_timer.stop()
            self._retransmit_timer = None

    # -- leadership -----------------------------------------------------------

    @property
    def leads(self):
        """Whether this process currently proposes (or stands to)."""
        raise NotImplementedError

    def take_over(self):
        """Assume leadership in a fresh round/term; True when started."""
        raise NotImplementedError

    def step_down(self):
        """Renounce any leading role (a rejoin under an elected successor)."""
        raise NotImplementedError

    def enable_value_tracking(self):
        """Track in-flight values so an elected successor can re-propose."""

    # -- delivery and views ---------------------------------------------------

    def deliver_to(self, callback):
        """Install the state-machine delivery callback; returns the one it
        replaces, so an observer can chain in front of the client's."""
        previous = self.on_deliver
        self.on_deliver = callback
        return previous

    def install_obs(self, tracer):
        """Arm the tracer on this process and the roles it hosts."""
        self.obs = tracer

    def decision_modes(self):
        """``(decided_by_majority, decided_by_message)`` counts."""
        return self.stats.decided_by_majority, self.stats.decided_by_message

    def decided_values(self):
        """instance -> Value of every decision this process knows."""
        raise NotImplementedError


class PaxosProcess(ConsensusProcess):
    """One Paxos participant playing all roles."""

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

    def enable_value_tracking(self):
        self._track_values = True

    def start(self):
        """Begin operation; the coordinator launches Phase 1."""
        if self.coordinator is not None:
            self.coordinator.start(self.now)
            self._start_retransmit_timer()

    def stop(self):
        self._stop_retransmit_timer()

    @property
    def leads(self):
        return self.coordinator is not None

    def step_down(self):
        """Abdicate the coordinator role (membership rejoin under an
        elected successor).

        A stale competing coordinator would be *safe* — rounds are unique
        per process — but every proposal it re-issues in its outdated round
        is rejected by acceptors promised to the successor, so it would
        retransmit forever. Pending proposals are abandoned: the successor
        re-proposed every in-flight value it observed at takeover.
        """
        if self.coordinator is None:
            return
        self.is_coordinator = False
        self._election_born = False
        self.coordinator = None
        self._stop_retransmit_timer()

    def install_obs(self, tracer):
        """The live coordinator and the learner's quorum callback too."""
        self.obs = tracer
        if self.coordinator is not None:
            self.coordinator.obs = tracer
        process_id = self.process_id

        def on_quorum(instance, value_id):
            tracer.value_quorum(process_id, instance, value_id)

        self.learner.on_quorum = on_quorum

    def decision_modes(self):
        learner = self.learner
        return learner.decided_by_majority, learner.decided_by_message

    def decided_values(self):
        return self.learner.decided

    # -- client side --------------------------------------------------------

    def submit_value(self, value):
        """Accept a value from a co-located client (paper §4.2 client path)."""
        if not self.alive:
            return  # values sent to a crashed process are lost
        self.stats.values_submitted += 1
        if self.coordinator is not None:
            self.coordinator.on_client_value(value, self.now)
            return
        self.stats.values_forwarded += 1
        self.comm.to_coordinator(ClientValue(value, self.process_id))

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

    def learner_round(self):
        """Round tag used on Decision messages."""
        return self.coordinator.round if self.coordinator is not None else 0

    def _check_timeouts(self):
        if not self.alive:
            return
        if self.coordinator is not None and self.retransmit_timeout is not None:
            before = self.coordinator.retransmissions
            self.coordinator.check_timeouts(self.now, self.retransmit_timeout)
            issued = self.coordinator.retransmissions - before
            self.stats.retransmissions += issued
            if self._election_born:
                self.stats.election_retransmissions += issued

    # -- coordinator takeover ----------------------------------------------------

    def take_over(self):
        """Assume the coordinator role in a fresh, higher round.

        Invoked by the membership layer's heartbeat-driven election.
        Returns True when the role was assumed; False when this process is
        dead or already coordinating. Concurrent takeovers are safe
        regardless — rounds are unique per process and Paxos tolerates
        competing coordinators (paper §2.3).
        """
        if not self.alive or self.coordinator is not None:
            return False
        self.takeovers += 1
        self.is_coordinator = True
        self._election_born = True
        generation = (self._max_seen_round - 1) // self.n + 1
        round_ = generation * self.n + self.process_id + 1
        self.coordinator = Coordinator(
            self.process_id, self.n, self.comm,
            first_instance=self.log.next_instance, round_=round_,
            obs=self.obs,
        )
        if self.obs is not None:
            self.obs.round_event("takeover", process=self.process_id,
                                 round=round_)
        self.coordinator.start(self.now)
        self._start_retransmit_timer()
        # Re-propose in-flight values observed before the takeover so they
        # are not lost with the old coordinator. A value that was in fact
        # already decided in an instance this process has not learned yet
        # may be proposed again — the classic at-least-once duplicate the
        # replicated state machine deduplicates by value id.
        self.stats.election_reproposals += len(self._seen_values)
        for value in list(self._seen_values.values()):
            self.coordinator.on_client_value(value, self.now)
        return True
