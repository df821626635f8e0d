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
from repro.sim.events import compiled
from repro.paxos.coordinator import Coordinator
from repro.paxos.messages import (
    HEADER_BYTES,
    ClientValue,
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Value,
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


compiled.register_replica(ProcessStats, Value, ClientValue, Phase1a, Phase1b,
                          Phase2a, Phase2b, Decision, HEADER_BYTES)


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


class PaxosProcess(compiled.PaxosCore, ConsensusProcess):
    """One Paxos participant playing all roles.

    The C base (``repro/sim/_kernel/core.c``) holds the acceptor, the learner
    and the decision log, and runs :meth:`handle`: message dispatch, the
    roles, and what follows a decision (tracing, the coordinator's
    Decision broadcast, gap-free delivery to ``on_deliver`` and the
    roles' compaction). It calls back into Python for the coordinator,
    ``comm``, ``obs`` and ``on_deliver``. The coordinator's side and
    takeover stay here.
    """

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
        ConsensusProcess.__init__(
            self, sim, "paxos-{}".format(process_id), process_id, n, comm,
            retransmit_timeout, on_deliver)
        # The acceptor, learner and log; _max_seen_round = 1; and the
        # in-flight client values observed via gossip (_seen_values, less
        # _decided_value_ids), tracked for re-proposal by a takeover
        # coordinator once the membership layer's election switches
        # _track_values on.
        compiled.PaxosCore.__init__(self, process_id, n)
        self.is_coordinator = process_id == coordinator_id
        self.coordinator = (
            Coordinator(process_id, n, comm) if self.is_coordinator else None
        )
        self.takeovers = 0
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
