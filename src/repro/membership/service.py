"""The membership orchestrator.

One :class:`MembershipService` per deployment (built only when
``ExperimentConfig.membership`` is set) owns:

* the authoritative :class:`repro.membership.view.MembershipView` and the
  per-process :class:`repro.membership.liveness.LivenessAgent` detectors,
  driven by a single periodic scan;
* the **delivery dispatcher** — each gossip node's ``deliver`` callback is
  wrapped so membership payloads peel off to the local agent while
  consensus traffic flows through untouched;
* **join / leave / rejoin** handling for the fault-plan events, including
  deterministic overlay repair: replacement k-out edges are drawn from the
  same ``"overlay"`` stream that built the initial overlay, joiners
  register with the lowest-id alive seed members first;
* **leader election**: when the current leader is declared dead (or
  leaves), a backoff-plus-jitter driver promotes the next alive member —
  ``take_over()``, a fresh round for Paxos and a fresh term for Raft —
  retrying with exponential backoff while candidates keep dying (election
  storms).

Everything here is demand-driven: no service is constructed, no stream is
opened and no timer armed unless the experiment configures membership, so
fixed-membership runs are bit-identical with or without this package
(enforced by the committed scenario fingerprints).
"""

from repro.membership.liveness import LivenessAgent
from repro.membership.messages import (
    JoinAnnounce,
    LeaveAnnounce,
    MEMBERSHIP_KINDS,
)
from repro.membership.view import ALIVE, MembershipView
from repro.sim.actors import Actor

#: How long a gracefully leaving process keeps forwarding after its
#: LeaveAnnounce, in heartbeat intervals, so the announce (and any queued
#: consensus traffic) drains before its edges are torn down.
LEAVE_LINGER_INTERVALS = 2.0


class MembershipStats:
    """Counters for the membership layer, reported under ``membership.*``."""

    __slots__ = (
        "heartbeats_sent", "dead_reports_sent", "suspect_events",
        "dead_declared", "joins", "leaves", "rejoins", "edges_added",
        "edges_removed", "elections", "election_retries",
    )

    def __init__(self):
        self.heartbeats_sent = 0    # liveness beacons broadcast
        self.dead_reports_sent = 0  # dead reports broadcast by observers
        self.suspect_events = 0     # alive -> suspect transitions observed
        self.dead_declared = 0      # dead reports that changed the view
        self.joins = 0              # Join events applied
        self.leaves = 0             # Leave events applied
        self.rejoins = 0            # Rejoin events applied
        self.edges_added = 0        # overlay edges added (join + repair)
        self.edges_removed = 0      # overlay edges removed on departure
        self.elections = 0          # election attempts started
        self.election_retries = 0   # attempts beyond the first per outage

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__}


class _ElectionDriver:
    """Backoff-plus-jitter leader election on top of the membership view.

    Each ``leader_down`` arms one delayed attempt; the delay grows
    exponentially per consecutive attempt (capped) plus uniform jitter from
    the ``"election"`` named stream. An attempt promotes the next alive
    member in rotation — so if the freshly elected leader dies too (an
    election storm), the subsequent attempt tries a different candidate at
    a longer delay. The attempt counter resets only after the promoted
    leader survives a full dead timeout.
    """

    __slots__ = ("service", "_attempts", "_pending", "_rng")

    def __init__(self, service):
        self.service = service
        self._attempts = 0
        self._pending = False
        self._rng = None   # the "election" stream, opened on first use

    def leader_down(self):
        if self._pending:
            return
        service = self.service
        mcfg = service.mcfg
        delay = min(
            mcfg.election_backoff
            * (mcfg.election_backoff_factor ** self._attempts),
            mcfg.election_backoff_max,
        )
        if mcfg.election_jitter > 0.0:
            if self._rng is None:
                self._rng = service.sim.rng("election")
            delay += self._rng.uniform(0.0, mcfg.election_jitter)
        self._pending = True
        service.after(delay, self._attempt)

    def _attempt(self):
        self._pending = False
        service = self.service
        view = service.view
        if view.state(service.leader_id) == ALIVE:
            self._attempts = 0
            return
        candidates = view.alive_members()
        if not candidates:
            self._attempts += 1
            self.leader_down()
            return
        candidate = candidates[self._attempts % len(candidates)]
        self._attempts += 1
        service.stats.elections += 1
        if self._attempts > 1:
            service.stats.election_retries += 1
        if service.promote(candidate):
            service.leader_id = candidate
            service.after(service.mcfg.dead_timeout, self._confirm, candidate)
        else:
            self.leader_down()

    def _confirm(self, candidate):
        if (self.service.leader_id == candidate
                and self.service.view.state(candidate) == ALIVE):
            self._attempts = 0


class MembershipService(Actor):
    """Runtime orchestrator of dynamic membership for one deployment.

    Parameters
    ----------
    processes:
        The :class:`~repro.paxos.process.ConsensusProcess` instances,
        indexed by id; promotion is their ``take_over()``.
    overlay_rng:
        The deployment's ``"overlay"`` stream — the same generator that
        drew the initial k-out overlay, reused here so repairs and join
        edges are deterministic per overlay seed.
    connect_pair:
        ``connect_pair(a, b)`` callback creating the bidirectional link
        pair between two processes that were never connected (lazy link
        creation for joiners).
    """

    def __init__(self, sim, config, nodes, processes, overlay_rng,
                 connect_pair):
        super().__init__(sim, "membership")
        self.config = config
        self.mcfg = config.membership
        self.nodes = nodes
        self.processes = processes
        self.overlay_rng = overlay_rng
        self.connect_pair = connect_pair
        self.fault_engine = None   # set by build_deployment when present
        self.view = MembershipView(config.n,
                                   self.mcfg.members_at_start(config.n))
        self.stats = MembershipStats()
        self.leader_id = config.coordinator_id
        self.agents = [
            LivenessAgent(self, pid, nodes[pid]) for pid in range(config.n)
        ]
        self._member_since = {pid: 0.0 for pid in range(config.n)}
        self._election = _ElectionDriver(self)
        self._scan_timer = None
        self._installed = False
        self._wire_dispatch()
        for process in processes:
            process.enable_value_tracking()

    # -- delivery dispatch -------------------------------------------------

    def _wire_dispatch(self):
        """Interpose on every node's deliver callback.

        Membership payloads route to the local liveness agent; everything
        else continues to the consensus ``handle`` already installed.
        """
        for pid in range(self.config.n):
            node = self.nodes[pid]
            node.deliver = self._make_dispatcher(self.agents[pid],
                                                 node.deliver)

    @staticmethod
    def _make_dispatcher(agent, downstream):
        def deliver(payload):
            uid = payload.uid
            if isinstance(uid, tuple) and uid and uid[0] in MEMBERSHIP_KINDS:
                agent.on_membership(payload)
            elif downstream is not None:
                downstream(payload)
        return deliver

    # -- lifecycle ---------------------------------------------------------

    def member_since(self, pid):
        """When ``pid`` last became a member (0.0 for initial members)."""
        return self._member_since[pid]

    def install(self):
        """Activate the layer at deployment start.

        Processes outside the initial membership are parked (node and
        process crashed, overlay edges detached) until a ``Join`` event
        revives them; members start their heartbeat beacons, phase-
        staggered by process id, and the suspicion scan is armed off the
        heartbeat grid.
        """
        if self._installed:
            return
        self._installed = True
        interval = self.mcfg.heartbeat_interval
        for pid in range(self.config.n):
            if self.view.is_member(pid):
                self.agents[pid].start_heartbeats(self._phase(pid))
            else:
                self.nodes[pid].crash()
                self.processes[pid].crash()
                self._detach(pid)
        self.after(interval * (1.0 + 1.0 / 32.0), self._arm_scan)

    def _phase(self, pid):
        """First-beat offset: staggered per id to avoid same-instant ties."""
        interval = self.mcfg.heartbeat_interval
        return interval * (1.0 + (pid % 16) / 16.0)

    def _arm_scan(self):
        self._scan()
        if self._scan_timer is None:
            self._scan_timer = self.every(self.mcfg.heartbeat_interval,
                                          self._scan)

    def _scan(self):
        now = self.now
        members = tuple(sorted(self.view.members()))
        for pid in members:
            self.agents[pid].scan(now, members)

    # -- join / leave / rejoin ----------------------------------------------

    def join(self, pid):
        """A dormant process enters the cluster (``Join`` fault event)."""
        self.view.mark_join(pid, self.now)
        self.stats.joins += 1
        self._activate(pid)

    def leave(self, pid):
        """A member departs gracefully (``Leave`` fault event).

        The leaver broadcasts a LeaveAnnounce, stops consensus work
        immediately, but keeps its gossip layer forwarding for a short
        linger so the announce (and queued traffic) drains; then its edges
        are torn down and the overlay repaired.
        """
        node = self.nodes[pid]
        if node.alive:
            node.broadcast(LeaveAnnounce(pid, self.view.incarnation(pid)))
        self.view.mark_leave(pid, self.now)
        self.stats.leaves += 1
        self.processes[pid].crash()
        self.agents[pid].stop_heartbeats()
        linger = LEAVE_LINGER_INTERVALS * self.mcfg.heartbeat_interval
        self.after(linger, self._finish_leave, pid)
        if pid == self.leader_id:
            self._election.leader_down()

    def _finish_leave(self, pid):
        if self.view.is_member(pid):
            return  # rejoined during the linger; nothing to tear down
        self.nodes[pid].alive = False
        self._detach(pid)

    def rejoin(self, pid):
        """A departed/dead/crashed process returns (``Rejoin`` event).

        The incarnation number bumps so observers discard any in-flight
        beacons or dead reports from the previous life.
        """
        self.view.mark_rejoin(pid, self.now)
        self.stats.rejoins += 1
        self._activate(pid)

    def _activate(self, pid):
        now = self.now
        self._member_since[pid] = now
        if (self.fault_engine is not None
                and self.fault_engine.is_crashed(pid)):
            self.fault_engine.recover(pid)
        else:
            self.nodes[pid].recover()
            self.processes[pid].recover()
        if pid != self.leader_id:
            # A rejoining ex-leader must not resume its old role (Raft
            # renounces leadership; a Paxos ex-coordinator abandons its
            # outdated round rather than retransmit rejected proposals
            # forever).
            self.processes[pid].step_down()
        self._connect_joiner(pid)
        agent = self.agents[pid]
        agent.reset_watch(now)
        self.nodes[pid].broadcast(
            JoinAnnounce(pid, self.view.incarnation(pid)))
        agent.start_heartbeats(self._phase(pid))

    def _connect_joiner(self, pid):
        """Open the joiner's k-out edges: seed members first, then random.

        Random picks draw from the ``"overlay"`` stream over the sorted
        candidate list, so join topology is a deterministic function of the
        overlay seed and event history.
        """
        degree = self.mcfg.join_degree
        if degree is None:
            degree = self.config.effective_k
        node = self.nodes[pid]
        current = set(node.peers())
        candidates = [m for m in self.view.alive_members()
                      if m != pid and m not in current]
        for seed in candidates[:self.mcfg.seed_count]:
            if len(current) >= degree:
                break
            self._add_edge(pid, seed)
            current.add(seed)
        remaining = [m for m in candidates if m not in current]
        while len(current) < degree and remaining:
            peer = self.overlay_rng.choice(remaining)
            remaining.remove(peer)
            self._add_edge(pid, peer)
            current.add(peer)

    # -- failure handling ---------------------------------------------------

    def on_suspect(self, observer, subject):
        self.stats.suspect_events += 1
        self.view.mark_suspect(subject)

    def on_unsuspect(self, observer, subject):
        self.view.clear_suspect(subject)

    def apply_dead_report(self, reporter, subject, incarnation):
        """Apply one dead report; first non-stale report evicts the member."""
        if not self.view.mark_dead(subject, incarnation, self.now):
            return
        self.stats.dead_declared += 1
        self.agents[subject].stop_heartbeats()
        self._detach(subject)
        if subject == self.leader_id:
            self._election.leader_down()

    def promote(self, candidate):
        """Ask ``candidate``'s process to assume leadership."""
        process = self.processes[candidate]
        # Already leading (e.g. the old Paxos coordinator recovered and this
        # rotation landed back on it) counts as success.
        return process.take_over() or (process.leads and process.alive)

    # -- overlay surgery -----------------------------------------------------

    def _detach(self, pid):
        """Tear down all of ``pid``'s overlay edges, then repair neighbours."""
        node = self.nodes[pid]
        neighbours = sorted(node.peers())
        for peer in neighbours:
            self.nodes[peer].remove_peer(pid)
            node.remove_peer(peer)
            self.stats.edges_removed += 1
        self._repair(neighbours)

    def _repair(self, affected):
        """Top up each affected member back to the overlay's out-degree ``k``.

        Replacement targets are drawn from the ``"overlay"`` stream over
        the sorted alive-member candidates.
        """
        degree = self.config.effective_k
        for pid in affected:
            if not self.view.is_member(pid):
                continue
            node = self.nodes[pid]
            current = set(node.peers())
            candidates = [m for m in self.view.alive_members()
                          if m != pid and m not in current]
            while len(current) < degree and candidates:
                peer = self.overlay_rng.choice(candidates)
                candidates.remove(peer)
                self._add_edge(pid, peer)
                current.add(peer)

    def _add_edge(self, a, b):
        """Add the bidirectional gossip edge (a, b), creating links lazily.

        Links created after the fault engine installed its hooks are
        handed to it for adoption so chaos loss/partition rules apply to
        repaired edges too.
        """
        if a == b:
            return
        node_a = self.nodes[a]
        node_b = self.nodes[b]
        created = self.connect_pair(a, b)
        if created and self.fault_engine is not None:
            self.fault_engine.adopt_pair(a, b)
        if b not in node_a.peers():
            node_a.add_peer(b)
            self.stats.edges_added += 1
        if a not in node_b.peers():
            node_b.add_peer(a)
