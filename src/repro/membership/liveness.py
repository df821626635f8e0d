"""Per-process failure detector over gossip-piggybacked heartbeats.

Each member runs a :class:`LivenessAgent`: it broadcasts a
:class:`repro.membership.messages.MemberHeartbeat` every heartbeat period
(phase-staggered per process id, the same tie-avoidance idiom the pull
strategies use) and tracks, per fellow member, when it last heard one.
The membership service drives a periodic *scan* over every agent; an
observer that has seen silence past the suspicion timeout suspects the
member, and past the dead timeout declares it dead — broadcasting a
:class:`repro.membership.messages.DeadReport` once per (subject,
incarnation) and feeding the report to the membership view.

Silence is measured from the latest of: the last heartbeat heard, the
observer's own watch start, and the subject's membership start — so a
process that just joined (or rejoined) gets a full grace period before
anyone may suspect it, and a rejoined observer starts its watches fresh.
"""

from repro.membership.messages import DeadReport, MemberHeartbeat
from repro.sim.actors import Actor


class LivenessAgent(Actor):
    """One process's view of everyone else's liveness."""

    def __init__(self, service, process_id, node):
        super().__init__(service.sim, "liveness-{}".format(process_id))
        self.service = service
        self.process_id = process_id
        self.node = node
        #: member id -> simulated time its last heartbeat arrived here.
        self.last_heard = {}
        #: (member, incarnation) pairs this observer currently suspects.
        self._suspected = set()
        #: (member, incarnation) pairs this observer already reported dead.
        self._reported = set()
        self._watch_from = 0.0
        self._heartbeat_timer = None
        self._seq = 0

    # -- heartbeat emission ------------------------------------------------

    def start_heartbeats(self, phase):
        """Arm the periodic beacon, first firing after ``phase`` seconds."""
        self.after(phase, self._arm_heartbeats)

    def _arm_heartbeats(self):
        self._beat()
        if self._heartbeat_timer is None:
            self._heartbeat_timer = self.every(
                self.service.mcfg.heartbeat_interval, self._beat)

    def stop_heartbeats(self):
        if self._heartbeat_timer is not None:
            self._heartbeat_timer.stop()
            self._heartbeat_timer = None

    def _beat(self):
        service = self.service
        if not self.node.alive or not service.view.is_member(self.process_id):
            return
        self._seq += 1
        incarnation = service.view.incarnation(self.process_id)
        self.node.broadcast(
            MemberHeartbeat(self.process_id, incarnation, self._seq))
        service.stats.heartbeats_sent += 1

    # -- inbound membership traffic ---------------------------------------

    # The node routes each membership class here by its exact class.

    def on_dead_report(self, report):
        self.service.apply_dead_report(
            report.reporter, report.subject, report.incarnation)

    def on_announce(self, announce):
        """A JoinAnnounce or LeaveAnnounce. The authoritative transition
        already happened in the view; the announce refreshes this
        observer's watch so a joiner is not suspected before its first
        beacon propagates."""
        self.last_heard[announce.sender] = self.now

    def on_heartbeat(self, heartbeat):
        sender = heartbeat.sender
        if heartbeat.incarnation < self.service.view.incarnation(sender):
            return  # beacon from a dead epoch of a since-rejoined member
        self.last_heard[sender] = self.now
        key = (sender, heartbeat.incarnation)
        if key in self._suspected:
            self._suspected.discard(key)
            self.service.on_unsuspect(self.process_id, sender)

    # -- the suspicion scan ------------------------------------------------

    def reset_watch(self, now):
        """Restart all watches (this process just joined or rejoined)."""
        self.last_heard.clear()
        self._watch_from = now

    def scan(self, now, members):
        """Examine every fellow member's silence; suspect/declare as due.

        ``members`` is the sorted tuple of current members (the service
        computes it once per scan tick for all observers).
        """
        service = self.service
        if not self.node.alive or not service.view.is_member(self.process_id):
            return
        mcfg = service.mcfg
        view = service.view
        for member in members:
            if member == self.process_id:
                continue
            basis = max(self.last_heard.get(member, 0.0), self._watch_from,
                        service.member_since(member))
            silence = now - basis
            if silence < mcfg.suspicion_timeout:
                continue
            incarnation = view.incarnation(member)
            key = (member, incarnation)
            if silence >= mcfg.dead_timeout:
                if key in self._reported:
                    continue
                self._reported.add(key)
                service.stats.dead_reports_sent += 1
                self.node.broadcast(
                    DeadReport(self.process_id, member, incarnation))
                service.apply_dead_report(self.process_id, member,
                                          incarnation)
            elif key not in self._suspected:
                self._suspected.add(key)
                service.on_suspect(self.process_id, member)
