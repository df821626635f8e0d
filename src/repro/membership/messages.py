"""Gossip-piggybacked membership payloads.

Liveness traffic rides the same epidemic broadcast as consensus traffic
(the paper's §3.3 substrate): heartbeats, dead reports and join/leave
announcements are ordinary :class:`repro.net.message.Payload` subclasses
whose uids make every logical message flood exactly once.
:class:`repro.membership.service.MembershipService` routes each of the
four classes, by exact class, from every gossip node straight to its
liveness agent, so consensus never sees them.

Uid kinds (``MHB``/``MDR``/``MJN``/``MLV``) are disjoint from the Paxos
and Raft kinds, so the safety monitor and semantic hooks ignore them.
"""

from repro.net.message import Payload

#: Fixed metadata size charged per membership message (the consensus
#: header size; membership messages carry no value body).
MEMBERSHIP_HEADER_BYTES = 64


class MemberHeartbeat(Payload):
    """Periodic liveness beacon of one member.

    The incarnation number distinguishes a rejoined member's beacons from
    its dead epoch's: observers discard beacons with an incarnation below
    the one they last saw declared dead.
    """

    __slots__ = ("sender", "incarnation", "seq")

    def __init__(self, sender, incarnation, seq):
        super().__init__(("MHB", sender, incarnation, seq),
                         MEMBERSHIP_HEADER_BYTES)
        self.sender = sender
        self.incarnation = incarnation
        self.seq = seq


class DeadReport(Payload):
    """An observer declares ``subject`` (at ``incarnation``) dead.

    Broadcast once per (observer, subject, incarnation): the first report
    reaching the membership view transitions the subject to DEAD and bumps
    the epoch; later reports for the same incarnation are ignored.
    """

    __slots__ = ("reporter", "subject", "incarnation")

    def __init__(self, reporter, subject, incarnation):
        super().__init__(("MDR", subject, incarnation, reporter),
                         MEMBERSHIP_HEADER_BYTES)
        self.reporter = reporter
        self.subject = subject
        self.incarnation = incarnation


class JoinAnnounce(Payload):
    """A process announces it has joined (or rejoined) the cluster."""

    __slots__ = ("sender", "incarnation")

    def __init__(self, sender, incarnation):
        super().__init__(("MJN", sender, incarnation),
                         MEMBERSHIP_HEADER_BYTES)
        self.sender = sender
        self.incarnation = incarnation


class LeaveAnnounce(Payload):
    """A process announces a graceful departure (best-effort courtesy)."""

    __slots__ = ("sender", "incarnation")

    def __init__(self, sender, incarnation):
        super().__init__(("MLV", sender, incarnation),
                         MEMBERSHIP_HEADER_BYTES)
        self.sender = sender
        self.incarnation = incarnation
