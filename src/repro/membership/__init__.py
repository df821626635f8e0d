"""Dynamic cluster membership (the ROADMAP's "living clusters" item).

The paper evaluates gossip consensus over a *fixed* 13-region membership;
this package makes the cluster dynamic:

* :mod:`repro.membership.config` — :class:`MembershipConfig`, the tunable
  knobs (heartbeat period, suspicion/dead timeouts, election backoff);
* :mod:`repro.membership.view` — :class:`MembershipView`, the epoch-stamped
  membership record (alive/suspect/dead/left states, incarnation numbers);
* :mod:`repro.membership.messages` — the gossip-piggybacked liveness
  payloads (heartbeats, dead reports, join/leave announcements);
* :mod:`repro.membership.liveness` — per-process failure detectors driving
  the suspect → dead transitions from observed heartbeat silence;
* :mod:`repro.membership.service` — the :class:`MembershipService`
  orchestrating join/leave/rejoin, overlay repair and leader election.

The layer is **fully inert when unconfigured**: a run without
``ExperimentConfig(membership=...)`` builds no service, arms no timers and
draws from no streams, so fixed-membership results stay bit-identical
(enforced by the committed scenario fingerprints). See
docs/membership.md.
"""

from repro.membership.config import MembershipConfig
from repro.membership.messages import (
    DeadReport,
    JoinAnnounce,
    LeaveAnnounce,
    MemberHeartbeat,
)
from repro.membership.service import MembershipService, MembershipStats
from repro.membership.view import (
    ALIVE,
    DEAD,
    LEFT,
    OUT,
    SUSPECT,
    MembershipView,
)

__all__ = [
    "ALIVE",
    "DEAD",
    "DeadReport",
    "JoinAnnounce",
    "LEFT",
    "LeaveAnnounce",
    "MemberHeartbeat",
    "MembershipConfig",
    "MembershipService",
    "MembershipStats",
    "MembershipView",
    "OUT",
    "SUSPECT",
]
