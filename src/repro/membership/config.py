"""Membership subsystem configuration.

A :class:`MembershipConfig` attached to an
:class:`repro.runtime.config.ExperimentConfig` activates the membership
layer: gossip-piggybacked heartbeats, suspicion-based failure detection,
join/leave/rejoin handling with overlay repair, and heartbeat-driven
leader election. Leaving ``ExperimentConfig.membership`` at ``None`` keeps
the layer entirely out of the run.

Timing defaults are sized for the paper's WAN latency model (tens to ~150
milliseconds one way): a heartbeat period several times the typical hop
latency, a suspicion timeout a few periods long, and a dead timeout with
enough slack that multi-hop gossip propagation cannot alone kill a member.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class MembershipConfig:
    """Tunable knobs of the dynamic-membership layer."""

    #: Seconds between one member's liveness heartbeats.
    heartbeat_interval: float = 0.06
    #: Seconds without a heartbeat after which an observer suspects a member.
    suspicion_timeout: float = 0.25
    #: Seconds without a heartbeat after which an observer declares a
    #: member dead (and broadcasts a dead report). Must exceed
    #: ``suspicion_timeout``.
    dead_timeout: float = 0.5
    #: Process ids forming the cluster at t=0; ``None`` means all ``n``
    #: processes. Ids outside this set start dormant and enter via ``Join``.
    initial_members: Optional[tuple] = None
    #: Base delay before the first election attempt after the leader is
    #: declared dead (or leaves); doubles per failed attempt
    #: (``repro.membership.service.ELECTION_BACKOFF_FACTOR``), capped at
    #: ``election_backoff_max``.
    election_backoff: float = 0.25
    election_backoff_max: float = 1.0
    #: Uniform jitter added to every election delay (draws from the
    #: ``"election"`` named stream), de-synchronizing election storms.
    election_jitter: float = 0.05

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type is float:
                if not _is_number(value):
                    raise TypeError("{} must be a number, got {!r}".format(
                        f.name, value))
                if not math.isfinite(value):
                    raise ValueError("{} must be finite, got {!r}".format(
                        f.name, value))
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if self.suspicion_timeout <= self.heartbeat_interval:
            raise ValueError(
                "suspicion_timeout must exceed the heartbeat interval")
        if self.dead_timeout <= self.suspicion_timeout:
            raise ValueError("dead_timeout must exceed suspicion_timeout")
        if self.initial_members is not None:
            members = tuple(self.initial_members)
            for pid in members:
                if not _is_int(pid):
                    raise TypeError(
                        "initial_members must hold process ids (ints), "
                        "got {!r}".format(pid))
            if len(set(members)) != len(members):
                raise ValueError("initial_members contains duplicates")
            if not members:
                raise ValueError("initial_members must not be empty")
            # Normalize to a sorted tuple so configs compare independently
            # of declaration order.
            object.__setattr__(self, "initial_members",
                               tuple(sorted(members)))
        if self.election_backoff <= 0:
            raise ValueError("election_backoff must be positive")
        if self.election_backoff_max < self.election_backoff:
            raise ValueError(
                "election_backoff_max must be >= election_backoff")
        if self.election_jitter < 0:
            raise ValueError("election_jitter must be non-negative")

    def members_at_start(self, n):
        """The sorted tuple of initial member ids for a cluster of ``n``."""
        if self.initial_members is None:
            return tuple(range(n))
        return self.initial_members
