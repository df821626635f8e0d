"""Typed fault events and the declarative :class:`FaultPlan`.

A fault plan is a timeline of ``(at, event)`` entries applied to a running
deployment by the :class:`repro.net.faults.engine.FaultEngine`. Events are
plain declarative objects — they carry parameters and validate themselves
against a system size, but all mechanics (hook wiring, link mutation,
crash scheduling) live in the engine, so plans can be built, validated and
compared without a simulator.

Event catalogue (the WAN failure modes of ISSUE §4.5 and beyond):

* :class:`Partition` / :class:`Heal` — split the process set into groups;
  every message crossing group boundaries is dropped until the heal.
* :class:`LinkLoss` — asymmetric per-link probabilistic loss (one
  direction of one channel).
* :class:`BurstLoss` / :class:`ClearBurstLoss` — correlated loss bursts on
  every link via per-link Gilbert–Elliott chains.
* :class:`Degrade` — latency multiplier and/or added jitter on the links
  between a region pair; ``Degrade(..., latency_factor=1, extra_jitter_s=0)``
  restores them.
* :class:`GrayFailure` — a process's CPU slows by a factor: alive, never
  suspected, but late (``factor=1`` recovers it).
* :class:`Crash` / :class:`RegionOutage` — full-process outages through the
  :class:`repro.runtime.crashes.CrashController`, for one process or every
  process hosted in a region.
* :class:`Join` / :class:`Leave` / :class:`Rejoin` — membership churn
  through the :class:`repro.membership.service.MembershipService`; these
  require ``ExperimentConfig(membership=...)``.

:meth:`FaultPlan.validate` walks the whole timeline and rejects plans whose
events reference processes that are not cluster members at the event's
time — a crash aimed at a node that already left, a join for a process
that was already a member — so misconfigured plans fail loudly at config
time instead of silently doing nothing mid-run.
"""

from repro.net.regions import REGIONS

#: Region count of the paper's built-in topology, the default that
#: region-addressed events are validated against.
NUM_REGIONS = len(REGIONS)


def _check_probability(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError("{} must be within [0, 1]".format(name))


def _check_process(name, value, n):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError("{} must be an int process id, got {!r}".format(
            name, value))
    if not 0 <= value < n:
        raise ValueError("{} {} out of range for n={}".format(name, value, n))


def _check_region(name, value, num_regions):
    if not isinstance(value, int) or not 0 <= value < num_regions:
        raise ValueError("{} {!r} is not a region index (< {})".format(
            name, value, num_regions))


class FaultEvent:
    """Base class: a declarative fault, applied by the engine."""

    #: Stable identifier used in metrics attribution and reports.
    kind = "fault"

    def apply(self, engine):
        """Apply this event to a :class:`FaultEngine` (at its ``at`` time)."""
        raise NotImplementedError

    def validate(self, n, num_regions=NUM_REGIONS):
        """Check parameters against system size ``n`` and the topology's
        region count; raises ValueError."""

    def describe(self):
        """Short human-readable parameter summary."""
        return self.kind

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self.describe())


class Partition(FaultEvent):
    """Split the processes into groups; cross-group links drop everything.

    ``groups`` is a sequence of disjoint process-id groups. Processes not
    named in any group form one implicit remainder group together. A new
    partition replaces any partition currently in force.
    """

    kind = "partition"

    def __init__(self, groups):
        self.groups = tuple(tuple(group) for group in groups)
        if not self.groups:
            raise ValueError("a partition needs at least one group")

    def validate(self, n, num_regions=NUM_REGIONS):
        seen = set()
        for group in self.groups:
            for pid in group:
                _check_process("partition member", pid, n)
                if pid in seen:
                    raise ValueError(
                        "process {} appears in two partition groups".format(pid))
                seen.add(pid)

    def apply(self, engine):
        engine.partition(self.groups)

    def describe(self):
        return "groups={}".format(self.groups)


class Heal(FaultEvent):
    """Remove the partition currently in force (no-op when none is)."""

    kind = "heal"

    def apply(self, engine):
        engine.heal()


class LinkLoss(FaultEvent):
    """Asymmetric probabilistic loss on one directed link; rate 0 clears."""

    kind = "link-loss"

    def __init__(self, src, dst, rate):
        _check_probability("rate", rate)
        self.src = src
        self.dst = dst
        self.rate = rate

    def validate(self, n, num_regions=NUM_REGIONS):
        _check_process("src", self.src, n)
        _check_process("dst", self.dst, n)
        if self.src == self.dst:
            raise ValueError("a link needs two distinct endpoints")

    def apply(self, engine):
        engine.set_link_loss(self.src, self.dst, self.rate)

    def describe(self):
        return "{}->{} rate={}".format(self.src, self.dst, self.rate)


class BurstLoss(FaultEvent):
    """Arm Gilbert–Elliott burst loss on every link (see faults.loss)."""

    kind = "burst-loss"

    def __init__(self, p_enter=0.02, p_exit=0.2, loss_bad=0.3, loss_good=0.0):
        for name, value in (("p_enter", p_enter), ("p_exit", p_exit),
                            ("loss_bad", loss_bad), ("loss_good", loss_good)):
            _check_probability(name, value)
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.loss_bad = loss_bad
        self.loss_good = loss_good

    def apply(self, engine):
        engine.set_burst(self.p_enter, self.p_exit,
                         self.loss_bad, self.loss_good)

    def describe(self):
        return "p_enter={} p_exit={} loss_bad={}".format(
            self.p_enter, self.p_exit, self.loss_bad)


class ClearBurstLoss(FaultEvent):
    """Disarm burst loss installed by :class:`BurstLoss`."""

    kind = "clear-burst-loss"

    def apply(self, engine):
        engine.clear_burst()


class Degrade(FaultEvent):
    """Degrade the links between two regions: slower, jittery propagation.

    ``latency_factor`` multiplies the links' one-way latency;
    ``extra_jitter_s`` adds uniform jitter on top of the link config's.
    ``Degrade(a, b)`` with the default neutral parameters restores the
    pair's links to their original behaviour.
    """

    kind = "degrade"

    def __init__(self, region_a, region_b, latency_factor=1.0,
                 extra_jitter_s=0.0):
        if latency_factor <= 0:
            raise ValueError("latency_factor must be positive")
        if extra_jitter_s < 0:
            raise ValueError("extra_jitter_s must be non-negative")
        self.region_a = region_a
        self.region_b = region_b
        self.latency_factor = latency_factor
        self.extra_jitter_s = extra_jitter_s

    def validate(self, n, num_regions=NUM_REGIONS):
        _check_region("region_a", self.region_a, num_regions)
        _check_region("region_b", self.region_b, num_regions)

    def apply(self, engine):
        engine.degrade(self.region_a, self.region_b,
                       self.latency_factor, self.extra_jitter_s)

    def describe(self):
        return "regions=({},{}) x{} +{}s jitter".format(
            self.region_a, self.region_b, self.latency_factor,
            self.extra_jitter_s)


class GrayFailure(FaultEvent):
    """Slow a process's CPU by ``factor``: alive but late; 1.0 recovers."""

    kind = "gray"

    def __init__(self, process_id, factor):
        if factor < 1.0:
            raise ValueError("a gray failure slows a process: factor >= 1")
        self.process_id = process_id
        self.factor = factor

    def validate(self, n, num_regions=NUM_REGIONS):
        _check_process("process_id", self.process_id, n)

    def apply(self, engine):
        engine.set_gray(self.process_id, self.factor)

    def describe(self):
        return "process={} x{}".format(self.process_id, self.factor)


class Crash(FaultEvent):
    """Crash one process; recovers after ``duration`` seconds if given."""

    kind = "crash"

    def __init__(self, process_id, duration=None):
        if duration is not None and duration <= 0:
            raise ValueError("crash duration must be positive")
        self.process_id = process_id
        self.duration = duration

    def validate(self, n, num_regions=NUM_REGIONS):
        _check_process("process_id", self.process_id, n)

    def apply(self, engine):
        engine.crash(self.process_id, self.duration)

    def describe(self):
        return "process={} duration={}".format(self.process_id, self.duration)


class RegionOutage(FaultEvent):
    """Crash every process in a region; recover after ``duration`` if given."""

    kind = "region-outage"

    def __init__(self, region, duration=None):
        if duration is not None and duration <= 0:
            raise ValueError("outage duration must be positive")
        self.region = region
        self.duration = duration

    def validate(self, n, num_regions=NUM_REGIONS):
        _check_region("region", self.region, num_regions)

    def apply(self, engine):
        engine.region_outage(self.region, self.duration)

    def describe(self):
        return "region={} duration={}".format(self.region, self.duration)


class MembershipEvent(FaultEvent):
    """Base class of churn events; needs the membership layer configured."""

    def __init__(self, process_id):
        self.process_id = process_id

    def validate(self, n, num_regions=NUM_REGIONS):
        _check_process("process_id", self.process_id, n)

    def describe(self):
        return "process={}".format(self.process_id)


class Join(MembershipEvent):
    """A process outside ``initial_members`` enters the cluster.

    The joiner registers with the seed members, opens deterministic k-out
    overlay edges and announces itself; use :class:`Rejoin` for a process
    that has been a member before (it needs an incarnation bump).
    """

    kind = "join"

    def apply(self, engine):
        engine.membership_join(self.process_id)


class Leave(MembershipEvent):
    """A member departs gracefully: announce, drain, overlay teardown."""

    kind = "leave"

    def apply(self, engine):
        engine.membership_leave(self.process_id)


class Rejoin(MembershipEvent):
    """A departed, dead or crashed member returns with a new incarnation."""

    kind = "rejoin"

    def apply(self, engine):
        engine.membership_rejoin(self.process_id)


def _validate_timeline(entries, n, membership):
    """Walk the plan chronologically, tracking who is a member when.

    Raises ValueError for events referencing processes that cannot be
    targeted at their scheduled time — the satellite-1 guarantee that a
    plan aimed at unknown or absent nodes fails at config time rather than
    silently no-op'ing.
    """
    if membership is None:
        members = set(range(n))
    else:
        members = set(membership.members_at_start(n))
    ever = set(members)
    crashed = set()

    def check_member(what, pid, at):
        if pid not in members:
            raise ValueError(
                "{} targets process {} which is not a cluster member at "
                "t={} (members: {})".format(what, pid, at, sorted(members)))

    for at, event in entries:
        if isinstance(event, MembershipEvent):
            if membership is None:
                raise ValueError(
                    "{} event at t={} requires membership to be configured "
                    "(ExperimentConfig(membership=MembershipConfig(...)))"
                    .format(event.kind, at))
            pid = event.process_id
            if isinstance(event, Join):
                if pid in ever:
                    raise ValueError(
                        "Join at t={}: process {} has already been a member; "
                        "use Rejoin".format(at, pid))
                members.add(pid)
                ever.add(pid)
            elif isinstance(event, Leave):
                check_member("Leave", pid, at)
                members.discard(pid)
                crashed.discard(pid)
            else:  # Rejoin
                if pid not in ever:
                    raise ValueError(
                        "Rejoin at t={}: process {} has never been a member; "
                        "use Join".format(at, pid))
                members.add(pid)
                crashed.discard(pid)
        elif isinstance(event, Crash):
            check_member("Crash", event.process_id, at)
            crashed.add(event.process_id)
        elif isinstance(event, GrayFailure):
            check_member("GrayFailure", event.process_id, at)
        elif isinstance(event, LinkLoss):
            check_member("LinkLoss", event.src, at)
            check_member("LinkLoss", event.dst, at)
        elif isinstance(event, Partition):
            for group in event.groups:
                for pid in group:
                    check_member("Partition", pid, at)


class FaultPlan:
    """An ordered timeline of ``(at, event)`` entries.

    Accepts any iterable of ``(at, FaultEvent)`` pairs (or another
    FaultPlan) and keeps them sorted by time; ties preserve entry order,
    so e.g. a ``Heal`` listed after a ``Partition`` at the same instant
    applies after it.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=()):
        if isinstance(entries, FaultPlan):
            entries = entries.entries
        normalized = []
        for entry in entries:
            try:
                at, event = entry
            except (TypeError, ValueError):
                raise ValueError(
                    "fault plan entries are (at, event) pairs; got {!r}".format(
                        entry))
            if not isinstance(event, FaultEvent):
                raise ValueError(
                    "fault plan event must be a FaultEvent, got {!r}".format(
                        event))
            at = float(at)
            if at < 0:
                raise ValueError("fault time must be non-negative")
            normalized.append((at, event))
        normalized.sort(key=lambda entry: entry[0])
        self.entries = tuple(normalized)

    def validate(self, n, membership=None, num_regions=NUM_REGIONS):
        """Validate the plan against system size ``n``; returns self.

        ``num_regions`` is the region count of the topology the plan will
        run on (the paper's 13 unless the config generates synthetic
        regions); region-addressed events are checked against it.

        Beyond per-event parameter checks, the whole timeline is walked
        with membership tracked (``membership`` is the experiment's
        :class:`repro.membership.config.MembershipConfig`, or ``None`` for
        a fixed cluster): events referencing processes that are not
        members at the event's time raise ValueError.
        """
        for _, event in self.entries:
            event.validate(n, num_regions)
        _validate_timeline(self.entries, n, membership)
        return self

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __repr__(self):
        return "FaultPlan({} events)".format(len(self.entries))
