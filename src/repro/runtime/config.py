"""Experiment configuration.

One :class:`ExperimentConfig` fully determines a run together with nothing
else — every random choice inside the simulation derives from its seeds.
The defaults model the paper's environment at reduced duration; benchmarks
override sizes, rates, and fault parameters per figure.
"""

import math
import numbers
import operator
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.gossip.node import GossipCosts
from repro.membership.config import MembershipConfig
from repro.net.channel import LinkConfig
from repro.net.faults.events import FaultPlan
from repro.net.overlay import OVERLAY_FAMILIES, default_k
from repro.net.regions import REGIONS

#: The paper's three setups (§4.1).
SETUPS = ("baseline", "gossip", "semantic")

#: Fields that must be a ``bool``: a truthy string would turn them on.
_SWITCHES = ("enable_filtering", "enable_aggregation", "spaxos")
#: Fields that must be integral: anything ``operator.index`` takes, numpy
#: ints included, but not a ``bool``. The optional ones may also be None.
_INTEGERS = ("n", "coordinator_id", "value_size", "seed", "region_seed")
_OPTIONAL_INTEGERS = ("k", "num_clients", "send_queue_capacity",
                      "num_regions", "overlay_seed")
#: Fields that must be real numbers (not a ``bool``); the optional one may
#: also be None.
_REALS = ("rate", "warmup", "duration", "drain", "loss_rate",
          "pull_interval")
_OPTIONAL_REALS = ("retransmit_timeout",)


def _is_integral(value):
    if isinstance(value, bool):
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


@dataclass
class ExperimentConfig:
    """All parameters of one experiment run."""

    # -- deployment ---------------------------------------------------------
    setup: str = "gossip"
    protocol: str = "paxos"              # "paxos" | "raft" (paper §5.1 extension)
    n: int = 13
    coordinator_id: int = 0
    k: Optional[int] = None              # links opened per process; default log2(n)

    # -- workload (paper §4.2/4.3) -------------------------------------------
    rate: float = 50.0                   # total submissions/s across all clients
    value_size: int = 1024               # paper evaluates 1 KB values
    num_clients: Optional[int] = None    # default: one per region (<= n)

    # -- timing --------------------------------------------------------------
    warmup: float = 0.5                  # seconds before measurement starts
    duration: float = 2.0                # measured window (seconds)
    drain: float = 3.0                   # post-workload settling time

    # -- seeds ----------------------------------------------------------------
    seed: int = 1
    overlay_seed: Optional[int] = None   # default: derived from seed

    # -- faults (paper §4.5 message loss; §2.1 crash-recovery) -------------------
    loss_rate: float = 0.0
    retransmit_timeout: Optional[float] = None  # None = disabled (§4.5 setting)
    #: Declarative fault timeline: a FaultPlan or an iterable of
    #: (at, FaultEvent) entries, applied by the fault engine (docs/faults.md).
    #: The only way to inject a process outage (Crash / RegionOutage);
    #: composes with loss_rate and retransmission.
    faults: tuple = ()
    #: Dynamic membership (docs/membership.md): heartbeats, suspicion-based
    #: failure detection, Join/Leave/Rejoin churn and heartbeat-driven
    #: leader election — the only way a backup takes over from a dead
    #: coordinator. None (the default) keeps the layer entirely out of the
    #: run — fixed-membership results are bit-identical either way.
    membership: Optional[MembershipConfig] = None

    # -- semantics (paper §3.2; toggles for the ablation study) -----------------
    enable_filtering: bool = True
    enable_aggregation: bool = True

    # -- dissemination strategy (paper §2.2; push is the paper's choice) --------
    gossip_strategy: str = "push"        # "push" | "pull" | "push-pull"
    pull_interval: float = 0.05          # pull-round period (seconds)

    # -- S-Paxos-style id-only ordering (paper §5.1 extension) -------------------
    spaxos: bool = False

    # -- cost model --------------------------------------------------------------
    costs: GossipCosts = field(default_factory=GossipCosts)
    link: LinkConfig = field(default_factory=LinkConfig)
    send_queue_capacity: Optional[int] = 20_000  # per peer; None = unbounded

    # -- beyond the paper's topology (the large-N scenarios) ----------------------
    #: Number of synthetic regions (repro.net.regions.synthetic_regions);
    #: None keeps the paper's 13 AWS regions.
    num_regions: Optional[int] = None
    #: Seed of the synthetic-region placement stream.
    region_seed: int = 0
    #: Overlay wiring model: "kout" (paper §3.3) or "powerlaw".
    overlay_family: str = "kout"

    def __post_init__(self):
        self._validate_types()
        if self.setup not in SETUPS:
            raise ValueError(
                "unknown setup {!r}; expected one of {}".format(self.setup, SETUPS)
            )
        if self.n < 3:
            raise ValueError(
                "n must be at least 3 (a Paxos quorum), got {!r}".format(
                    self.n))
        if not 0 <= self.coordinator_id < self.n:
            raise ValueError(
                "coordinator_id must be in [0, n={}), got {!r}".format(
                    self.n, self.coordinator_id))
        for name in ("k", "num_clients", "send_queue_capacity"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(
                    "{} must be at least 1, got {!r}".format(name, value))
        positive = ("rate", "duration", "pull_interval")
        if self.retransmit_timeout is not None:
            positive += ("retransmit_timeout",)
        for name in positive:
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(
                    "{} must be finite and positive, got {!r}".format(
                        name, value))
        for name in ("value_size", "warmup", "drain"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    "{} must be finite and non-negative, got {!r}".format(
                        name, value))
        if self.num_regions is not None and self.num_regions < 1:
            raise ValueError(
                "num_regions must be at least 1, got {!r}".format(
                    self.num_regions))
        if self.overlay_family not in OVERLAY_FAMILIES:
            raise ValueError(
                "unknown overlay_family {!r}; expected one of {}".format(
                    self.overlay_family, OVERLAY_FAMILIES))
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        if self.gossip_strategy not in ("push", "pull", "push-pull"):
            raise ValueError(
                "unknown gossip strategy {!r}".format(self.gossip_strategy)
            )
        if self.protocol not in ("paxos", "raft"):
            raise ValueError("unknown protocol {!r}".format(self.protocol))
        if self.spaxos and self.protocol != "paxos":
            raise ValueError("spaxos applies to the paxos protocol only")
        if self.spaxos and self.setup == "baseline":
            raise ValueError(
                "spaxos needs broadcast dissemination; the Baseline star "
                "cannot deliver value bodies to non-coordinator processes"
            )
        self._validate_membership()
        # Normalizing rejects malformed timelines (bad entry shapes, events
        # referencing unknown processes/regions, churn aimed at processes
        # that are not members at the event's time) at config time.
        FaultPlan(self.faults).validate(
            self.n, membership=self.membership,
            num_regions=(len(REGIONS) if self.num_regions is None
                         else self.num_regions))

    def _validate_types(self):
        for name in _SWITCHES:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(
                    "{} must be a bool, got {!r}".format(name, value))
        for name in _INTEGERS + _OPTIONAL_INTEGERS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_INTEGERS:
                continue
            if isinstance(value, float) and not math.isfinite(value):
                # A bad value, like a negative one, not a bad type.
                raise ValueError(
                    "{} must be finite, got {!r}".format(name, value))
            if not _is_integral(value):
                raise TypeError(
                    "{} must be an int, got {!r}".format(name, value))
        for name in _REALS + _OPTIONAL_REALS:
            value = getattr(self, name)
            if value is None and name in _OPTIONAL_REALS:
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(
                    "{} must be a real number, got {!r}".format(name, value))

    def _validate_membership(self):
        if self.membership is None:
            return
        if self.setup == "baseline":
            raise ValueError(
                "membership needs broadcast dissemination; the Baseline "
                "star has no overlay to repair"
            )
        if self.spaxos:
            raise ValueError(
                "membership leader election is implemented for plain "
                "Paxos and Raft, not S-Paxos"
            )
        initial = self.membership.members_at_start(self.n)
        for pid in initial:
            if not 0 <= pid < self.n:
                raise ValueError(
                    "initial_members: process id {!r} out of range for "
                    "n={}".format(pid, self.n))
        if self.coordinator_id not in initial:
            raise ValueError(
                "coordinator {} must be an initial member".format(
                    self.coordinator_id))
        if len(initial) < self.majority:
            raise ValueError(
                "initial membership ({} processes) cannot form a quorum "
                "of n={} (needs >= {})".format(
                    len(initial), self.n, self.majority))

    @property
    def effective_k(self):
        """Links each process opens, so average degree is ~log2(n) (§4.2)."""
        if self.k is not None:
            return self.k
        return default_k(self.n)

    @property
    def effective_overlay_seed(self):
        """Overlay seed; defaults to the experiment seed."""
        if self.overlay_seed is not None:
            return self.overlay_seed
        return self.seed

    @property
    def fault_plan(self):
        """The normalized :class:`FaultPlan`, or None when no faults are set."""
        plan = FaultPlan(self.faults)
        return plan if plan else None

    @property
    def effective_num_clients(self):
        """One client per region, capped by the number of processes."""
        if self.num_clients is not None:
            return min(self.num_clients, self.n)
        return min(len(REGIONS), self.n)

    @property
    def end_of_workload(self):
        """Simulated time at which clients stop submitting."""
        return self.warmup + self.duration

    @property
    def end_of_run(self):
        """Simulated time at which the run is cut off (incl. drain)."""
        return self.warmup + self.duration + self.drain

    @property
    def majority(self):
        """Quorum size: floor(n/2) + 1."""
        return self.n // 2 + 1

    def replace(self, **overrides):
        """Return a copy with the given fields overridden."""
        return replace(self, **overrides)
