"""The fault engine: applies a :class:`FaultPlan` to a live deployment.

The engine owns every runtime mechanism behind the declarative events:

* a per-link interposer on the ``loss_hook`` protocol that consults the
  partition state, asymmetric per-link loss rates and per-link
  Gilbert–Elliott burst chains before deferring to the configured baseline
  injector (so ``loss_rate`` and fault plans compose). It sits on the
  links only while one of those link faults is in force; with none in
  force it would draw nothing and count nothing, so each link's hook is
  then the baseline injector itself, or None;
* link degradation through :meth:`repro.net.channel.DirectedLink.degrade`;
* gray failures through the CPU server's ``slowdown`` factor;
* process and region outages, the paper's crash-recovery model (§2.1): a
  crashed process neither handles inbound messages nor initiates sends,
  and its queued outbound messages are discarded, while acceptor/log state
  survives as if on stable storage; the colocated client keeps submitting
  (open loop) and values sent to the crashed process are lost.

Every random decision draws from dedicated named streams
(``chaos-link-loss``, ``chaos-burst``, ``chaos-jitter``) so arming a fault
plan never perturbs the run's other randomness, and the same seed plus the
same plan reproduces the exact same failure trace.

Attribution: the engine counts drops per fault type (partition vs per-link
loss vs burst) and timestamps partitions and heals; the per-link
``LinkStats.dropped_loss`` counters keep the per-link view.
"""

from repro.net.faults.loss import GilbertElliottLossInjector

#: Implicit group shared by processes a Partition event does not mention.
_REMAINDER_GROUP = -1


class FaultStats:
    """Counters and timestamps the engine exposes to metrics reports."""

    __slots__ = ("injections", "partition_drops", "link_loss_drops",
                 "burst_drops", "partition_starts", "partition_heals")

    def __init__(self):
        #: fault kind -> number of events applied.
        self.injections = {}
        self.partition_drops = 0
        self.link_loss_drops = 0
        self.burst_drops = 0
        self.partition_starts = []
        self.partition_heals = []

    def partition_windows(self):
        """(started_at, healed_at|None) per partition, in order."""
        windows = []
        for index, start in enumerate(self.partition_starts):
            heal = (self.partition_heals[index]
                    if index < len(self.partition_heals) else None)
            windows.append((start, heal))
        return windows

    def to_dict(self):
        return {
            "injections": dict(self.injections),
            "partition_drops": self.partition_drops,
            "link_loss_drops": self.link_loss_drops,
            "burst_drops": self.burst_drops,
            "partition_windows": self.partition_windows(),
        }


class _ChaosHook:
    """Per-link ``loss_hook`` chaining the engine before the baseline hook."""

    __slots__ = ("engine", "src", "dst", "inner")

    def __init__(self, engine, src, dst, inner):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.inner = inner

    def __call__(self, dst):
        if self.engine.examine(self.src, self.dst):
            return True
        inner = self.inner
        return inner is not None and inner(dst)


class FaultEngine:
    """Installs a fault plan's events on a deployment's clock and links."""

    def __init__(self, sim, topology, nodes, processes, plan):
        self.sim = sim
        self.topology = topology
        self.nodes = nodes
        self.processes = processes
        self.plan = plan
        self.stats = FaultStats()
        self.crashed = set()           # ids of processes currently down
        self.gray = {}                 # process id -> active slowdown factor
        self._group_of = None          # pid -> group index while partitioned
        self._link_loss = {}           # (src, dst) -> drop rate
        self._burst = None             # (p_enter, p_exit, loss_bad, loss_good)
        self._burst_chains = {}        # (src, dst) -> GE chain
        self._loss_rng = sim.rng("chaos-link-loss")
        self._burst_rng = sim.rng("chaos-burst")
        self._installed = False
        self._interposed = False       # _ChaosHook on every link
        #: The deployment's MembershipService when membership is
        #: configured; Join/Leave/Rejoin events delegate to it.
        self.membership = None

    # -- wiring --------------------------------------------------------------

    def _links(self):
        """Every directed link: by source id, then in connect order."""
        for node in self.nodes:
            yield from node.links.values()

    def install(self):
        """Schedule the plan's events (once)."""
        if self._installed:
            return
        self._installed = True
        for at, event in self.plan:
            self.sim.schedule_at(at, self._apply, event)

    def adopt_pair(self, a, b):
        """Interpose on the new ``a <-> b`` links if a link fault is in
        force: overlay repair creates links lazily for joiners, and the
        chaos rules stay uniform across the whole overlay."""
        if self._interposed:
            for src, dst in ((a, b), (b, a)):
                self._wrap(self.nodes[src].links[dst])

    def _wrap(self, link):
        if not isinstance(link.loss_hook, _ChaosHook):
            link.loss_hook = _ChaosHook(self, link.src, link.dst, link.loss_hook)

    def _sync_links(self):
        """Interpose on every link while a link fault is in force, and
        hand each link back its inner hook once none is."""
        in_force = (self._group_of is not None or bool(self._link_loss)
                    or self._burst is not None)
        if in_force == self._interposed:
            return
        self._interposed = in_force
        for link in self._links():
            if in_force:
                self._wrap(link)
            elif isinstance(link.loss_hook, _ChaosHook):
                link.loss_hook = link.loss_hook.inner

    def _apply(self, event):
        self.stats.injections[event.kind] = (
            self.stats.injections.get(event.kind, 0) + 1)
        event.apply(self)

    # -- the drop decision (hot path) ----------------------------------------

    def examine(self, src, dst):
        """Engine verdict for one message arriving over ``src -> dst``."""
        stats = self.stats
        group = self._group_of
        if (group is not None
                and group.get(src, _REMAINDER_GROUP)
                != group.get(dst, _REMAINDER_GROUP)):
            stats.partition_drops += 1
            return True
        rate = self._link_loss.get((src, dst))
        if rate is not None and self._loss_rng.random() < rate:
            stats.link_loss_drops += 1
            return True
        if self._burst is not None:
            chain = self._burst_chains.get((src, dst))
            if chain is None:
                chain = GilbertElliottLossInjector(self.sim, *self._burst,
                                                   rng=self._burst_rng)
                self._burst_chains[(src, dst)] = chain
            if chain(dst):
                stats.burst_drops += 1
                return True
        return False

    # -- event mechanics -----------------------------------------------------

    @property
    def partitioned(self):
        return self._group_of is not None

    def partition(self, groups):
        """Install a partition; replaces any partition in force."""
        group_of = {}
        for index, group in enumerate(groups):
            for pid in group:
                group_of[pid] = index
        self._group_of = group_of
        self.stats.partition_starts.append(self.sim.now)
        self._sync_links()

    def heal(self):
        if self._group_of is None:
            return
        self._group_of = None
        self.stats.partition_heals.append(self.sim.now)
        self._sync_links()

    def same_side(self, a, b):
        """Whether processes ``a`` and ``b`` can currently talk directly."""
        group = self._group_of
        if group is None:
            return True
        return (group.get(a, _REMAINDER_GROUP)
                == group.get(b, _REMAINDER_GROUP))

    def set_link_loss(self, src, dst, rate):
        if rate <= 0.0:
            self._link_loss.pop((src, dst), None)
        else:
            self._link_loss[(src, dst)] = rate
        self._sync_links()

    def set_burst(self, p_enter, p_exit, loss_bad, loss_good=0.0):
        """Arm burst loss; chains start fresh in the good state."""
        self._burst = (p_enter, p_exit, loss_bad, loss_good)
        self._burst_chains = {}
        self._sync_links()

    def clear_burst(self):
        self._burst = None
        self._burst_chains = {}
        self._sync_links()

    def degrade(self, region_a, region_b, latency_factor, extra_jitter_s):
        """Degrade (or restore) every link between the two regions."""
        wanted = frozenset((region_a, region_b))
        region = self.topology.region
        jitter_rng = self.sim.rng("chaos-jitter") if extra_jitter_s > 0 else None
        for link in self._links():
            if frozenset((region(link.src), region(link.dst))) != wanted:
                continue
            link.degrade(latency_factor, extra_jitter_s, jitter_rng)

    def set_gray(self, process_id, factor):
        """Slow a process's CPU by ``factor``; 1.0 restores full speed."""
        self.nodes[process_id].cpu.slowdown = factor
        if factor == 1.0:
            self.gray.pop(process_id, None)
        else:
            self.gray[process_id] = factor

    def is_crashed(self, process_id):
        return process_id in self.crashed

    def crash(self, process_id, duration=None):
        """Crash a process now (idempotent); recover it after ``duration``
        seconds when given."""
        if process_id not in self.crashed:
            self.crashed.add(process_id)
            self.nodes[process_id].crash()
            self.processes[process_id].crash()
        if duration is not None:
            self.sim.schedule(duration, self.recover, process_id)

    def recover(self, process_id):
        """Recover a crashed process now (no-op when it is not crashed)."""
        if process_id not in self.crashed:
            return
        self.crashed.discard(process_id)
        self.nodes[process_id].recover()
        self.processes[process_id].recover()

    def region_outage(self, region, duration=None):
        for pid in self.topology.processes_in_region(region):
            self.crash(pid, duration)

    # -- membership churn ----------------------------------------------------

    def _require_membership(self, kind):
        if self.membership is None:
            raise RuntimeError(
                "{} event requires membership to be configured".format(kind))
        return self.membership

    def membership_join(self, process_id):
        self._require_membership("join").join(process_id)

    def membership_leave(self, process_id):
        self._require_membership("leave").leave(process_id)

    def membership_rejoin(self, process_id):
        self._require_membership("rejoin").rejoin(process_id)
