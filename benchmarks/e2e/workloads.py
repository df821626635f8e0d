"""The benchmark's five workloads, defined here and nowhere else.

Nothing is imported from ``repro.perf.scenarios``: an edit there must not
silently change the load this benchmark applies. Every workload is one
single-process, single-thread simulation; the clients inside it are the
paper's open-loop clients at a fixed offered rate, and the injected message
delay is the Table 1 WAN matrix (13 regions) by construction.

Sizes are cut from the issue's starting points (0.3-0.8M events) to
0.11-0.18M events so that one driver run — set-up loop, check pass, memory
pass (5x a plain run) and ``--seconds`` of timed repeats — ends inside 30 s
on a 2-core sandbox whose speed swings by 2x, with five or more repeats.
"""

import random

from repro.gossip.node import GossipCosts
from repro.membership import MembershipConfig
from repro.net.faults.events import Crash, FaultPlan, Rejoin
from repro.runtime.config import ExperimentConfig

#: Overlay of every gossip workload unless ``--overlay-seed`` says otherwise:
#: a different overlay is a different system, not a different input.
OVERLAY_SEED = 11

#: With jitter-free links and no loss the simulator ignores
#: ``ExperimentConfig.seed``, and four workloads would be the same input on
#: every seed. So the seed also draws the offered rate within this share of
#: nominal (moving every submission time) and the value size within
#: VALUE_SIZE_SPREAD bytes of the paper's 1 KB (moving every wire time).
RATE_SPREAD = 0.005
VALUE_SIZE_SPREAD = 24


class Workload:
    """One named input set: ``config(seed, overlay_seed)`` builds it."""

    def __init__(self, name, why, fields, rejoin_at=None):
        self.name = name
        self.why = why
        self.fields = fields
        #: Simulated time of the coordinator's Rejoin; the check pass
        #: demands a decision after it. None on fault-free workloads.
        self.rejoin_at = rejoin_at

    def config(self, seed, overlay_seed=OVERLAY_SEED):
        fields = dict(self.fields)
        # A private generator, not repro.sim.random.make_stream: how the
        # inputs derive from the seed must not move with the code under test.
        rng = random.Random(seed)
        fields["rate"] *= 1.0 + rng.uniform(-RATE_SPREAD, RATE_SPREAD)
        fields["value_size"] = 1024 + rng.randint(
            -VALUE_SIZE_SPREAD, VALUE_SIZE_SPREAD)
        return ExperimentConfig(seed=seed, overlay_seed=overlay_seed, **fields)


REJOIN_AT = 1.2


def _failover_fields():
    coordinator = 12
    return dict(
        setup="semantic", n=13, rate=78.0, warmup=0.4, duration=1.4,
        drain=2.0,
        # Clients sit on processes 0..11, so the crashed coordinator serves
        # none and no value is lost with its host.
        coordinator_id=coordinator, num_clients=12,
        # 0.5 % receiver-side loss: every arrival takes the loss-hook path
        # and ~500 messages drop per run, but a node missing every copy of
        # a decision (which stalls its client for good) stays below one run
        # in a thousand; at 2-5 % it is one run in fifty to one in four.
        loss_rate=0.005, retransmit_timeout=0.25,
        membership=MembershipConfig(
            heartbeat_interval=0.04, suspicion_timeout=0.15,
            dead_timeout=0.3, initial_members=tuple(range(13)),
            election_backoff=0.15, election_backoff_max=0.6,
            election_jitter=0.03),
        # The outage (~0.5 s to detect, elect and resume) covers a third
        # of the window, so the median latency stays a no-fault latency and
        # the tail is the outage.
        faults=FaultPlan([(0.5, Crash(coordinator)),
                          (REJOIN_AT, Rejoin(coordinator))]),
    )


def _slow_cpu_costs(factor):
    """The paper's CPU cost model with every service time scaled."""
    base = GossipCosts()
    return GossipCosts(**{name: getattr(base, name) * factor
                          for name in GossipCosts.__slots__})


WORKLOADS = {w.name: w for w in (
    Workload(
        "semantic_knee_n13",
        "paper's headline setup near the Fig. 3 knee; core filtering and "
        "aggregation plus gossip.node do most of the work",
        dict(setup="semantic", n=13, rate=200.0, warmup=0.4, duration=0.6,
             drain=2.0)),
    Workload(
        "gossip_overload_n13",
        "classic gossip offered 2.7x its saturation rate: deep send queues, "
        "70 % duplicates; sim.* dominates and core is bypassed",
        # Saturation needs the offered load to outlast the ~150 ms spread of
        # WAN delays; at the paper's costs (~1100/s) that is 400+ values and
        # 0.4M events. CPUs 8x slower saturate at ~150/s, so 160 values at
        # 400/s reach the same regime (p50 328 ms against 181 ms unloaded).
        dict(setup="gossip", n=13, rate=400.0, warmup=0.25, duration=0.4,
             drain=2.0, costs=_slow_cpu_costs(8.0))),
    Workload(
        "baseline_star_n13",
        "direct star, no gossip and no core: paxos and runtime have their "
        "largest share; the no-change control for gossip-layer work",
        dict(setup="baseline", n=13, rate=800.0, warmup=0.4, duration=1.5,
             drain=2.0)),
    Workload(
        "semantic_n100",
        "scale: 100-node overlay, interner and array dedup; the one place "
        "peak_mem_mb and setup_s are not negligible",
        # Three clients, one value each (the second would be due after the
        # workload ends whatever the seed's rate skew): at ~58k events per
        # decision, more does not fit.
        dict(setup="semantic", n=100, rate=12.0, warmup=0.2, duration=0.28,
             drain=1.2, num_clients=3)),
    Workload(
        "lossy_failover_n13",
        "coordinator crash and rejoin under loss: loss-hook link path, "
        "armed-then-cancelled timers, net.faults and membership election",
        _failover_fields(), rejoin_at=REJOIN_AT),
)}
