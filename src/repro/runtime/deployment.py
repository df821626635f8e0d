"""Deployment builders for the paper's three setups (§4.1).

* **Baseline** — the coordinator opens channels to all other processes
  (star); classic three-phase Paxos with direct communication.
* **Gossip** — each process opens channels to ~log2(n) random processes;
  all Paxos communication is epidemic broadcast over the resulting overlay.
* **Semantic Gossip** — same overlay and gossip layer, with the
  :class:`repro.core.PaxosSemantics` hooks installed.

For a fair comparison (paper §4.2), Gossip and Semantic Gossip runs with
the same ``overlay_seed`` use the *same* overlay.
"""

from repro.core.semantics import PaxosSemantics
from repro.gossip.cache import InternedSeenCache
from repro.gossip.node import GossipNode
from repro.gossip.strategies import PullGossipNode, PushPullGossipNode
from repro.membership.service import MembershipService
from repro.net.channel import connect
from repro.net.faults.engine import FaultEngine
from repro.net.faults.loss import ReceiverLossInjector
from repro.net.message import UidInterner
from repro.net.overlay import generate_overlay
from repro.net.regions import synthetic_regions
from repro.net.topology import Topology
from repro.paxos.process import PaxosProcess
from repro.paxos.spaxos import SPaxosProcess
from repro.raft.process import RaftProcess
from repro.runtime.client import Client
from repro.runtime.communicators import BaselineCommunicator, GossipCommunicator
from repro.runtime.direct import DirectNode
from repro.runtime.metrics import MetricsCollector
from repro.sim.kernel import Simulator
from repro.sim.random import make_stream

#: Entries each node's recently-seen cache holds (paper §3.3): an
#: :class:`InternedSeenCache` over the deployment's interner.
DEDUP_CACHE_CAPACITY = 200_000


class Deployment:
    """A fully wired simulated system, ready to run."""

    def __init__(self, config, sim, topology, overlay, nodes, processes,
                 clients, collector, loss_injector,
                 fault_engine=None, membership=None, obs=None,
                 interner=None):
        self.config = config
        self.sim = sim
        self.topology = topology
        self.overlay = overlay          # None in the Baseline setup
        self.nodes = nodes              # GossipNode or DirectNode per process
        self.processes = processes
        self.clients = clients
        self.collector = collector
        self.loss_injector = loss_injector
        self.fault_engine = fault_engine
        self.membership = membership    # MembershipService or None
        self.obs = obs                  # repro.obs Tracer or None
        self.interner = interner        # UidInterner or None (baseline)

    def start(self):
        """Schedule startup: every process at t=0 (the coordinator runs
        Phase 1), then nodes and clients, then the fault plan's events and
        the membership layer when configured."""
        if self.obs is not None:
            # Hook installation is pure attribute wiring plus the sampler's
            # first tick (at t = tick_interval > 0); nothing at t=0 moves.
            self.obs.install(self)
        for process in self.processes:
            # Startup is order-insensitive by design: process.start only
            # arms per-process timers, and the list order is the fixed
            # process-id order, so the push-order tie at t=0 is stable.
            self.sim.schedule(0.0, process.start)
        for node in self.nodes:
            node.start()
        for client in self.clients:
            client.start()
        if self.fault_engine is not None:
            self.fault_engine.install()
        if self.membership is not None:
            self.membership.install()

    def run(self, census=None):
        """Run the simulation to the end of the configured horizon;
        ``census`` is :meth:`repro.sim.kernel.Simulator.run`'s."""
        self.sim.run(until=self.config.end_of_run, census=census)


def _connect_pair(config, topology, nodes, a, b, loss_hook):
    """Create the two directed links of one bi-directional channel,
    ``a -> b`` first."""
    connect(nodes[a], nodes[b], topology.latency_s(a, b), config.link,
            loss_hook)
    connect(nodes[b], nodes[a], topology.latency_s(b, a), config.link,
            loss_hook)


def build_deployment(config, auditor=None, obs=None):
    """Construct the simulated system described by ``config``.

    ``auditor`` (a :class:`repro.checks.auditor.RaceAuditor`) arms the
    simulator's event/RNG instrumentation for the whole run, including the
    t=0 startup events scheduled here; it never changes what the run
    computes.

    ``obs`` (a :class:`repro.obs.ObsConfig`) builds a
    :class:`repro.obs.Tracer` for the run, installed at
    :meth:`Deployment.start`. Deliberately *not* an ``ExperimentConfig``
    field — the config describes what a run computes, and tracing must
    never change that.
    """
    n = config.n
    sim = Simulator(config.seed, auditor=auditor)
    if config.num_regions is None:
        topology = Topology(n)
    else:
        topology = Topology(n, matrix_ms=synthetic_regions(
            config.num_regions, config.region_seed))
    collector = MetricsCollector()
    loss_injector = (
        ReceiverLossInjector(sim, config.loss_rate) if config.loss_rate > 0 else None
    )

    # Nodes first, then their links, then the peer sets. No node or link
    # constructor draws from an RNG or schedules an event (a jittered
    # link only looks up its named stream), so the order moves nothing;
    # each node's ``links`` fills in connect order.
    overlay = None
    overlay_rng = None
    interner = None
    nodes = []
    communicators = []

    if config.setup == "baseline":
        for i in range(n):
            node = DirectNode(sim, i, config.costs)
            nodes.append(node)
            communicators.append(BaselineCommunicator(node, config.coordinator_id))
        for i in range(n):
            if i != config.coordinator_id:
                _connect_pair(config, topology, nodes, config.coordinator_id,
                              i, loss_injector)
    else:
        overlay_rng = make_stream(config.effective_overlay_seed, "overlay")
        overlay = generate_overlay(n, config.effective_k, overlay_rng,
                                   family=config.overlay_family)
        semantic = config.setup == "semantic"
        interner = UidInterner()
        for i in range(n):
            hooks = (
                PaxosSemantics(
                    n,
                    enable_filtering=config.enable_filtering,
                    enable_aggregation=config.enable_aggregation,
                )
                if semantic
                else None
            )
            common = dict(
                costs=config.costs,
                hooks=hooks,
                cache=InternedSeenCache(DEDUP_CACHE_CAPACITY, interner),
                send_queue_capacity=config.send_queue_capacity,
            )
            if config.gossip_strategy == "push":
                node = GossipNode(sim, i, **common)
            elif config.gossip_strategy == "pull":
                node = PullGossipNode(sim, i,
                                      pull_interval=config.pull_interval,
                                      **common)
            else:
                node = PushPullGossipNode(sim, i,
                                          pull_interval=config.pull_interval,
                                          **common)
            nodes.append(node)
            communicators.append(GossipCommunicator(node))
        for edge in overlay.edges:
            a, b = sorted(edge)
            _connect_pair(config, topology, nodes, a, b, loss_injector)
        for i in range(n):
            nodes[i].add_peers(overlay.peers(i))

    processes = []
    for i in range(n):
        if config.protocol == "raft":
            process = RaftProcess(
                sim, i, n, communicators[i],
                leader_id=config.coordinator_id,
                retransmit_timeout=config.retransmit_timeout,
            )
        else:
            process_class = SPaxosProcess if config.spaxos else PaxosProcess
            process = process_class(
                sim, i, n, communicators[i],
                coordinator_id=config.coordinator_id,
                retransmit_timeout=config.retransmit_timeout,
            )
        nodes[i].deliver = process.handle
        processes.append(process)

    clients = []
    num_clients = config.effective_num_clients
    client_start = max(0.25, config.warmup * 0.5)
    per_client_rate = config.rate / num_clients
    for client_id in range(num_clients):
        process = processes[client_id]
        client = Client(
            sim, client_id, process,
            rate=per_client_rate,
            value_size=config.value_size,
            lan_delay_s=topology.client_latency_s(client_id),
            collector=collector,
            start_at=client_start,
            stop_at=config.end_of_workload,
            phase=(client_id / num_clients) / per_client_rate,
        )
        process.deliver_to(client.notify)
        clients.append(client)

    fault_plan = config.fault_plan
    fault_engine = None
    if fault_plan is not None:
        fault_engine = FaultEngine(sim, topology, nodes, processes,
                                   fault_plan)

    membership = None
    if config.membership is not None:
        # Reuses the deployment's "overlay" stream so repair/join edges are
        # a deterministic continuation of the initial overlay draw.
        def _lazy_connect(a, b):
            if b in nodes[a].links:
                return False
            _connect_pair(config, topology, nodes, a, b, loss_injector)
            return True

        membership = MembershipService(
            sim, config, nodes, processes, overlay_rng, _lazy_connect)
        if fault_engine is not None:
            fault_engine.membership = membership
            membership.fault_engine = fault_engine

    tracer = None
    if obs is not None:
        # Imported lazily so untraced runs never load the obs package.
        from repro.obs.spans import Tracer

        tracer = Tracer(sim, config, obs)

    return Deployment(config, sim, topology, overlay, nodes, processes,
                      clients, collector, loss_injector, fault_engine,
                      membership, obs=tracer, interner=interner)
