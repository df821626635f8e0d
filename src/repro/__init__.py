"""repro — reproduction of "Gossip Consensus" (Middleware '21).

A deterministic discrete-event reimplementation of the paper's full system:
classic multi-instance Paxos, a push-gossip communication substrate, and
the paper's contribution — **Semantic Gossip**, a gossip layer augmented
with consensus-aware *semantic filtering* and *semantic aggregation* —
together with the complete experimental harness (three deployment setups,
open-loop regional clients, fault injection, and overlay sweeps).

Quickstart::

    from repro import ExperimentConfig, run_experiment

    report = run_experiment(ExperimentConfig(setup="semantic", n=13, rate=50))
    print(report.avg_latency_s, report.throughput)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

__version__ = "1.0.0"

from repro.runtime.config import ExperimentConfig, SETUPS
from repro.runtime.runner import run_experiment, run_deployment
from repro.runtime.parallel import run_experiments, parallel_map
from repro.runtime.metrics import MetricsReport
from repro.runtime.sweep import (
    workload_sweep,
    find_saturation_point,
    overlay_sweep,
    select_median_overlay,
    overlay_median_rtt_ms,
    loss_grid,
    fault_grid,
    SweepPoint,
    OverlayPoint,
)
from repro.core.semantics import PaxosSemantics
from repro.core.filtering import SemanticFilter
from repro.core.aggregation import SemanticAggregator
from repro.core.raft_semantics import RaftSemantics
from repro.gossip.hooks import SemanticHooks
from repro.gossip.node import GossipNode, GossipCosts
from repro.gossip.strategies import PullGossipNode, PushPullGossipNode
from repro.paxos.process import PaxosProcess, Communicator
from repro.paxos.spaxos import SPaxosProcess, ValueRef
from repro.raft.process import RaftProcess
from repro.net.faults.events import (
    FaultPlan,
    Partition,
    Heal,
    LinkLoss,
    BurstLoss,
    ClearBurstLoss,
    Degrade,
    GrayFailure,
    Crash,
    RegionOutage,
    Join,
    Leave,
    Rejoin,
)
from repro.membership import MembershipConfig, MembershipService
from repro.sim.kernel import Simulator

__all__ = [
    "ExperimentConfig",
    "SETUPS",
    "run_experiment",
    "run_deployment",
    "run_experiments",
    "parallel_map",
    "MetricsReport",
    "workload_sweep",
    "find_saturation_point",
    "overlay_sweep",
    "select_median_overlay",
    "overlay_median_rtt_ms",
    "loss_grid",
    "fault_grid",
    "SweepPoint",
    "OverlayPoint",
    "PaxosSemantics",
    "SemanticFilter",
    "SemanticAggregator",
    "RaftSemantics",
    "SemanticHooks",
    "GossipNode",
    "GossipCosts",
    "PullGossipNode",
    "PushPullGossipNode",
    "PaxosProcess",
    "SPaxosProcess",
    "ValueRef",
    "RaftProcess",
    "Communicator",
    "FaultPlan",
    "Partition",
    "Heal",
    "LinkLoss",
    "BurstLoss",
    "ClearBurstLoss",
    "Degrade",
    "GrayFailure",
    "Crash",
    "RegionOutage",
    "Join",
    "Leave",
    "Rejoin",
    "MembershipConfig",
    "MembershipService",
    "Simulator",
]
