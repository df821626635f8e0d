"""Network substrate: regions, latency model, channels, overlays, faults.

A channel is two :class:`DirectedLink` objects, one per direction, built
by :func:`connect`: each delivers straight into its destination node, and
each node keeps its outgoing links in ``links``.

This package replaces the paper's AWS/libp2p testbed with a simulated
network whose WAN latencies are anchored on the paper's Table 1. See
DESIGN.md §2 for the substitution rationale.
"""

from repro.net.regions import (
    REGIONS,
    COORDINATOR_REGION,
    TABLE1_LATENCY_MS,
    region_of_process,
)
from repro.net.topology import Topology
from repro.net.message import Payload
from repro.net.channel import DirectedLink, LinkConfig, connect
from repro.net.overlay import Overlay, generate_overlay
from repro.net.faults import (
    FaultEngine,
    FaultPlan,
    GilbertElliottLossInjector,
    ReceiverLossInjector,
)

__all__ = [
    "REGIONS",
    "COORDINATOR_REGION",
    "TABLE1_LATENCY_MS",
    "region_of_process",
    "Topology",
    "Payload",
    "DirectedLink",
    "LinkConfig",
    "connect",
    "Overlay",
    "generate_overlay",
    "FaultEngine",
    "FaultPlan",
    "GilbertElliottLossInjector",
    "ReceiverLossInjector",
]
