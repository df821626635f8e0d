"""Classic multi-instance Paxos (paper §2.3).

Every process plays all three roles — proposer, acceptor, learner — and a
distinguished process acts as the coordinator. The implementation is
substrate-agnostic: it talks to the network only through the small
:class:`Communicator` interface, which the runtime binds either to direct
point-to-point links (Baseline setup) or to the gossip layer (Gossip and
Semantic Gossip setups). Per the paper's modularity requirement, nothing in
this package knows whether gossip — let alone Semantic Gossip — is beneath
it.
"""

from repro.paxos.messages import (
    Value,
    ClientValue,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Aggregated2b,
    Decision,
)
from repro.paxos.acceptor import Acceptor
from repro.paxos.learner import Learner
from repro.paxos.coordinator import Coordinator
from repro.paxos.log import DecisionLog
from repro.paxos.process import PaxosProcess, Communicator

__all__ = [
    "Value",
    "ClientValue",
    "Phase1a",
    "Phase1b",
    "Phase2a",
    "Phase2b",
    "Aggregated2b",
    "Decision",
    "Acceptor",
    "Learner",
    "Coordinator",
    "DecisionLog",
    "PaxosProcess",
    "Communicator",
]
