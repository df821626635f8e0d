"""The Semantic Gossip hooks.

:class:`PaxosSemantics` is the :class:`repro.gossip.hooks.SemanticHooks`
implementation a Semantic Gossip deployment installs in its gossip nodes,
for Paxos, S-Paxos and Raft alike: the filter and the aggregator know the
votes and decisions of both protocols. It composes the filtering and
aggregation techniques; each can be disabled independently, which the
ablation benchmarks use to attribute the paper's improvements to the
individual techniques.
"""

from repro.core.aggregation import SemanticAggregator
from repro.core.filtering import SemanticFilter
from repro.gossip.hooks import SemanticHooks


class PaxosSemantics(SemanticHooks):
    """validate/aggregate/disaggregate with consensus knowledge (§3.2)."""

    def __init__(self, n, enable_filtering=True, enable_aggregation=True):
        self.n = n
        self.enable_filtering = enable_filtering
        self.enable_aggregation = enable_aggregation
        self.filter = SemanticFilter(n) if enable_filtering else None
        self.aggregator = SemanticAggregator()
        # Unless a subclass overrides them, the gossip node calls the
        # compiled filter's and aggregator's own validate, aggregate and
        # disaggregate: no Python frame per (message, peer) or arrival.
        cls = type(self)
        if self.filter is not None and cls.validate is PaxosSemantics.validate:
            self.validate = self.filter.validate
        if enable_aggregation and cls.aggregate is PaxosSemantics.aggregate:
            self.aggregate = self.aggregator.aggregate
        if cls.disaggregate is PaxosSemantics.disaggregate:
            self.disaggregate = self.aggregator.disaggregate

    def validate(self, payload, peer_id):
        if self.filter is None:
            return True
        return self.filter.validate(payload, peer_id)

    def aggregate(self, payloads, peer_id):
        if not self.enable_aggregation:
            return payloads
        return self.aggregator.aggregate(payloads, peer_id)

    def disaggregate(self, payload):
        # Disaggregation must work even when local aggregation is disabled:
        # peers running the full semantics may send us aggregated votes.
        return self.aggregator.disaggregate(payload)
