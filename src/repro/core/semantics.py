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
    """validate/aggregate/disaggregate with consensus knowledge (§3.2).

    The hooks are the compiled filter's and aggregator's own bound
    methods, which the gossip node calls without entering Python. A
    disabled technique's hook is None: the node makes no call for it (it
    admits every message, or sends a batch as it stands) and, as for any
    semantic hooks, still charges ``hook_s`` per message examined. A
    subclass that defines a hook keeps its own.
    """

    def __init__(self, n, enable_filtering=True, enable_aggregation=True):
        self.n = n
        self.enable_filtering = enable_filtering
        self.enable_aggregation = enable_aggregation
        self.filter = SemanticFilter(n) if enable_filtering else None
        self.aggregator = SemanticAggregator()
        cls = type(self)
        if cls.validate is SemanticHooks.validate:
            self.validate = (self.filter.validate if enable_filtering
                             else None)
        if cls.aggregate is SemanticHooks.aggregate:
            self.aggregate = (self.aggregator.aggregate if enable_aggregation
                              else None)
        # Disaggregation works even with local aggregation disabled: peers
        # running the full semantics may send us aggregated votes.
        if cls.disaggregate is SemanticHooks.disaggregate:
            self.disaggregate = self.aggregator.disaggregate
