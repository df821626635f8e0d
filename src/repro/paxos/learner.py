"""The learner role.

A value is learned for an instance either when a Decision message arrives
or when identical Phase 2b votes from a majority of processes are observed
(paper §2.3/§3.1 — with gossip, Phase 2b messages reach everyone, so
processes need not wait for the coordinator's Decision).

The learner tracks votes per (instance, round, value_id). Because Phase 2b
carries only the value id, a majority may complete before the value content
is known (the Phase 2a may still be in flight); such decisions are held
*pending* until the value arrives via Phase 2a or Decision.
"""


class _InstanceState:
    __slots__ = ("votes", "values", "decided_value_id")

    def __init__(self):
        #: (round, value_id) -> voter bitmask (bit i for process i).
        self.votes = {}
        #: value_id -> Value, learned from Phase 2a / Decision messages.
        self.values = {}
        self.decided_value_id = None


class Learner:
    """Per-process decision tracker across all instances."""

    __slots__ = ("n", "majority", "_instances", "decided", "decided_by_majority",
                 "decided_by_message", "_forgotten", "on_quorum")

    def __init__(self, n):
        self.n = n
        self.majority = n // 2 + 1
        self._instances = {}
        #: instance -> Value, every decision this process learned.
        self.decided = {}
        self.decided_by_majority = 0   # learned from majority of 2b votes
        self.decided_by_message = 0    # learned from a Decision message
        self._forgotten = 0
        #: Optional ``on_quorum(instance, value_id)`` observer fired when a
        #: Phase 2b majority first forms here (repro.obs); None when unset.
        self.on_quorum = None

    def _state(self, instance):
        state = self._instances.get(instance)
        if state is None:
            state = _InstanceState()
            self._instances[instance] = state
        return state

    def is_decided(self, instance):
        return instance in self.decided

    def on_phase2a(self, msg):
        """Record the value content; may complete a pending majority.

        Returns the newly decided ``(instance, value)`` or None.
        """
        if msg.instance in self.decided or msg.instance <= self._forgotten:
            return None
        state = self._state(msg.instance)
        state.values[msg.value.value_id] = msg.value
        if state.decided_value_id == msg.value.value_id:
            return self._finalize(msg.instance, state, by_majority=True)
        return None

    def on_phase2b(self, msg):
        """Count a vote; returns newly decided ``(instance, value)`` or None."""
        if msg.instance in self.decided or msg.instance <= self._forgotten:
            return None
        state = self._state(msg.instance)
        key = (msg.round, msg.value_id)
        voters = state.votes.get(key, 0) | (1 << msg.sender)
        state.votes[key] = voters
        if voters.bit_count() >= self.majority and state.decided_value_id is None:
            state.decided_value_id = msg.value_id
            if self.on_quorum is not None:
                self.on_quorum(msg.instance, msg.value_id)
            if msg.value_id in state.values:
                return self._finalize(msg.instance, state, by_majority=True)
        return None

    def on_decision(self, msg):
        """Record a Decision message; returns ``(instance, value)`` or None."""
        if msg.instance in self.decided or msg.instance <= self._forgotten:
            return None
        state = self._state(msg.instance)
        state.values[msg.value.value_id] = msg.value
        state.decided_value_id = msg.value.value_id
        return self._finalize(msg.instance, state, by_majority=False)

    def _finalize(self, instance, state, by_majority):
        value = state.values[state.decided_value_id]
        self.decided[instance] = value
        if by_majority:
            self.decided_by_majority += 1
        else:
            self.decided_by_message += 1
        del self._instances[instance]
        return (instance, value)

    def forget_up_to(self, instance):
        """Compact vote state for instances <= ``instance``."""
        if instance <= self._forgotten:
            return
        for i in range(self._forgotten + 1, instance + 1):
            self._instances.pop(i, None)
        self._forgotten = instance
