"""Online safety invariant monitor.

A :class:`SafetyMonitor` interposes on a deployment's delivery path (the
``node.deliver -> process.handle`` edge every message crosses, including
local broadcasts), on every process's state-machine delivery and on its
semantic hooks, and checks five invariants while the simulation runs:

* **agreement** — no two learners decide different values for one
  instance (García-Pérez et al. call this the essential Paxos safety
  property; everything else exists to uphold it);
* **total-order** — each process hands instances 1, 2, 3 … to its state
  machine, gap-free and without repeats (a buggy semantic rule starves a
  process rather than corrupt it; :meth:`SafetyMonitor.laggards` reports
  who fell behind);
* **ballot-monotonicity** — an acceptor's promised round never decreases,
  and its accepted round per instance never decreases;
* **quorum** — every decided value is backed by Phase 2b votes from a
  majority of distinct acceptors in some round (checked at
  :meth:`finalize`, once all votes have been observed). Under dynamic
  membership the check is **epoch-aware**: each ballot is stamped with the
  membership epoch in force when it is first observed, and its quorum is
  judged against that epoch's member set and majority — votes from
  processes that were not members of the ballot's epoch do not count;
* **aggregation-reversibility** — semantic aggregation neither loses nor
  invents votes: flattening a send batch through ``disaggregate`` before
  and after ``aggregate`` yields the same multiset of message uids
  (paper §3.2's reversibility requirement).

The monitor is *observational*: it never mutates protocol state, so an
armed run produces byte-identical results to an unarmed one. In ``strict``
mode (the default) it raises :class:`InvariantViolation` at the instant an
invariant breaks — inside the simulated event that broke it, which makes
the failing traceback point at the culprit. With ``strict=False`` it
records violations and keeps watching, the mode ``repro check
--invariants`` uses to report all of them at once.
"""

from collections import Counter

from repro.gossip.hooks import SemanticHooks
from repro.paxos.messages import mask_senders


class InvariantViolation(AssertionError):
    """Raised the moment a Paxos safety invariant breaks (strict mode)."""


class Violation:
    """One recorded invariant violation."""

    __slots__ = ("invariant", "message")

    def __init__(self, invariant, message):
        self.invariant = invariant
        self.message = message

    def to_dict(self):
        return {"invariant": self.invariant, "message": self.message}

    def __repr__(self):
        return "Violation({}: {})".format(self.invariant, self.message)

    def __str__(self):
        return "[{}] {}".format(self.invariant, self.message)


class CheckedHooks(SemanticHooks):
    """Wraps a deployment's :class:`SemanticHooks` with reversibility checks.

    Delegates every call to the wrapped hooks and verifies, per aggregate
    batch, that no vote is lost or invented. Installed per node by
    :meth:`SafetyMonitor.attach`; usable standalone in unit tests.
    """

    def __init__(self, inner, monitor, node_id=None):
        self.inner = inner
        self.monitor = monitor
        self.node_id = node_id

    def validate(self, payload, peer_id):
        return self.inner.validate(payload, peer_id)

    def aggregate(self, payloads, peer_id):
        result = self.inner.aggregate(payloads, peer_id)
        self.monitor.check_aggregation(self.inner, payloads, result,
                                       node_id=self.node_id)
        return result

    def disaggregate(self, payload):
        parts = self.inner.disaggregate(payload)
        self.monitor.check_disaggregation(payload, parts,
                                          node_id=self.node_id)
        return parts


class SafetyMonitor:
    """Online checker for Paxos safety under gossip dissemination.

    Parameters
    ----------
    strict:
        Raise :class:`InvariantViolation` at the first violation (default).
        When False, violations accumulate in :attr:`violations`.
    majority:
        Quorum size for the final decided-value check. Filled in from the
        deployment config by :meth:`attach`; pass explicitly when feeding
        the monitor fabricated events in tests.
    """

    def __init__(self, strict=True, majority=None):
        self.strict = strict
        self.majority = majority
        self.violations = []
        #: instance -> value_id first decided anywhere.
        self.chosen = {}
        #: process id -> next instance its state machine expects.
        self._next_delivery = {}
        #: acceptor id -> highest promised round observed.
        self._promised = {}
        #: (acceptor id, instance) -> highest accepted round observed.
        self._accepted = {}
        #: (instance, round, value_id) -> set of distinct voters.
        self._votes = {}
        self.messages_observed = 0
        self.decisions_observed = 0
        self.deliveries = 0
        self.aggregates_checked = 0
        self._check_quorum = True
        self._finalized = False
        self._deployment = None
        #: MembershipView under dynamic membership (None = static quorums).
        self._view = None
        #: (instance, round) -> membership epoch at first observation.
        self._ballot_epochs = {}

    # -- wiring ------------------------------------------------------------

    def attach(self, deployment):
        """Arm the monitor on a freshly built (not yet started) deployment."""
        config = deployment.config
        self.majority = config.majority
        # Quorum and ballot accounting follow Phase 2b votes and acceptor
        # state, which only the Paxos family has; Raft runs are checked
        # for agreement and total order.
        self._check_quorum = config.protocol == "paxos"
        self._deployment = deployment
        membership = deployment.membership
        self._view = membership.view if membership is not None else None
        for node, process in zip(deployment.nodes, deployment.processes):
            self._instrument_node(node, process)
            self._instrument_delivery(process)
        return self

    def _instrument_node(self, node, process):
        downstream = node.deliver      # build_deployment wired process.handle
        acceptor = process.acceptor if self._check_quorum else None
        process_id = process.process_id

        def deliver(payload):
            self.observe_payload(process_id, payload)
            downstream(payload)
            if acceptor is not None:
                self.record_promise(process_id, acceptor.promised_round)
                instance = getattr(payload, "instance", None)
                if instance is not None and instance in acceptor.accepted:
                    accepted_round, _ = acceptor.accepted[instance]
                    self.record_accept(process_id, instance, accepted_round)

        node.deliver = deliver
        if node.hooks is not None:
            node.hooks = CheckedHooks(node.hooks, self, node_id=process_id)

    def _instrument_delivery(self, process):
        process_id = process.process_id

        def observe(instance, value):
            self.record_delivery(process_id, instance, value.value_id)
            if downstream is not None:
                downstream(instance, value)

        downstream = process.deliver_to(observe)

    # -- event feeds -------------------------------------------------------

    def observe_payload(self, process_id, payload):
        """Feed one delivered message; votes and decisions are recorded."""
        self.messages_observed += 1
        uid = getattr(payload, "uid", None)
        kind = uid[0] if isinstance(uid, tuple) and uid else None
        if self._view is not None and kind in ("2A", "2B", "A2B"):
            # Stamp the ballot with the membership epoch in force when it
            # is first seen; finalize() judges its quorum in that epoch.
            self._ballot_epochs.setdefault(
                (payload.instance, payload.round), self._view.epoch)
        if kind == "2B":
            self.record_vote(payload.sender, payload.instance,
                             payload.round, payload.value_id)
        elif kind == "A2B":
            # Aggregates are normally disaggregated by the gossip layer
            # before delivery; accept them anyway for direct feeds.
            for sender in mask_senders(payload.senders):
                self.record_vote(sender, payload.instance,
                                 payload.round, payload.value_id)
        elif kind == "DEC":
            self.record_decision(process_id, payload.instance,
                                 payload.value.value_id, via="Decision")

    def record_vote(self, acceptor_id, instance, round_, value_id):
        """One Phase 2b vote from ``acceptor_id``."""
        key = (instance, round_, value_id)
        voters = self._votes.get(key)
        if voters is None:
            voters = set()
            self._votes[key] = voters
        voters.add(acceptor_id)

    def record_decision(self, process_id, instance, value_id, via="delivery"):
        """A learner at ``process_id`` decided ``value_id`` for ``instance``."""
        self.decisions_observed += 1
        first = self.chosen.get(instance)
        if first is None:
            self.chosen[instance] = value_id
        elif first != value_id:
            self._violate(
                "agreement",
                "instance {}: process {} decided {!r} (via {}) but {!r} was "
                "already decided elsewhere".format(
                    instance, process_id, value_id, via, first),
            )

    def record_delivery(self, process_id, instance, value_id):
        """``process_id`` handed ``instance`` to its state machine."""
        self.deliveries += 1
        expected = self._next_delivery.get(process_id, 1)
        if instance != expected:
            self._violate(
                "total-order",
                "process {} delivered instance {} but expected {} "
                "(gap-free order violated)".format(
                    process_id, instance, expected),
            )
        self._next_delivery[process_id] = instance + 1
        self.record_decision(process_id, instance, value_id)

    def laggards(self):
        """process id -> next expected instance, for every process behind
        the most advanced delivery frontier."""
        if not self._next_delivery:
            return {}
        frontier = max(self._next_delivery.values())
        return {
            process_id: next_instance
            for process_id, next_instance in self._next_delivery.items()
            if next_instance < frontier
        }

    def record_promise(self, acceptor_id, round_):
        """Acceptor's current promised round; must never decrease."""
        previous = self._promised.get(acceptor_id, 0)
        if round_ < previous:
            self._violate(
                "ballot-monotonicity",
                "acceptor {}: promised round regressed from {} to {}".format(
                    acceptor_id, previous, round_),
            )
        else:
            self._promised[acceptor_id] = round_

    def record_accept(self, acceptor_id, instance, round_):
        """Acceptor's accepted round for an instance; must never decrease."""
        key = (acceptor_id, instance)
        previous = self._accepted.get(key, 0)
        if round_ < previous:
            self._violate(
                "ballot-monotonicity",
                "acceptor {}: accepted round for instance {} regressed "
                "from {} to {}".format(acceptor_id, instance, previous, round_),
            )
        else:
            self._accepted[key] = round_

    # -- aggregation -------------------------------------------------------

    def check_aggregation(self, hooks, inputs, outputs, node_id=None):
        """Verify ``aggregate`` preserved the vote multiset (reversibility).

        Both sides are flattened through ``disaggregate`` so re-aggregation
        of already-aggregated votes (paper §3.2) is compared fairly.
        """
        self.aggregates_checked += 1
        before = self._flatten_uids(hooks, inputs)
        after = self._flatten_uids(hooks, outputs)
        if before != after:
            lost = sorted(str(uid) for uid in (before - after))
            invented = sorted(str(uid) for uid in (after - before))
            where = "" if node_id is None else " at node {}".format(node_id)
            self._violate(
                "aggregation-reversibility",
                "aggregate(){} is not reversible: lost {}; invented {}".format(
                    where, lost or "nothing", invented or "nothing"),
            )

    def check_disaggregation(self, payload, parts, node_id=None):
        """Verify ``disaggregate`` reconstructed a plausible original set."""
        if not getattr(payload, "aggregated", False):
            return
        if not parts:
            where = "" if node_id is None else " at node {}".format(node_id)
            self._violate(
                "aggregation-reversibility",
                "disaggregate(){} returned no messages for aggregated "
                "payload {!r}".format(where, payload.uid),
            )

    @staticmethod
    def _flatten_uids(hooks, payloads):
        flat = Counter()
        for payload in payloads:
            if getattr(payload, "aggregated", False):
                for part in hooks.disaggregate(payload):
                    flat[part.uid] += 1
            else:
                flat[payload.uid] += 1
        return flat

    # -- end-of-run checks -------------------------------------------------

    def finalize(self):
        """Run end-of-run checks; returns the violation list.

        Checks cross-process agreement over each process's full
        ``decided_values()`` map — Paxos learner state or Raft's committed
        log prefix, catching decisions that never reached state-machine
        delivery because of gaps — and, for Paxos, that every chosen value
        is backed by a quorum of observed votes.
        """
        if self._finalized:
            return self.violations
        self._finalized = True
        if self._deployment is not None:
            for process in self._deployment.processes:
                for instance, value in sorted(
                        process.decided_values().items()):
                    self.record_decision(process.process_id, instance,
                                         value.value_id, via="final state")
        if self._check_quorum and self.majority:
            for instance, value_id in sorted(self.chosen.items()):
                if not self._has_quorum(instance, value_id):
                    best = self._best_vote_count(instance, value_id)
                    self._violate(
                        "quorum",
                        "instance {}: decided {!r} with only {} observed "
                        "vote(s) in its best round; majority is {}".format(
                            instance, value_id, best, self.majority),
                    )
        return self.violations

    def _has_quorum(self, instance, value_id):
        view = self._view
        for (vote_instance, round_, vote_value), voters in self._votes.items():
            if vote_instance != instance or vote_value != value_id:
                continue
            if view is not None:
                epoch = self._ballot_epochs.get((instance, round_))
                if epoch is not None:
                    members = view.epoch_members(epoch)
                    if (len(voters & members)
                            >= view.epoch_majority(epoch)):
                        return True
                    continue
            if len(voters) >= self.majority:
                return True
        return False

    def _best_vote_count(self, instance, value_id):
        counts = [
            len(voters)
            for (vote_instance, _, vote_value), voters in self._votes.items()
            if vote_instance == instance and vote_value == value_id
        ]
        return max(counts) if counts else 0

    # -- reporting ---------------------------------------------------------

    def _violate(self, invariant, message):
        violation = Violation(invariant, message)
        self.violations.append(violation)
        if self.strict:
            raise InvariantViolation(str(violation))

    def summary(self):
        """Counters for the CLI report."""
        return {
            "messages_observed": self.messages_observed,
            "decisions_observed": self.decisions_observed,
            "instances_decided": len(self.chosen),
            "aggregates_checked": self.aggregates_checked,
            "violations": len(self.violations),
        }
