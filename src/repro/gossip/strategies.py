"""Pull and push-pull dissemination strategies (paper §2.2).

The paper adopts the *push* strategy (implemented by
:class:`repro.gossip.node.GossipNode`) but notes that its contributions
extend to the other two classic strategies:

* **pull** — processes periodically ask selected peers for updates they
  are missing. :class:`PullGossipNode` disables eager forwarding entirely;
  a broadcast only seeds the origin's message store, and propagation
  happens through periodic digest/response exchanges.
* **push-pull** — eager push plus a periodic pull used as an anti-entropy
  repair (the Bimodal-Multicast arrangement): messages lost on the push
  path are recovered on a later pull round. :class:`PushPullGossipNode`.

Pull exchanges are point-to-point control traffic: a
:class:`PullRequest` carries a digest of the requester's recently seen
message ids; the peer answers with a :class:`PullResponse` carrying the
stored messages absent from that digest. Both travel through the normal
per-peer send routines (so they share links fairly with data traffic) but
are intercepted before the gossip flooding logic — they are not themselves
gossiped.
"""

from repro.gossip.node import GossipNode
from repro.net.message import Payload

#: Bytes charged per message id inside a digest.
DIGEST_ENTRY_BYTES = 16

#: Maximum messages returned by one pull response.
MAX_RESPONSE_MESSAGES = 64


class MessageStore:
    """Bounded insertion-ordered store of recent payloads, by uid."""

    __slots__ = ("capacity", "_entries")

    def __init__(self, capacity=10_000):
        self.capacity = capacity
        self._entries = {}

    def __len__(self):
        return len(self._entries)

    def __contains__(self, uid):
        return uid in self._entries

    def add(self, payload):
        entries = self._entries
        if payload.uid in entries:
            return
        entries[payload.uid] = payload
        if len(entries) > self.capacity:
            entries.pop(next(iter(entries)))

    def missing_from(self, digest, limit=MAX_RESPONSE_MESSAGES):
        """Stored payloads whose uid is not in ``digest`` (newest last)."""
        out = []
        for uid, payload in self._entries.items():
            if uid not in digest:
                out.append(payload)
                if len(out) >= limit:
                    break
        return out

    def digest(self):
        return frozenset(self._entries)


class PullRequest(Payload):
    """Digest of the requester's seen messages; asks for what's missing."""

    __slots__ = ("requester", "known")

    def __init__(self, requester, known, seq):
        super().__init__(("PULLREQ", requester, seq),
                         64 + DIGEST_ENTRY_BYTES * len(known))
        self.requester = requester
        self.known = known


class PullResponse(Payload):
    """Messages the peer had that the requester was missing."""

    __slots__ = ("payloads",)

    def __init__(self, responder, payloads, seq):
        payloads = tuple(payloads)
        super().__init__(("PULLRSP", responder, seq),
                         64 + sum(p.size_bytes for p in payloads))
        self.payloads = payloads


class PullGossipNode(GossipNode):
    """Pull-only dissemination: no eager forwarding, periodic digests."""

    def __init__(self, sim, process_id, pull_interval=0.05, pull_fanout=1,
                 store_capacity=10_000, **kwargs):
        super().__init__(sim, process_id, **kwargs)
        self.pull_interval = pull_interval
        self.pull_fanout = pull_fanout
        self.store = MessageStore(store_capacity)
        self.pull_requests_sent = 0
        self.pull_responses_sent = 0
        self.pull_messages_recovered = 0
        self._pull_seq = 0
        self._pull_timer = None

    def start(self):
        """Begin the periodic pull rounds (phase-shifted per process)."""
        if self._pull_timer is None:
            offset = (self.process_id % 16) * self.pull_interval / 16.0
            self.after(offset, self._arm_timer)

    def _arm_timer(self):
        self._pull_timer = self.every(self.pull_interval, self._pull_round)

    def stop(self):
        if self._pull_timer is not None:
            self._pull_timer.stop()
            self._pull_timer = None

    # -- dissemination ------------------------------------------------------

    def broadcast(self, payload):
        if not self.alive:
            return
        self.stats.broadcasts += 1
        if not self.cache.register_payload(payload):
            return
        self.store.add(payload)
        self.cpu.submit_timed(self.costs.recv_fresh_s, self._complete,
                              payload, None)

    def _complete(self, payload, src):
        """Store and deliver a fresh ``payload``; pull never forwards."""
        self.store.add(payload)
        self.stats.delivered += 1
        self._deliver(payload)

    def _pull_round(self):
        peers = self.peers()
        if not peers or not self.alive:
            return
        rng = self.sim.rng("pull-{}".format(self.process_id))
        targets = rng.sample(peers, min(self.pull_fanout, len(peers)))
        digest = self.store.digest()
        for peer_id in targets:
            self._pull_seq += 1
            self.pull_requests_sent += 1
            request = PullRequest(self.process_id, digest, self._pull_seq)
            self._send(request, ((peer_id, self._senders[peer_id]),))

    # -- receive path --------------------------------------------------------

    def _on_link_receive(self, src, payload):
        if not self.alive:
            return
        kind = type(payload)
        if kind is PullRequest:
            self.stats.received += 1
            self.cpu.submit_timed(self.costs.recv_fresh_s,
                                  self._answer_pull, src, payload)
            return
        if kind is PullResponse:
            self.stats.received += 1
            service = self.costs.recv_fresh_s * max(1, len(payload.payloads))
            self.cpu.submit_timed(service, self._absorb_pull, src, payload)
            return
        super()._on_link_receive(src, payload)

    def _answer_pull(self, src, request):
        missing = self.store.missing_from(request.known)
        if not missing:
            return
        self._pull_seq += 1
        self.pull_responses_sent += 1
        response = PullResponse(self.process_id, missing, self._pull_seq)
        sender = self._senders.get(src)
        if sender is not None:
            self._send(response, ((src, sender),))

    def _absorb_pull(self, src, response):
        for payload in response.payloads:
            if payload.aggregated:
                parts = self.hooks.disaggregate(payload)
            else:
                parts = (payload,)
            for part in parts:
                if not self.cache.register_payload(part):
                    continue
                self.pull_messages_recovered += 1
                self._complete(part, src)


class PushPullGossipNode(PullGossipNode):
    """Eager push with periodic pull as anti-entropy repair."""

    def __init__(self, sim, process_id, pull_interval=0.2, pull_fanout=1,
                 **kwargs):
        super().__init__(sim, process_id, pull_interval=pull_interval,
                         pull_fanout=pull_fanout, **kwargs)

    def _complete(self, payload, src):
        """Store, deliver and push-forward a fresh ``payload``: pushed and
        pulled messages alike enter the store, so later pull rounds can
        serve them."""
        self.store.add(payload)
        GossipNode._complete(self, payload, src)
