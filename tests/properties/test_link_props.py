"""Property tests: a link's bookkeeping is exact and O(in-flight).

A random interleaving of every way to hand a :class:`DirectedLink` a message
(``commit`` / ``transmit``), the calls that
rewrite its committed work (``degrade`` / ``restore`` /
``abort_pending_chain``), clock advances and ``stats`` probes is replayed
against a brute-force reference: a flat list of every message ever accepted
with its serialisation completion recomputed from first principles (FIFO
wire: ``max(now, previous completion) + service``). At every probe ``sent``
and ``bytes_sent`` must equal a recount over that whole list, every arrival
must land at ``completion + latency`` plus a draw inside the jitter window
in force when it was (last) committed, and at the end the link and the
receiver agree on how many messages there were.

A link is its own serialiser (``_busy_until``, the slots of the message
committed on an idle wire and the records of those committed behind a busy
one); the second property holds it to the transmission *server* it
replaced: a like interleaving — now with bounded transmit queues, bursts
that fill them and ``commit`` on a busy link — drives a
:class:`DirectedLink` and a reference link built on the event-per-job
``LegacyFifoServer`` (tests/sim/reference_server.py), and every verdict,
completion, arrival and counter must coincide.

The third property holds a star send, handed over when its CPU job is
accepted as ``transmit(payload, at)`` with ``at`` its completion (never
decreasing), to a second link transmitting the same payload at ``at``:
the verdicts, arrivals and counters coincide, latency-only degrades and
bounded queues included.

The memory half: a message committed on an idle wire goes into the link's
slots, never into a record, and each transmit first retires what has
completed. So right after a transmit, a probe or a degrade the slots hold
the unserialised message that was committed on an idle wire, if any, and
the records exactly the unserialised messages committed behind a busy one;
between those the records never grow. A sender that paces itself on an
idle link keeps no record and owns no deque (the regression at the
bottom); a committed round adds its unserialised chain.

Times are dyadic (a 2**-11 s tick; services of 3, 4 and 6 ticks) so
advances land exactly on completion instants and the ``<=`` edges of the
lazy drain are exercised without float noise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload
from repro.sim.kernel import Simulator
from tests.sim.reference_server import LegacyFifoServer

TICK = 2.0 ** -11
SIZES = st.sampled_from([512, 1024, 2048])
LATENCY = 2.0 ** -7
CONFIG = LinkConfig(per_message_s=2.0 ** -10, per_byte_s=2.0 ** -20)

OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["commit", "transmit"]), SIZES),
        st.tuples(st.just("advance"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.sampled_from(["probe", "abort", "restore"])),
        st.tuples(st.just("degrade"), st.sampled_from([0.5, 1.0, 2.0]),
                  st.sampled_from([0.0, 2.0 ** -9])),
    ),
    max_size=120,
)


class _Sent:
    """One accepted message as the reference remembers it."""

    __slots__ = ("size", "done", "idle", "latency", "jitter")

    def __init__(self, size, done, idle, latency, jitter):
        self.size = size
        self.done = done        # serialisation completion
        self.idle = idle        # committed on an idle wire
        self.latency = latency  # propagation parameters in force when
        self.jitter = jitter    # the arrival was (last) committed


def _records(link):
    """How many messages the link holds as records (behind a busy wire)."""
    return len(link._behind) if link._behind is not None else 0


class _Harness:
    def __init__(self):
        self.sim = Simulator(seed=3)
        self.delivered = 0
        self.link = DirectedLink(self.sim, 0, 1, LATENCY, CONFIG,
                                 self._deliver)
        self.latency = LATENCY
        self.jitter = 0.0
        self.messages = []      # accepted and not withdrawn, in order
        self.bound = 0

    def _deliver(self, src, payload):
        self.delivered += 1
        message = payload.data
        flight = self.sim.now - message.done - message.latency
        assert 0.0 <= flight <= message.jitter

    def unserialised(self):
        now = self.sim.now
        return [m for m in self.messages if m.done > now]

    def refresh_bound(self):
        waiting = self.unserialised()
        slot = [m for m in waiting if m.idle]
        assert slot == waiting[:1] or not slot     # only ever the oldest
        self.bound = len(waiting) - len(slot)
        link = self.link
        held = link._payload
        assert ([held.data] if held is not None else []) == slot
        assert _records(link) == self.bound

    # -- operations ----------------------------------------------------------

    def send(self, how, size):
        link = self.link
        free_at = self.messages[-1].done if self.messages else 0.0
        done = (max(self.sim.now, free_at)
                + CONFIG.per_message_s + size * CONFIG.per_byte_s)
        message = _Sent(size, done, free_at <= self.sim.now, self.latency,
                        self.jitter)
        payload = RawPayload(len(self.messages), size, data=message)
        if how == "commit":
            assert link.commit(payload, (payload,), self.sim.now) == done
        else:
            assert link.transmit(payload)
        self.messages.append(message)
        self.refresh_bound()

    def degrade(self, factor=1.0, extra_jitter=0.0):
        self.link.degrade(factor, extra_jitter, self.sim.rng("test-jitter"))
        self.latency = LATENCY * factor
        self.jitter = extra_jitter
        for message in self.unserialised():     # re-timed by the link
            message.latency = self.latency
            message.jitter = self.jitter
        self.refresh_bound()

    def abort(self):
        # The newest jobs, bar the one in service, never serialise.
        withdrawn = self.link.abort_pending_chain()
        assert withdrawn == max(0, len(self.unserialised()) - 1)
        if withdrawn:
            del self.messages[-withdrawn:]

    def probe(self):
        now = self.sim.now
        counted = [m for m in self.messages if m.done <= now]
        stats = self.link.stats
        assert stats.sent == len(counted)
        assert stats.bytes_sent == sum(m.size for m in counted)
        self.refresh_bound()

    def step(self, op):
        kind = op[0]
        if kind in ("commit", "transmit"):
            self.send(kind, op[1])
        elif kind == "advance":
            self.sim.run(until=self.sim.now + op[1] * TICK)
        elif kind == "degrade":
            self.degrade(op[1], op[2])
        elif kind == "restore":
            self.degrade()
        else:
            getattr(self, kind)()
        assert _records(self.link) <= self.bound

    def finish(self):
        self.sim.run()
        self.probe()
        assert (self.link.stats.sent == len(self.messages)
                == self.delivered)
        assert not self.link.busy and self.link.queue_length == 0
        assert self.link._payload is None and _records(self.link) == 0


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_link_counters_match_recount_and_deque_is_bounded(ops):
    harness = _Harness()
    for op in ops:
        harness.step(op)
    harness.finish()


class _ReferenceLink:
    """What a link does, on an event-per-job transmission server: one
    kernel event per serialisation, then one per propagation."""

    def __init__(self, sim, capacity):
        self.sim = sim
        self.server = LegacyFifoServer(sim, capacity=capacity)
        self.sent = self.bytes_sent = 0
        self.completions = {}   # uid -> serialisation completion
        self.arrivals = []      # (uid, arrival time)

    def transmit(self, uid, size):
        """True if accepted, False on a queue-full drop."""
        return self.server.submit(
            CONFIG.per_message_s + size * CONFIG.per_byte_s,
            self._serialised, uid, size)

    def chain(self, uid, size):
        # Chain entries model pacing, not contention: no bound applies.
        server = self.server
        capacity, server.capacity = server.capacity, None
        assert self.transmit(uid, size)
        server.capacity = capacity

    def abort(self):
        """Withdraw every job that has not started; returns how many."""
        waiting = self.server._queue
        withdrawn = len(waiting)
        waiting.clear()
        return withdrawn

    def _serialised(self, uid, size):
        self.sent += 1
        self.bytes_sent += size
        self.completions[uid] = self.sim.now
        self.sim.schedule(LATENCY, self._arrive, uid)

    def _arrive(self, uid):
        self.arrivals.append((uid, self.sim.now))


SERVER_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["commit", "transmit"]), SIZES),
        st.tuples(st.just("burst"), SIZES,
                  st.integers(min_value=2, max_value=6)),
        st.tuples(st.just("advance"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.sampled_from(["probe", "abort"])),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([None, 0, 1, 3]), SERVER_OPS)
def test_link_matches_the_transmission_server_it_replaced(capacity, ops):
    config = LinkConfig(CONFIG.per_message_s, CONFIG.per_byte_s,
                        queue_capacity=capacity)
    sim, ref_sim = Simulator(seed=3), Simulator(seed=3)
    arrivals = []
    link = DirectedLink(sim, 0, 1, LATENCY, config,
                        lambda src, p: arrivals.append((p.uid, sim.now)))
    ref = _ReferenceLink(ref_sim, capacity)
    completions = {}            # uid -> completion the link returned
    uid = 0

    def send(how, size):
        nonlocal uid
        uid += 1
        payload = RawPayload(uid, size)
        if how == "commit":
            completions[uid] = link.commit(payload, (payload,), sim.now)
            ref.chain(uid, size)
        else:
            assert link.transmit(payload) == ref.transmit(uid, size)

    def probe():
        stats = link.stats
        assert link.busy == ref.server.busy
        assert link.queue_length == ref.server.queue_length
        assert (stats.sent, stats.bytes_sent) == (ref.sent, ref.bytes_sent)
        assert stats.dropped_queue == ref.server.stats.dropped

    for op in ops:
        kind = op[0]
        if kind == "burst":
            for _ in range(op[2]):
                send("transmit", op[1])
        elif kind == "advance":
            until = sim.now + op[1] * TICK
            sim.run(until=until)
            ref_sim.run(until=until)
        elif kind == "abort":
            assert link.abort_pending_chain() == ref.abort()
        elif kind != "probe":
            send(kind, op[1])
        probe()
    sim.run()
    ref_sim.run()
    probe()
    assert arrivals == ref.arrivals
    # Every completion the link announced is when the server finished the
    # job — unless the job was withdrawn before it started.
    for done_uid, done in ref.completions.items():
        assert completions.get(done_uid, done) == done
    assert link.stats.delivered == ref.sent == len(arrivals)


AHEAD_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("send"), SIZES, st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("advance"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.just("probe")),
        st.tuples(st.just("degrade"), st.sampled_from([0.5, 1.0, 2.0])),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([None, 0, 1, 3]), AHEAD_OPS)
def test_transmit_ahead_matches_transmit_at_the_instant(capacity, ops):
    config = LinkConfig(CONFIG.per_message_s, CONFIG.per_byte_s,
                        queue_capacity=capacity)
    sim = Simulator(seed=3)
    arrivals, ref_arrivals = [], []
    link = DirectedLink(sim, 0, 1, LATENCY, config,
                        lambda src, p: arrivals.append((p.uid, sim.now)))
    ref = DirectedLink(sim, 0, 1, LATENCY, config,
                       lambda src, p: ref_arrivals.append((p.uid, sim.now)))
    verdicts, ref_verdicts = {}, {}
    at = 0.0

    def ref_transmit(payload):
        ref_verdicts[payload.uid] = ref.transmit(payload)

    def probe():
        stats, ref_stats = link.stats, ref.stats
        assert ((stats.sent, stats.bytes_sent)
                == (ref_stats.sent, ref_stats.bytes_sent))

    for op in ops:
        kind = op[0]
        if kind == "send":
            at = max(at, sim.now) + op[2] * TICK
            payload = RawPayload(len(verdicts), op[1])
            verdicts[payload.uid] = link.transmit(payload, at)
            sim.schedule_at(at, ref_transmit, payload)
        elif kind == "advance":
            sim.run(until=sim.now + op[1] * TICK)
        elif kind == "degrade":
            link.degrade(op[1])
            ref.degrade(op[1])
        probe()
    sim.run()
    probe()
    assert verdicts == ref_verdicts
    assert arrivals == ref_arrivals
    assert link.stats.dropped_queue == ref.stats.dropped_queue
    assert link.stats.delivered == ref.stats.delivered == len(arrivals)


def test_paced_idle_link_sender_keeps_no_record_and_owns_no_deque():
    """A self-pacing sender transmits only once the link has freed, so
    every message is committed on an idle wire and sits in the slots: the
    link never builds a record or the deque to hold one. (It once kept
    every such message until 256 had piled up, and later one record.)"""
    sim = Simulator(seed=3)
    link = DirectedLink(sim, 0, 1, 0.05, LinkConfig(), lambda src, p: None)
    for uid in range(10_000):
        payload = RawPayload(uid, 100)
        sim.run(until=link.commit(payload, (payload,), sim.now))
        assert link._behind is None
    assert link.stats.sent == 10_000
    assert link._payload is None and link._behind is None
