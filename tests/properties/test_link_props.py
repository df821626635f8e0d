"""Property tests: a link's bookkeeping is exact and O(in-flight).

A random interleaving of every way to hand a :class:`DirectedLink` a message
(``transmit_timed`` / ``transmit_chained`` / ``transmit``), the calls that
rewrite its committed work (``degrade`` / ``restore`` /
``abort_pending_chain``), clock advances and ``stats`` probes is replayed
against a brute-force reference: a flat list of every message ever accepted
with its serialisation completion recomputed from first principles (FIFO
wire: ``max(now, previous completion) + service``). At every probe ``sent``
and ``bytes_sent`` must equal a recount over that whole list, every arrival
must land at ``completion + latency`` plus a draw inside the jitter window
in force when it was (last) committed, and at the end the transmission
server, the link and the receiver agree on how many messages there were.

The memory half: only transmits add to ``_in_flight`` and each one first
retires what has completed, so right after a transmit, a probe or a
degrade the deque holds exactly the messages still unserialised, and
between those it never grows. For a sender that paces itself on an idle
link that is one record (the regression at the bottom); a committed round
adds its unserialised chain.

Times are dyadic (a 2**-11 s tick; services of 3, 4 and 6 ticks) so
advances land exactly on completion instants and the ``<=`` edges of the
lazy drain are exercised without float noise.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload
from repro.sim.kernel import Simulator

TICK = 2.0 ** -11
SIZES = st.sampled_from([512, 1024, 2048])
LATENCY = 2.0 ** -7
CONFIG = LinkConfig(per_message_s=2.0 ** -10, per_byte_s=2.0 ** -20)

OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["timed", "chained", "transmit"]), SIZES),
        st.tuples(st.just("advance"), st.integers(min_value=1, max_value=8)),
        st.tuples(st.sampled_from(["probe", "abort", "restore"])),
        st.tuples(st.just("degrade"), st.sampled_from([0.5, 1.0, 2.0]),
                  st.sampled_from([0.0, 2.0 ** -9])),
    ),
    max_size=120,
)


class _Sent:
    """One accepted message as the reference remembers it."""

    __slots__ = ("size", "done", "latency", "jitter")

    def __init__(self, size, done, latency, jitter):
        self.size = size
        self.done = done        # serialisation completion
        self.latency = latency  # propagation parameters in force when
        self.jitter = jitter    # the arrival was (last) committed


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
        self.bound = len(self.unserialised())
        assert len(self.link._in_flight) == self.bound

    # -- operations ----------------------------------------------------------

    def send(self, how, size):
        link = self.link
        free_at = self.messages[-1].done if self.messages else 0.0
        done = (max(self.sim.now, free_at)
                + CONFIG.per_message_s + size * CONFIG.per_byte_s)
        message = _Sent(size, done, self.latency, self.jitter)
        payload = RawPayload(len(self.messages), size, data=message)
        if how == "chained":
            assert link.transmit_chained(payload) == done
        elif how == "timed":
            assert link.transmit_timed(payload) == done
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
        if kind in ("timed", "chained", "transmit"):
            self.send(kind, op[1])
        elif kind == "advance":
            self.sim.run(until=self.sim.now + op[1] * TICK)
        elif kind == "degrade":
            self.degrade(op[1], op[2])
        elif kind == "restore":
            self.degrade()
        else:
            getattr(self, kind)()
        assert len(self.link._in_flight) <= self.bound

    def finish(self):
        self.sim.run()
        self.probe()
        assert (self.link._server.stats.completed == self.link.stats.sent
                == len(self.messages) == self.delivered)
        assert not self.link._in_flight


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_link_counters_match_recount_and_deque_is_bounded(ops):
    harness = _Harness()
    for op in ops:
        harness.step(op)
    harness.finish()


def test_paced_idle_link_sender_keeps_one_record():
    """A self-pacing sender transmits only once the link has freed; the
    deque used to keep every such message until 256 had piled up."""
    sim = Simulator(seed=3)
    link = DirectedLink(sim, 0, 1, 0.05, LinkConfig(), lambda src, p: None)
    for uid in range(10_000):
        sim.run(until=link.transmit_timed(RawPayload(uid, 100)))
        assert len(link._in_flight) <= 1
    assert link.stats.sent == 10_000
