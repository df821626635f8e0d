"""Lockstep properties: the compiled hop types against their Python models.

:class:`FifoServer`, :class:`DirectedLink` and :class:`InternedSeenCache`
are compiled (``repro/sim/_kernel.c``); the Python classes they replaced
are kept verbatim as reference models (tests/reference/fifo.py,
tests/reference/link.py, tests/reference/cache.py). Each
property drives one random op stream through a compiled object and its
model, each on its own simulator with the same seed, and requires the
same results at every step:

* every returned completion, bit for bit (``float.hex``), and every
  verdict;
* the counters (``busy_time``, ``LinkStats``, the cache's ``registered``,
  ``hits`` and ``evictions``), ``busy`` and ``queue_length``;
* the same events in the same pop order, at the same instants: every
  callback logs itself and the clock, and the kernel counters
  (scheduled, pending, cancelled) agree.

The server's stream has bursts, ``None`` and accounting-only jobs,
``slowdown`` changes and advances that land exactly on the last
completion (the ``<=`` edges of the lazy charge). The link's has bounded
``transmit`` now and ahead of time (a non-decreasing ``at``), chained
commits, ``degrade`` in mid-chain (latency and extra jitter),
``restore``, a loss hook switched on and off, handovers and advances
that land exactly on a committed completion, and jittered and bounded
configurations. The cache's has registrations
by uid and by payload, a payload interned elsewhere first, membership
probes, a small window that evicts and ids far past the end of the
membership array.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gossip.cache import InternedSeenCache
from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload, UidInterner
from repro.sim.kernel import Simulator
from repro.sim.server import FifoServer
from tests.reference.cache import InternedSeenCache as RefCache
from tests.reference.fifo import FifoServer as RefServer
from tests.reference.link import DirectedLink as RefLink
from tests.reference.lockstep import Recorder, lockstep

# Microsecond multiples are not dyadic, so the order of a busy_time sum
# shows in its bits.
SERVICES = st.integers(1, 30_000).map(lambda k: k * 1e-6)


def _kernel_counts(sim):
    return sim.events_scheduled, sim.pending(), sim.events_cancelled


class _Side:
    """One simulator, one object under test and the log of its events."""

    def __init__(self, make):
        self.sim = Simulator(seed=11)
        self.recorder = Recorder(self.sim)
        self.obj = make(self)

    def state(self):
        return self.recorder.log

    def finish(self):
        self.sim.run()


# -- the FIFO server ----------------------------------------------------------

SERVER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"),
                  st.lists(st.tuples(SERVICES,
                                     st.sampled_from(["fn", "none", "acct"])),
                           min_size=1, max_size=6)),
        st.tuples(st.just("slowdown"), st.sampled_from([1.0, 0.5, 2.0, 3.5])),
        st.tuples(st.just("advance"), st.floats(min_value=0.0,
                                                max_value=0.05)),
        st.tuples(st.just("to_last_completion")),
        st.tuples(st.just("probe")),
    ),
    max_size=80,
)


def _server_probe(side):
    server, now = side.obj, side.sim.now
    return (server.busy, server.queue_length, server.busy_time.hex(),
            server.utilization(now).hex(), server.slowdown,
            _kernel_counts(side.sim))


def _server_step(side, op):
    server, kind = side.obj, op[0]
    out = []
    if kind == "submit":
        done = []
        for offset, (service, how) in enumerate(op[1]):
            if how == "fn":
                completion = server.submit_timed(
                    service, side.recorder.note, "job", side.job + offset)
            elif how == "none":
                completion = server.submit_timed(service, None)
            else:
                completion = server.submit_acct(service)
            done.append(completion.hex())
            side.last = completion
        side.job += len(op[1])
        out.append(done)
    elif kind == "slowdown":
        server.slowdown = op[1]
    elif kind == "advance":
        side.sim.run(until=side.sim.now + op[1])
    elif kind == "to_last_completion":
        side.sim.run(until=max(side.last, side.sim.now))
    elif kind == "probe":
        # Only here: a read charges the started jobs, and paths that
        # charge them at submission must be reached too.
        out.append(_server_probe(side))
    out.append((server.busy, _kernel_counts(side.sim)))
    return out


@settings(max_examples=300, deadline=None)
@given(SERVER_OPS)
def test_server_matches_its_reference_in_lockstep(ops):
    sides = [_Side(lambda side: FifoServer(side.sim)),
             _Side(lambda side: RefServer(side.sim))]
    for side in sides:
        side.last, side.job = 0.0, 0
    lockstep(sides, ops, _server_step, _Side.state, _Side.finish)
    assert _server_probe(sides[0]) == _server_probe(sides[1])


# -- the directed link --------------------------------------------------------

TICK = 1e-4
SIZES = st.sampled_from([0, 100, 512, 1000, 1500])
LINK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), SIZES),
        st.tuples(st.just("round"), SIZES, st.integers(2, 5)),
        st.tuples(st.just("transmit"), SIZES),
        st.tuples(st.just("ahead"), SIZES, st.integers(0, 6)),
        st.tuples(st.just("at_done"), SIZES),
        st.tuples(st.just("degrade"), st.sampled_from([0.5, 1.0, 3.0]),
                  st.sampled_from([0.0, 0.0, 4e-4])),
        st.tuples(st.just("restore")),
        st.tuples(st.just("loss"), st.booleans()),
        st.tuples(st.just("advance"), st.integers(1, 12)),
        st.tuples(st.just("to_done")),
        st.tuples(st.just("probe")),
    ),
    max_size=40,
)


def _next_done(completions, after):
    """The first committed completion at or after ``after``, if any: an
    instant that lands exactly on a ``<=`` edge."""
    return min((c for c in completions if c >= after), default=None)


class _EveryThird:
    """A deterministic loss hook: drops every third arrival it sees."""

    def __init__(self):
        self.seen = 0

    def __call__(self, dst):
        self.seen += 1
        return self.seen % 3 == 0


def _link_probe(side):
    link = side.obj
    stats = link.stats
    return (link.busy, link.queue_length, stats.sent, stats.bytes_sent,
            stats.dropped_queue, stats.dropped_loss, stats.delivered,
            link.latency_s.hex(), link.config.jitter_s,
            _kernel_counts(side.sim))


def _link_step(side, op):
    link, now, kind = side.obj, side.sim.now, op[0]
    out = []
    if kind in ("commit", "round"):
        count = op[2] if kind == "round" else 1
        args = []
        for offset in range(count):
            payload = RawPayload(side.uid + offset, op[1])
            args.append(link.commit(payload, (payload,), now))
        out.append([completion.hex() for completion in args])
        side.completions.extend(args)
    elif kind == "transmit":
        out.append(link.transmit(RawPayload(side.uid, op[1])))
    elif kind == "ahead":
        side.at = max(side.at, now) + op[2] * TICK
        out.append(link.transmit(RawPayload(side.uid, op[1]), side.at))
    elif kind == "at_done":
        side.at = (_next_done(side.completions, max(side.at, now))
                   or max(side.at, now))
        out.append(link.transmit(RawPayload(side.uid, op[1]), side.at))
    elif kind == "degrade":
        link.degrade(op[1], op[2], side.sim.rng("test-jitter"))
    elif kind == "restore":
        link.restore()
    elif kind == "loss":
        link.loss_hook = _EveryThird() if op[1] else None
    elif kind == "advance":
        side.sim.run(until=now + op[1] * TICK)
    elif kind == "to_done":
        side.sim.run(until=_next_done(side.completions, now) or now)
    elif kind == "probe":
        # Only here: a read retires what has serialised, and the retiring
        # done by commits must be reached too.
        out.append(_link_probe(side))
    out.append((link.busy, _kernel_counts(side.sim)))
    side.uid += op[2] if kind == "round" else 1
    return out


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([None, 0, 1, 3]), st.sampled_from([0.0, 3e-4]),
       LINK_OPS)
def test_link_matches_its_reference_in_lockstep(capacity, jitter, ops):
    config = LinkConfig(per_message_s=2.1e-4, per_byte_s=8.3e-8,
                        queue_capacity=capacity, jitter_s=jitter)

    def make(cls):
        def build(side):
            return cls(side.sim, 0, 1, 1.7e-3, config,
                       lambda src, p: side.recorder.note("arrive", src,
                                                         p.uid))
        return build

    sides = [_Side(make(DirectedLink)), _Side(make(RefLink))]
    for side in sides:
        side.at, side.uid, side.completions = 0.0, 0, []
    lockstep(sides, ops, _link_step, _Side.state, _Side.finish)
    assert _link_probe(sides[0]) == _link_probe(sides[1])


# -- the seen-cache -----------------------------------------------------------

UIDS = st.integers(0, 400)
CACHE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("register"), UIDS),
        st.tuples(st.just("payload"), UIDS),
        st.tuples(st.just("foreign"), UIDS),
        st.tuples(st.just("contains"), UIDS),
    ),
    max_size=200,
)


def _cache_step(side, op):
    (cache, interner), (kind, uid) = side, op
    out = []
    if kind == "register":
        out.append(cache.register(("m", uid)))
    elif kind == "payload":
        payload = RawPayload(("m", uid), 10)
        out.append((cache.register_payload(payload), payload.iid))
    elif kind == "foreign":
        # Interned elsewhere first (another node's cache), so the payload
        # arrives carrying its id.
        payload = RawPayload(("m", uid), 10)
        interner.intern_payload(payload)
        out.append(cache.register_payload(payload))
    else:
        out.append(("m", uid) in cache)
    out.append((len(cache), cache.registered, cache.hits, cache.evictions,
                len(interner)))
    return out


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), CACHE_OPS)
def test_cache_matches_its_reference_in_lockstep(capacity, ops):
    interners = [UidInterner(), UidInterner()]
    caches = [InternedSeenCache(capacity, interners[0]),
              RefCache(capacity, interners[1])]
    lockstep(list(zip(caches, interners)), ops, _cache_step)
    assert ([("m", uid) in caches[0] for uid in range(401)]
            == [("m", uid) in caches[1] for uid in range(401)])
