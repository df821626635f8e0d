"""Isolated layer drivers: one layer's public functions on a frozen stream.

Whole-workload numbers mix every layer; these time one layer alone, so a
layer's gain or loss shows undiluted and a prediction ("this should move
cpu_ms_per_decided on the kernel-bound workloads") can be checked against
its cause. Each op stream is generated before the clock starts from the
run's seed; each try is normalised by the calibrations on either side of it
like every host time here, and the median of :data:`TRIES` is reported.
(The minimum would do for raw times, whose noise only adds; a normalised
time errs both ways, because its calibrations are noisy too.)
"""

import random
import statistics
import time

from repro.core.semantics import PaxosSemantics
from repro.gossip.cache import InternedSeenCache
from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload, UidInterner
from repro.obs import ObsConfig
from repro.paxos.messages import Phase2b
from repro.runtime.deployment import build_deployment
from repro.runtime.metrics import build_report
from repro.sim.events import resolve_queue_backend
from repro.sim.kernel import Simulator
from repro.sim.server import FifoServer

from benchmarks.e2e.measure import normalised
from benchmarks.e2e.workloads import WORKLOADS

TRIES = 5
_OPS = 20_000


def _noop(*_args):
    pass


def _once(host, prepare, work):
    """Normalised seconds of one ``work(prepare())``."""
    state = prepare()
    before = host.calibrate()
    start = time.process_time()
    work(state)
    elapsed = time.process_time() - start
    return normalised(elapsed, before, host.calibrate())


def _typical(host, prepare, work):
    """Median normalised seconds of ``work(prepare())`` over TRIES tries."""
    return statistics.median(
        _once(host, prepare, work) for _ in range(TRIES))


def queue_steady(host, rng):
    """Held population, one push per pop, 50 ms horizon (link arrivals)."""
    times = [rng.random() * 0.05 for _ in range(2 * _OPS)]
    held, follow = times[:_OPS // 4], times[_OPS // 4:]

    def work(queue):
        push, pop = queue.push, queue.pop
        for t in held:
            push(t, _noop, ())
        for t in follow:
            push(pop().time + t, _noop, ())
        while pop() is not None:
            pass

    ops = 2 * len(times)
    return ops / _typical(host, resolve_queue_backend(), work)


def queue_cancel(host, rng):
    """Retransmit-timer shape: two of three events cancelled unfired."""
    times = [rng.random() * 0.05 for _ in range(_OPS)]

    def work(queue):
        push, pop, note = queue.push, queue.pop, queue.note_cancelled
        events = [push(t, _noop, ()) for t in times]
        for index, event in enumerate(events):
            if index % 3:
                event.cancel()
                note()
        while pop() is not None:
            pass

    ops = len(times) * 2
    return ops / _typical(host, resolve_queue_backend(), work)


def server_submit(host, rng):
    """``FifoServer.submit_timed`` with a callback, run to drain."""
    services = [rng.uniform(3e-6, 15e-6) for _ in range(_OPS)]

    def prepare():
        sim = Simulator(seed=0)
        return sim, FifoServer(sim)

    def work(state):
        sim, server = state
        submit = server.submit_timed
        for service in services:
            submit(service, _noop, None)
        sim.run()

    return len(services) / _typical(host, prepare, work)


def link_transmit(host, rng):
    """``DirectedLink.transmit`` of 1 KB payloads, run to delivery."""
    sizes = [rng.choice((64, 1088)) for _ in range(_OPS)]

    def prepare():
        sim = Simulator(seed=0)
        link = DirectedLink(sim, 0, 1, 0.04, LinkConfig(queue_capacity=None),
                            deliver=_noop)
        payloads = [RawPayload(("raw", i), size)
                    for i, size in enumerate(sizes)]
        return sim, link, payloads

    def work(state):
        sim, link, payloads = state
        transmit = link.transmit
        for payload in payloads:
            transmit(payload)
        sim.run()

    return len(sizes) / _typical(host, prepare, work)


def cache_probe(host, rng):
    """``InternedSeenCache.register_payload`` at 70 % duplicates."""
    fresh = [RawPayload(("2B", i, 1, i % 13, 0), 64)
             for i in range(3 * _OPS // 10)]
    stream = fresh + [rng.choice(fresh) for _ in range(7 * _OPS // 10)]
    rng.shuffle(stream)

    def prepare():
        for payload in fresh:
            payload.iid = None
        return InternedSeenCache(200_000, UidInterner())

    def work(cache):
        register = cache.register_payload
        for payload in stream:
            register(payload)

    return len(stream) / _typical(host, prepare, work)


def _votes(rng, count, n=13):
    """A seeded Phase 2b stream: votes of n acceptors over open instances."""
    return [Phase2b(index // n + rng.randrange(3), 1,
                    (0, index // n), rng.randrange(n))
            for index in range(count)]


def core_validate(host, rng):
    """``PaxosSemantics.validate`` of each vote towards four peers."""
    votes = _votes(rng, _OPS // 4)

    def work(hooks):
        validate = hooks.validate
        for vote in votes:
            for peer in (1, 2, 3, 4):
                validate(vote, peer)

    return 4 * len(votes) / _typical(host, lambda: PaxosSemantics(13), work)


def core_aggregate(host, rng):
    """``PaxosSemantics.aggregate`` over pending batches of 2-16 votes."""
    votes = _votes(rng, _OPS)
    batches = []
    at = 0
    while at < len(votes):
        size = rng.randrange(2, 17)
        batches.append(votes[at:at + size])
        at += size

    def work(hooks):
        aggregate = hooks.aggregate
        for batch in batches:
            aggregate(batch, 1)

    return len(votes) / _typical(host, lambda: PaxosSemantics(13), work)


def build_n100(host, seed, overlay_seed):
    """Normalised ms of one ``build_deployment`` at n=100."""
    config = WORKLOADS["semantic_n100"].config(seed, overlay_seed)
    return 1e3 * _typical(host, lambda: config, build_deployment)


def obs_overhead(host, seed, overlay_seed):
    """Normalised cost of semantic_knee_n13 traced by repro.obs over
    untraced: the tracing overhead ROADMAP calls unmeasured."""
    config = WORKLOADS["semantic_knee_n13"].config(seed, overlay_seed)

    def work(deployment):
        deployment.start()
        deployment.run()
        build_report(deployment)

    def run(obs):
        return _once(host, lambda: build_deployment(config, obs=obs), work)

    # Traced and untraced back to back, so each ratio sees one host state.
    return statistics.median(run(ObsConfig()) / run(None) for _ in range(3))


def run_all(host, seed, overlay_seed):
    """Every driver metric except ``bench.trace_overhead_ratio`` (which
    needs the workload's own passes)."""
    def rng(name):
        return random.Random("{}/{}".format(seed, name))

    return {
        "sim.events.steady_ops_s": queue_steady(host, rng("steady")),
        "sim.events.cancel_ops_s": queue_cancel(host, rng("cancel")),
        "sim.server.submit_ops_s": server_submit(host, rng("server")),
        "net.channel.transmit_ops_s": link_transmit(host, rng("link")),
        "gossip.cache.probe_ops_s": cache_probe(host, rng("cache")),
        "core.validate_ops_s": core_validate(host, rng("validate")),
        "core.aggregate_ops_s": core_aggregate(host, rng("aggregate")),
        "runtime.build_n100_ms": build_n100(host, seed, overlay_seed),
        "obs.overhead_ratio": obs_overhead(host, seed, overlay_seed),
    }
