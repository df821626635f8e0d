"""Property-style equivalence: virtual-time vs event-per-job FIFO servers.

Random job traces — single submits and same-instant bursts of 2-6 (the
shape of a receive followed by its per-peer hook charges), services drawn
log-uniformly from 1e-6 to 3e-2 s so that the order of the ``busy_time``
sum shows in its bits, slowdown changes while jobs wait, callback,
``None`` and ``submit_acct`` jobs, interleaved observation
probes — are driven through the compiled :class:`FifoServer`, its
Python reference model (`tests/reference/fifo.py`) and the test-local
:class:`LegacyFifoServer` (`tests/reference/server.py`) on separate simulators.
Everything observable must coincide exactly: callback times and order,
every job's completion (returned at submission by the virtual server,
observed at its completion event by the reference), and ``busy``,
``queue_length``, ``busy_time`` and ``utilization`` at every probe, floats
compared as ``float.hex``. After every submit, each virtual server's
waiting jobs must be exactly the reference's queue — read as
``queue_length`` on the compiled server and as the record itself on the
Python model: a job that has started leaves no record.

Probe and submission instants come from continuous uniform draws, so they
never collide exactly with a completion instant; same-timestamp
tie-breaking between driver events and server events is therefore not
exercised here — that hazard is covered end to end by the committed
fingerprints (tests/integration/test_committed_fingerprints.py).
"""

import math
from collections import Counter

import pytest

from repro.sim.kernel import Simulator
from repro.sim.random import make_stream
from repro.sim.server import FifoServer
from tests.reference.fifo import FifoServer as ReferenceFifoServer
from tests.reference.server import LegacyFifoServer

_KINDS = ("callback", "none", "acct")


def _generate_trace(seed):
    """A random op timeline: (time, kind, payload) tuples in time order."""
    rng = make_stream(seed, "server-trace")
    low, high = math.log(1e-6), math.log(3e-2)
    ops = []
    uid = 0
    t = 0.0
    for _ in range(200):
        t += rng.uniform(0.0, 0.02)
        kind = rng.random()
        if kind < 0.6:
            size = rng.randint(2, 6) if rng.random() < 0.3 else 1
            jobs = []
            for _ in range(size):
                jobs.append((uid, math.exp(rng.uniform(low, high)),
                             rng.choice(_KINDS)))
                uid += 1
            ops.append((t, "submit", jobs))
        elif kind < 0.75:
            ops.append((t, "slowdown", rng.choice([1.0, 1.0, 0.5, 2.0, 3.5])))
        else:
            ops.append((t, "probe", None))
    return ops, t + 1.0


def _drive(server_cls, ops, horizon):
    """Run one trace against one server; return (log, completions)."""
    sim = Simulator(seed=99)
    server = server_cls(sim)
    virtual = not isinstance(server, LegacyFifoServer)
    log = []
    completions = {}

    def busy_time():
        return server.busy_time if virtual else server.stats.busy_time

    def utilization(elapsed):
        if virtual:
            return server.utilization(elapsed)
        return server.stats.utilization(elapsed)

    def fire(uid):
        log.append(("done", uid, sim.now.hex()))
        if not virtual:
            completions[uid] = sim.now.hex()

    def completed(uid):
        completions[uid] = sim.now.hex()

    def submit(uid, service, kind):
        if not virtual:
            server.submit(service, fire if kind == "callback" else completed,
                          uid)
            return server.queue_length
        if kind == "callback":
            completion = server.submit_timed(service, fire, uid)
        elif kind == "none":
            completion = server.submit_timed(service, None)
        else:
            completion = server.submit_acct(service)
        completions[uid] = completion.hex()
        if isinstance(server, FifoServer):
            return server.queue_length
        return len(server._waiting)

    def do(op):
        _, kind, payload = op
        if kind == "submit":
            for job in payload:
                log.append(("waiting", job[0], submit(*job)))
        elif kind == "slowdown":
            server.slowdown = payload
        else:
            log.append(("probe", sim.now.hex(), server.busy,
                        server.queue_length, busy_time().hex(),
                        utilization(sim.now).hex()))

    for op in ops:
        sim.schedule_at(op[0], do, op)
    sim.run(until=horizon)
    log.append(("final", server.busy, server.queue_length,
                busy_time().hex()))
    return log, completions


class _PathCounter(ReferenceFifoServer):
    """The reference model of :class:`FifoServer`, counting which path
    each submit takes (the compiled server runs the same paths: the
    lockstep properties in tests/properties/test_hop_lockstep.py)."""

    __slots__ = ("paths",)

    def __init__(self, sim):
        super().__init__(sim)
        self.paths = Counter()

    def _count(self):
        now = self.sim.now
        if self._busy_until <= now:
            self.paths["idle, charges waiting" if self._waiting
                       else "idle"] += 1
        elif self._waiting and self._wait_start <= now:
            self.paths["busy, charges started"] += 1
        else:
            self.paths["busy"] += 1

    def submit_timed(self, service_time, fn, *args):
        self._count()
        return super().submit_timed(service_time, fn, *args)

    def submit_acct(self, service_time):
        self._count()
        return super().submit_acct(service_time)


@pytest.mark.parametrize("seed", range(25))
def test_random_traces_equivalent(seed):
    ops, horizon = _generate_trace(seed)
    virtual_log, virtual_completions = _drive(FifoServer, ops, horizon)
    model_log, model_completions = _drive(ReferenceFifoServer, ops, horizon)
    legacy_log, legacy_completions = _drive(LegacyFifoServer, ops, horizon)
    assert virtual_log == model_log == legacy_log
    assert model_completions == legacy_completions
    jobs = sum(len(op[2]) for op in ops if op[1] == "submit")
    assert len(virtual_completions) == jobs
    assert virtual_completions == legacy_completions


def test_traces_exercise_waiting_bursts_and_noops():
    """The generator must actually cover every submit path, bursts, each
    kind of job, jobs that wait and completed callbacks somewhere."""
    paths = Counter()
    kinds = Counter()
    saw_burst = saw_waiting = saw_done = False
    for seed in range(25):
        ops, horizon = _generate_trace(seed)
        servers = []

        def make(sim):
            servers.append(_PathCounter(sim))
            return servers[-1]

        log, _ = _drive(make, ops, horizon)
        paths.update(servers[0].paths)
        for op in ops:
            if op[1] == "submit":
                saw_burst = saw_burst or len(op[2]) > 1
                kinds.update(job[2] for job in op[2])
        saw_waiting = saw_waiting or any(
            entry[0] == "waiting" and entry[2] > 0 for entry in log)
        saw_done = saw_done or any(entry[0] == "done" for entry in log)
    assert set(paths) == {"idle", "idle, charges waiting", "busy",
                          "busy, charges started"}
    assert set(kinds) == set(_KINDS)
    assert saw_burst and saw_waiting and saw_done
