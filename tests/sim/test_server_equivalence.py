"""Property-style equivalence: virtual-time vs event-per-job FIFO servers.

Random job traces — mixed capacities, drops, mid-trace slowdown changes,
noop and real callbacks, interleaved observation probes — are driven
through :class:`FifoServer` and the test-local :class:`LegacyFifoServer`
(`reference_server.py`) on separate simulators. Everything observable must
coincide exactly: callback invocation times and order, drop decisions, and
every stats field at every probe instant (the virtual-time server's lazy
draining must be invisible).

Probe and submission instants come from continuous uniform draws, so they
never collide exactly with a completion instant; same-timestamp
tie-breaking between driver events and server events is therefore not
exercised here — that hazard is covered end to end by the A/B fingerprint
suite (tests/integration/test_ab_fingerprint.py).
"""

import pytest

from repro.sim.kernel import Simulator
from repro.sim.random import make_stream
from repro.sim.server import FifoServer, noop
from tests.sim.reference_server import LegacyFifoServer


def _generate_trace(seed):
    """A random op timeline: (time, kind, payload...) tuples in time order."""
    rng = make_stream(seed, "server-trace")
    capacity = rng.choice([None, None, 0, 1, 2, 5])
    ops = []
    t = 0.0
    for i in range(200):
        t += rng.uniform(0.0, 0.02)
        kind = rng.random()
        if kind < 0.6:
            service = rng.uniform(0.001, 0.03)
            accounting_only = rng.random() < 0.4
            ops.append((t, "submit", i, service, accounting_only))
        elif kind < 0.75:
            factor = rng.choice([1.0, 1.0, 0.5, 2.0, 3.5])
            ops.append((t, "slowdown", factor, None, None))
        else:
            ops.append((t, "probe", None, None, None))
    return capacity, ops, t + 1.0


def _drive(server_cls, capacity, ops, horizon):
    """Run one trace against one server implementation; return the log."""
    sim = Simulator(seed=99)
    log = []
    server = server_cls(
        sim, capacity=capacity,
        on_drop=lambda fn, args: log.append(("drop", args[0] if args else None)),
    )

    def fire(uid):
        log.append(("done", uid, sim.now))

    def do(op):
        _, kind, a, b, accounting_only = op
        if kind == "submit":
            if accounting_only:
                server.submit(b, noop)
            else:
                server.submit(b, fire, a)
        elif kind == "slowdown":
            server.slowdown = a
        else:
            stats = server.stats
            log.append(("probe", sim.now, server.busy, server.queue_length,
                        stats.submitted, stats.completed, stats.dropped,
                        stats.busy_time, stats.max_queue))

    for op in ops:
        sim.schedule_at(op[0], do, op)
    sim.run(until=horizon)
    stats = server.stats
    log.append(("final", stats.submitted, stats.completed, stats.dropped,
                stats.busy_time, stats.max_queue, server.busy,
                server.queue_length))
    return log


@pytest.mark.parametrize("seed", range(25))
def test_random_traces_equivalent(seed):
    capacity, ops, horizon = _generate_trace(seed)
    virtual = _drive(FifoServer, capacity, ops, horizon)
    legacy = _drive(LegacyFifoServer, capacity, ops, horizon)
    assert virtual == legacy


def test_traces_exercise_drops_and_noops():
    """The generator must actually cover the interesting cases somewhere."""
    saw_drop = saw_done = False
    for seed in range(25):
        capacity, ops, horizon = _generate_trace(seed)
        log = _drive(FifoServer, capacity, ops, horizon)
        saw_drop = saw_drop or any(entry[0] == "drop" for entry in log)
        saw_done = saw_done or any(entry[0] == "done" for entry in log)
    assert saw_drop and saw_done
