"""The event-per-job FIFO server: the executable reference model.

This is the arrangement :class:`repro.sim.server.FifoServer` (virtual
time, for CPUs) and :class:`repro.net.channel.DirectedLink` (its own
serialiser) replaced with arithmetic. It lives with the tests because
nothing else constructs it: `test_server_equivalence.py` drives random job
traces through it and ``FifoServer``, and
`tests/properties/test_link_props.py` builds its reference link on it.
"""

from collections import deque


class ServerStats:
    """The reference's counters; ``capacity`` drops are counted too,
    because `test_link_props.py` drives a bounded reference."""

    __slots__ = ("submitted", "completed", "dropped", "busy_time", "max_queue")

    def __init__(self):
        self.submitted = 0
        self.completed = 0
        self.dropped = 0
        self.busy_time = 0.0
        self.max_queue = 0

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` the server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class LegacyFifoServer:
    """Event-per-job FIFO server: one kernel event per job, each job
    started by its predecessor's completion."""

    __slots__ = ("sim", "capacity", "on_drop", "stats", "slowdown",
                 "_queue", "_busy")

    def __init__(self, sim, capacity=None, on_drop=None):
        self.sim = sim
        self.capacity = capacity
        self.on_drop = on_drop
        self.stats = ServerStats()
        self.slowdown = 1.0
        self._queue = deque()
        self._busy = False

    @property
    def queue_length(self):
        """Jobs waiting to start (excludes the in-service job)."""
        return len(self._queue)

    @property
    def busy(self):
        return self._busy

    def submit(self, service_time, fn, *args):
        """Enqueue a job; True if accepted, False if dropped (queue full)."""
        stats = self.stats
        stats.submitted += 1
        if self.slowdown != 1.0:
            service_time *= self.slowdown
        if not self._busy:
            self._start(service_time, fn, args)
            return True
        if self.capacity is not None and len(self._queue) >= self.capacity:
            stats.dropped += 1
            if self.on_drop is not None:
                self.on_drop(fn, args)
            return False
        self._queue.append((service_time, fn, args))
        if len(self._queue) > stats.max_queue:
            stats.max_queue = len(self._queue)
        return True

    def _start(self, service_time, fn, args):
        self._busy = True
        self.stats.busy_time += service_time
        self.sim.schedule(service_time, self._complete, fn, args)

    def _complete(self, fn, args):
        self.stats.completed += 1
        fn(*args)
        if self._queue:
            service_time, next_fn, next_args = self._queue.popleft()
            self._start(service_time, next_fn, next_args)
        else:
            self._busy = False
