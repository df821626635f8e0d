"""Single-server FIFO queue — the saturation mechanism.

Every simulated process owns a CPU modelled as a :class:`FifoServer`,
which runs submitted work items (handling a received message, forwarding
it) one at a time in FIFO order. When offered load exceeds service
capacity the queue grows without bound and sojourn times blow up — the
latency knee the paper circles in its Figure 3. (A link serialises by
the same arithmetic: see :class:`repro.net.channel.DirectedLink`.)

Virtual time
------------

A FIFO single server is work-conserving and its service times are fixed
at submission, so a job's completion is known when it is accepted::

    completion = max(now, busy_until) + service

:class:`FifoServer` schedules **zero** kernel events for accounting-only
jobs (``submit_acct``, or a callback of ``None``) and one
event, at the precomputed completion, for a job with a real callback.
A job that starts on submission leaves no record; only the service times
of jobs that wait are kept, until they start. ``busy_time`` charges each
job at its start, in FIFO order, as a per-job event loop (one kernel event
per job, chained start-to-completion: `tests/sim/reference_server.py`)
does, so every read equals that reference bit for bit.
"""

import math
from collections import deque


def check_service_time(name, value):
    """Reject a negative or non-finite configured time, naming the field.

    Completions are ``max(now, busy_until) + service`` and go through the
    kernel's unchecked ``push_event``; ``completion >= now`` holds only
    because every configured service time and delay passed this check.
    """
    if not 0.0 <= value < math.inf:
        raise ValueError(
            "{} must be a finite, non-negative time in seconds, got "
            "{!r}".format(name, value))


class FifoServer:
    """Single-server FIFO queue over the simulator, in virtual time."""

    __slots__ = ("sim", "slowdown", "_busy_until", "_busy_time",
                 "_waiting", "_wait_start")

    def __init__(self, sim):
        self.sim = sim
        #: Gray-failure service multiplier, fixed per job at submission.
        self.slowdown = 1.0
        self._busy_until = 0.0      # completion of the last accepted job
        self._busy_time = 0.0       # services of started jobs, FIFO sum
        #: Services of accepted jobs not yet charged, FIFO; the first
        #: starts at ``_wait_start``. Right after every submit it holds
        #: exactly the jobs that have not started.
        self._waiting = deque()
        self._wait_start = 0.0

    @property
    def busy_time(self):
        """Seconds of service of every job started so far."""
        self._charge_started(self.sim.now)
        return self._busy_time

    def utilization(self, elapsed):
        """Fraction of ``elapsed`` the server spent busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)

    @property
    def queue_length(self):
        """Jobs waiting to start (excludes the in-service job)."""
        self._charge_started(self.sim.now)
        return len(self._waiting)

    @property
    def busy(self):
        return self._busy_until > self.sim.now

    def submit_timed(self, service_time, fn, *args):
        """Enqueue a job taking ``service_time`` whose effect is ``fn(*args)``
        at its completion; return the completion time. With ``fn=None`` a
        caller can schedule its own single event at the returned time."""
        if self.slowdown != 1.0:
            service_time = service_time * self.slowdown
        now = self.sim.now
        waiting = self._waiting
        busy_until = self._busy_until
        if busy_until <= now:
            # Idle: charge every waiting job, then the new one, which starts.
            if waiting:
                for service in waiting:
                    self._busy_time += service
                waiting.clear()
            self._busy_time += service_time
            busy_until = now
        else:
            if not waiting:
                self._wait_start = busy_until
            elif self._wait_start <= now:
                self._charge_started(now)   # emptied: start is busy_until
            waiting.append(service_time)
        completion = self._busy_until = busy_until + service_time
        if fn is not None:
            # completion >= now by construction: the unchecked push applies.
            self.sim.push_event(completion, fn, args)
        return completion

    def submit_acct(self, service_time):
        """:meth:`submit_timed` with ``fn=None``, without the varargs
        packing: the receive path charges the CPU for every message."""
        if self.slowdown != 1.0:
            service_time = service_time * self.slowdown
        now = self.sim.now
        waiting = self._waiting
        busy_until = self._busy_until
        if busy_until <= now:
            if waiting:
                for service in waiting:
                    self._busy_time += service
                waiting.clear()
            self._busy_time += service_time
            busy_until = now
        else:
            if not waiting:
                self._wait_start = busy_until
            elif self._wait_start <= now:
                self._charge_started(now)
            waiting.append(service_time)
        completion = self._busy_until = busy_until + service_time
        return completion

    def _charge_started(self, now):
        """Charge, in FIFO order, every waiting job started by ``now``."""
        waiting = self._waiting
        while waiting and self._wait_start <= now:
            service = waiting.popleft()
            self._busy_time += service
            self._wait_start += service
