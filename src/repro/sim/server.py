"""Single-server FIFO queue — the saturation mechanism.

Every simulated process owns a CPU modelled as a :class:`FifoServer`.
Work items (handling a received message, forwarding it) are submitted with
a service time; the server executes them one at a time in FIFO order. When
offered load exceeds service capacity the queue grows without bound and
sojourn times blow up — which is precisely the latency knee the paper
circles in its Figure 3. (A link serialises its messages by the same
arithmetic but keeps its own two fields for it: see
:class:`repro.net.channel.DirectedLink`.)

Servers optionally bound their queue. The paper notes that its Go
implementation "may discard messages when queues connecting different
routines are full, as a way to prevent slow processes from blocking the main
transport routine"; a bounded server reproduces that by invoking a drop
callback instead of enqueueing.

Virtual time
------------

Because a FIFO single-server queue is work-conserving and its service
times are fixed at submission, every job's completion instant is known
the moment it is accepted::

    completion = max(now, busy_until) + service

:class:`FifoServer` exploits that: it tracks ``busy_until`` arithmetically
and schedules **zero** kernel events for accounting-only jobs (callback
``None`` or :func:`noop`) and exactly one event — at the precomputed
completion — for jobs with real callbacks. Stats (``completed``,
``busy_time``) are maintained by lazily draining a deque of completion
timestamps whenever the server is observed — reads through
:attr:`FifoServer.stats` always see the state a per-job event loop (one
kernel event per job, chained start-to-completion: the reference model in
`tests/sim/test_server_equivalence.py`) would have produced at the same
instant.
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


def noop():
    """Canonical accounting-only callback: charges service time, no effect.

    The virtual-time server schedules no kernel event for jobs submitted
    with this callback (or ``None``); their completion is pure arithmetic.
    """


class ServerStats:
    """Counters exposed by :class:`FifoServer` for metrics collection."""

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


class FifoServer:
    """Single-server FIFO queue over the simulator, in virtual time.

    Parameters
    ----------
    sim:
        The simulator.
    capacity:
        Maximum number of queued (not yet started) jobs; ``None`` means
        unbounded. Jobs submitted to a full queue are dropped and the
        ``on_drop`` callback (if any) is invoked with the job's callback.
    """

    __slots__ = ("sim", "capacity", "on_drop", "slowdown",
                 "_stats", "_pending", "_busy_until", "_head_charged")

    def __init__(self, sim, capacity=None, on_drop=None):
        self.sim = sim
        self.capacity = capacity
        self.on_drop = on_drop
        #: Service-time multiplier (gray-failure injection): jobs submitted
        #: while > 1 run that much slower. Queued jobs keep the factor in
        #: force when they were submitted.
        self.slowdown = 1.0
        self._stats = ServerStats()
        #: Accepted jobs not yet drained, as (completion_time, service)
        #: in FIFO order; the head is the job in service.
        self._pending = deque()
        self._busy_until = 0.0
        #: Whether the head job's service is already in ``busy_time``
        #: (an event-per-job server charges at service *start*, so an
        #: in-service job is charged before it completes).
        self._head_charged = False

    @property
    def stats(self):
        """Counters, drained to the current instant before reading."""
        self._drain(self.sim.now)
        return self._stats

    @property
    def queue_length(self):
        """Jobs waiting to start (excludes the in-service job)."""
        self._drain(self.sim.now)
        pending = self._pending
        return len(pending) - 1 if pending else 0

    @property
    def busy(self):
        self._drain(self.sim.now)
        return bool(self._pending)

    def submit(self, service_time, fn, *args):
        """Enqueue a job taking ``service_time`` whose effect is ``fn(*args)``.

        The callback runs when the job *completes*. Returns True if the job
        was accepted, False if it was dropped because the queue was full.
        """
        return self.submit_timed(service_time, fn, *args) is not None

    def submit_timed(self, service_time, fn, *args):
        """Like :meth:`submit`, but returns the job's completion time.

        Returns ``None`` if the job was dropped (queue full). A caller that
        needs to act at the completion instant can pass ``fn=None`` and
        schedule its own single event at the returned time — ``args`` are
        then only used to describe the job to ``on_drop``.
        """
        stats = self._stats
        stats.submitted += 1
        if self.slowdown != 1.0:
            service_time = service_time * self.slowdown
        now = self.sim.now
        pending = self._pending
        # Draining is only needed once the head job has completed; while
        # the head is still in service (the common case on a busy server)
        # the deque already reflects the observable state.
        if pending and pending[0][0] <= now:
            self._drain(now)
        if pending:
            queued = len(pending) - 1   # head is in service
            if self.capacity is not None and queued >= self.capacity:
                stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(fn, args)
                return None
            completion = self._busy_until + service_time
            queued += 1
            if queued > stats.max_queue:
                stats.max_queue = queued
        else:
            completion = now + service_time
            # The job starts immediately; busy_time is charged at start.
            stats.busy_time += service_time
            self._head_charged = True
        self._busy_until = completion
        pending.append((completion, service_time))
        if fn is not None and fn is not noop:
            # The callback is scheduled directly: every observable read
            # (stats, busy, queue_length) drains lazily on access, so no
            # pre-drain wrapper is needed at the completion instant.
            # completion >= now by construction, so the unchecked bare
            # push applies.
            self.sim.push_event(completion, fn, args)
        return completion

    def submit_acct(self, service_time):
        """Accounting-only submission: charge service time, no callback.

        Semantically ``submit_timed(service, noop)`` without the varargs
        packing and callback checks — the receive path charges the CPU
        for every message, so that packing is measurable. Returns the
        completion time, or ``None`` on a queue-full drop.
        """
        stats = self._stats
        stats.submitted += 1
        if self.slowdown != 1.0:
            service_time = service_time * self.slowdown
        now = self.sim.now
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._drain(now)
        if pending:
            queued = len(pending) - 1
            if self.capacity is not None and queued >= self.capacity:
                stats.dropped += 1
                if self.on_drop is not None:
                    self.on_drop(noop, ())
                return None
            completion = self._busy_until + service_time
            queued += 1
            if queued > stats.max_queue:
                stats.max_queue = queued
        else:
            completion = now + service_time
            stats.busy_time += service_time
            self._head_charged = True
        self._busy_until = completion
        pending.append((completion, service_time))
        return completion

    def _drain(self, now):
        """Retire completed jobs and charge the in-service job's time."""
        pending = self._pending
        if not pending:
            return
        stats = self._stats
        charged = self._head_charged
        while pending and pending[0][0] <= now:
            service = pending.popleft()[1]
            if charged:
                charged = False
            else:
                stats.busy_time += service
            stats.completed += 1
        if pending and not charged:
            # The new head entered service at its predecessor's completion
            # (<= now): charge its full service, as an event-per-job
            # server does at service start.
            stats.busy_time += pending[0][1]
            charged = True
        self._head_charged = charged
