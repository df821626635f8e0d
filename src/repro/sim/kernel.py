"""The discrete-event simulator core.

A :class:`Simulator` owns an event queue holding the virtual clock. Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the loop executes them in
timestamp order. The simulator is single-threaded and deterministic.
"""

import gc

from repro.sim.events import EventQueue
from repro.sim.random import make_stream

_INF = float("inf")


class SimulationError(Exception):
    """Raised on invalid use of the simulator (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic discrete-event loop with named RNG streams.

    Parameters
    ----------
    seed:
        Root seed; all named RNG streams (see :meth:`rng`) derive from it.
    auditor:
        Optional :class:`repro.checks.auditor.RaceAuditor` (or anything with
        its ``make_stream``/``bind`` and queue-observer interface) that
        observes every scheduled event and RNG draw. Opt-in: the queue is
        told about pushes and executions only when an auditor is given,
        and the run loop is the same either way.
    """

    def __init__(self, seed=0, auditor=None):
        self.seed = seed
        self._queue = EventQueue(auditor)
        if auditor is None:
            self._stream_factory = make_stream
        else:
            self._stream_factory = auditor.make_stream
            auditor.bind(self)
        #: Hot-path scheduling: push ``fn(*args)`` with pre-packed ``args``
        #: (a tuple, always), skipping :meth:`schedule_at`'s past-check
        #: and creating no :class:`~repro.sim.events.Event` — the queue
        #: entry is the whole record. Only for callers whose target time
        #: is arithmetically guaranteed not to precede the clock
        #: (virtual-time completions).
        #: Returns a handle for :meth:`cancel` that is valid only while the
        #: event is pending; callers that keep handles longer (timers,
        #: generic ``schedule``/``schedule_at``) get an ``Event``.
        self.push_event = self._queue.push_bare
        self._rngs = {}
        self._running = False

    @property
    def now(self):
        """Current simulated time in seconds, a read-only float: the
        queue's clock, which only its run loop (:meth:`run`) moves."""
        return self._queue.now

    @property
    def events_scheduled(self):
        """Total events ever scheduled (the kernel event volume).

        Alongside :attr:`events_executed` this is the quantity the perf
        harness tracks: scheduling is where the heap ops, closure tuples
        and callback frames are paid for, so reducing it is how the
        message hot path gets cheaper without changing what the model
        computes (virtual-time servers, single-event link hops).
        """
        return self._queue.scheduled_total

    @property
    def events_executed(self):
        """Callbacks the run loop has invoked, a raising one included."""
        return self._queue.executed_total

    @property
    def events_cancelled(self):
        """Live events cancelled before running; with :meth:`pending` this
        closes ``events_scheduled = executed + pending + cancelled``."""
        return self._queue.cancelled_total

    def rng(self, name):
        """Return the RNG for the named stream, creating it on first use."""
        stream = self._rngs.get(name)
        if stream is None:
            stream = self._stream_factory(self.seed, name)
            self._rngs[name] = stream
        return stream

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not 0 <= delay < _INF:
            if delay < 0:
                raise SimulationError(
                    "cannot schedule {}s in the past".format(-delay))
            raise SimulationError(
                "cannot schedule a non-finite delay ({!r})".format(delay))
        return self._queue.push(self.now + delay, fn, args)

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute simulated time ``time``."""
        if not self.now <= time < _INF:
            raise self._bad_time(time)
        return self._queue.push(time, fn, args)

    def _bad_time(self, time):
        if time < self.now:
            return SimulationError(
                "cannot schedule at t={} (now is t={})".format(time, self.now))
        return SimulationError(
            "cannot schedule at non-finite t={!r}".format(time))

    def cancel(self, handle):
        """Cancel a pending event, given whatever its push returned.

        An :class:`~repro.sim.events.Event` (``schedule*``) may be
        cancelled at any time: twice, or after it ran, is a no-op. A
        :attr:`push_event` handle is a bare sequence number and must be
        cancelled only while its event is pending — the queue cannot tell
        a stale one from a live one (nor can a stale one ever alias a
        later event: sequence numbers are not reused).
        """
        if handle.__class__ is int:
            self._queue.cancel_bare(handle)
        elif not handle.cancelled:
            handle.cancel()
            self._queue.note_cancelled()

    def pending(self):
        """Number of live (non-cancelled) scheduled events."""
        return len(self._queue)

    def run(self, until=None, max_events=None, census=None):
        """Execute events in order.

        Stops when the queue drains, when simulated time would pass
        ``until``, or after ``max_events`` callbacks. Returns the number of
        events executed by this call. Stopped at ``until`` rather than by
        the budget, the loop leaves the clock exactly there (never moving
        it back), so back-to-back ``run`` calls compose; otherwise it stays
        at the last event run.
        ``until`` must be finite: NaN would disable the horizon and an
        infinite one would park the clock where nothing can be scheduled.

        The cyclic garbage collector is paused for the duration of the
        loop and the caller's setting restored on exit: a run allocates
        only acyclic records (events, messages, tuples), which reference
        counting frees, so every generation scan over the deployment's
        heap finds nothing — tests/sim/test_gc_discipline.py holds every
        committed scenario to zero unreachable objects after a run.

        ``census`` (a dict, see :mod:`repro.sim.census`) receives the
        events and nanoseconds per callback and per compiled span of
        this call, added to what it holds. It never changes what the run
        computes.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly")
        if until is not None and not -_INF < until < _INF:
            raise SimulationError(
                "until must be finite (got {!r})".format(until))
        self._running = True
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._queue.run(until, max_events, census)
        finally:
            self._running = False
            if gc_was_enabled:
                gc.enable()

    def step(self):
        """Execute exactly one event; returns True if one was executed."""
        return self.run(max_events=1) == 1
