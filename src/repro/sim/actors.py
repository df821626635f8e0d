"""Reactive actor base class.

Simulated components (Paxos processes, gossip nodes, clients, fault
injectors) subclass :class:`Actor` for convenient access to the simulator,
one-shot timers and repeating timers. Actors are plain objects — there is no
mailbox indirection; message delivery is just a scheduled method call, which
keeps the hot path cheap.
"""


class Timer:
    """Handle for a repeating timer created by :meth:`Actor.every`."""

    __slots__ = ("_actor", "_interval", "_fn", "_args", "_event", "_stopped")

    def __init__(self, actor, interval, fn, args):
        self._actor = actor
        self._interval = interval
        self._fn = fn
        self._args = args
        self._event = None
        self._stopped = False
        self._arm()

    def _arm(self):
        self._event = self._actor.sim.schedule(self._interval, self._fire)

    def _fire(self):
        if self._stopped:
            return
        self._fn(*self._args)
        if not self._stopped:
            self._arm()

    def stop(self):
        """Stop the timer; pending firings are cancelled."""
        self._stopped = True
        if self._event is not None and not self._event.cancelled:
            self._actor.sim.cancel(self._event)
            self._event = None


class Actor:
    """Base class for simulated components.

    It declares no ``__slots__``, so that a subclass can also derive from
    a compiled base (the gossip node does, and keeps ``sim`` and ``name``
    in its own slots).
    """

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name

    @property
    def now(self):
        return self.sim.now

    def after(self, delay, fn, *args):
        """One-shot timer: run ``fn(*args)`` after ``delay`` seconds."""
        return self.sim.schedule(delay, fn, *args)

    def every(self, interval, fn, *args):
        """Repeating timer: run ``fn(*args)`` every ``interval`` seconds."""
        return Timer(self, interval, fn, args)

    def __repr__(self):
        return "{}({})".format(type(self).__name__, self.name)
