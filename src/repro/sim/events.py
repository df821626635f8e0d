"""Event records and the simulator's pending-event queue.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing sequence number assigned at scheduling time. Two events scheduled
for the same instant therefore fire in scheduling order, which keeps runs
deterministic without relying on heap tie-breaking behaviour.

Both classes are compiled: ``_kernel.c`` next to this file is built on
first import (:mod:`repro.sim.native`) and there is no pure-Python twin.
The same extension holds the types a message hop goes through, which
push into the queue directly: :class:`repro.sim.server.FifoServer`,
:class:`repro.net.channel.DirectedLink` and
:class:`repro.gossip.cache.InternedSeenCache`.
:class:`EventQueue` is a binary min-heap of 32-byte entries ``{double
time; int64 seq; fn; args}``; ``(time, seq)`` is unique, so the pop order
is fully determined by the pushes. Its ``run(limit, budget)`` is the
simulator's event loop (:meth:`repro.sim.kernel.Simulator.run`). The queue
holds the simulated clock, a C double read as ``now``
(:attr:`repro.sim.kernel.Simulator.now`): ``run`` sets it to each event's
time before calling it and leaves it at a finite ``limit`` when it stops
there rather than at ``budget``. Nothing else writes it, and the compiled
types read it in C. A time must be finite: a push of NaN or ±inf raises
:class:`ValueError`. A time pushed as an ``int`` pops as the equal
``float``. An entry comes in two kinds:

* a **bare** entry (``push_bare(time, fn, args)``) *is* the
  event: the callback and its args tuple sit in the entry, no
  :class:`Event` is created, and the handle is the entry's ``seq``. This
  is the kernel's hot path (link arrivals, server completions, sender
  wake-ups — ~95 % of all events). ``args`` must be a tuple;
* a **handle** entry (``push(time, fn, args)``) holds the
  :class:`Event` it returns, a handle callers may keep and cancel at any
  time (``schedule``/``schedule_at``, timers). The run loop retires a
  handle (marks it cancelled, drops its references) before calling it.

``pop_entry(limit)`` removes and returns the earliest live entry as
``(time, seq, fn, args)`` (``args is None`` marks a handle entry, whose
``fn`` is the :class:`Event`), or None when the queue is drained or that
entry is later than ``limit``; ``pop(limit=None)`` returns an
:class:`Event` (a bare entry is wrapped on demand).

Cancellation is lazy and O(1) for both kinds: :meth:`Event.cancel` marks
a handle (the caller then calls ``note_cancelled()``), and
``cancel_bare(seq)`` puts a bare ``seq`` into a tombstone set. A pop
discards either kind of shell ahead of the earliest live entry, whether
or not that entry is within the limit. A bare handle must be cancelled
only while its event is pending: a ``seq`` names no object, so the queue
cannot tell a stale one from a live one — but for the same reason a stale
one can never alias a later event. Lazy cancellation alone lets shells
pile up until their timestamp is reached (a retransmission timer
cancelled on every ack keeps one dead entry per ack queued), so the queue
*compacts* itself — drops every shell, empties the tombstone set and
re-heapifies — whenever the shells outnumber the live events and the heap
holds at least 64 entries; the O(n) rebuild is amortised O(1) per
cancellation.

Counters: ``len(queue)`` is the live events, ``heap_size`` the physical
entries (shells included), ``scheduled_total`` every push,
``cancelled_total`` the live events cancelled before running and
``executed_total`` the callbacks the run loop invoked (a raising one
included), so ``scheduled_total = executed_total + len(queue) +
cancelled_total`` whenever only the run loop pops.

``EventQueue(observer)`` reports to an observer (the race auditor,
:mod:`repro.checks.auditor`): ``note_push(time, seq, fn, args)`` per push
and ``note_exec(time, seq, fn, args)`` per executed event, just before its
callback. The default, None, costs one pointer test per operation.
"""

from pathlib import Path

from repro.sim.native import load_extension

compiled = load_extension(Path(__file__).with_name("_kernel.c"),
                          "repro.sim._kernel")

Event = compiled.Event
EventQueue = compiled.EventQueue


def resolve_queue_backend():
    """Return the event-queue class (there is exactly one).

    Kept only as the seam the repo benchmark's isolated queue drivers
    (``benchmarks/e2e/drivers.py``) import: they call this with no
    argument and instantiate the result. Everything else constructs
    :class:`EventQueue` directly.
    """
    return EventQueue
