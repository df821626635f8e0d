"""The calendar queue: the executable reference model of the event queue.

This is the pure-Python queue the simulator ran on before the compiled
heap of ``repro/sim/_kernel/queue.c`` replaced it, kept verbatim. It lives with
the tests because nothing else constructs it:
`tests/properties/test_queue_props.py` drives one random op stream
through it and :class:`repro.sim.events.EventQueue` and requires
identical pops and counters at every step. Its own description follows.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing sequence number assigned at scheduling time. Two events scheduled
for the same instant therefore fire in scheduling order, which keeps runs
deterministic without relying on heap tie-breaking behaviour.

:class:`EventQueue` is a calendar queue / bucketed timing wheel. Time is
partitioned into fixed-width buckets held in a dict (sparse — no fixed
horizon). A bucket beyond the drain frontier is kept as three flat
columns — an ``array("d")`` of times, an ``array("q")`` of seqs and one
list alternating ``fn, args`` — so an insert is three O(1) appends and a
pending event costs about 32 bytes: no entry tuple, no boxed time or
seq. Most simulator events are short-horizon link arrivals that land a
few buckets ahead, which is exactly the distribution a wheel wins on,
and the flood of them in flight is most of a large run's memory.

When the frontier reaches a bucket its ``(time, seq, fn, args)`` entries
are built once and sorted once; the *current* bucket is then a sorted
list read at a head index, so a pop is O(1) and a push at or behind the
frontier is a binary insertion after the head. ``(time, seq)`` is
unique, so the sort and the insertions compare C-level tuples and
nothing behind ``seq`` is ever compared. (The time column holds doubles:
a time pushed as an ``int`` pops as the equal ``float``.) An entry comes
in two kinds:

* a **bare** entry (:meth:`EventQueue.push_bare`) *is* the event: the
  callback and its args tuple sit in the entry, no :class:`Event` is
  created, and the handle is the entry's ``seq``. This is the kernel's
  hot path (link arrivals, server completions, sender wake-ups — ~95 %
  of all events), where one record per event instead of two is the
  saving. ``args`` must be a tuple, because
* a **handle** entry (:meth:`EventQueue.push`) is ``(time, seq, event,
  None)`` — ``args is None`` is the marker — and the :class:`Event` it
  returns is a handle callers may keep and cancel at any time
  (``schedule``/``schedule_at``, timers).

Cancellation is lazy and O(1) for both kinds: :meth:`Event.cancel` marks
a handle, a bare ``seq`` goes into a tombstone set, and pop skips either
kind of shell (the set is consulted only while it is non-empty). A bare
handle must be cancelled only while its event is pending: a ``seq`` names
no object, so the queue cannot tell a stale one from a live one — but for
the same reason a stale one can never alias a later event. Lazy
cancellation alone lets shells pile up until their timestamp is reached —
a retransmission timer cancelled on every ack, for instance, keeps one
dead entry per ack queued, inflating every subsequent operation. The
queue therefore *compacts* itself (drops all shells, empties the
tombstone set and rebuilds) whenever the shells outnumber the live events
and the structure is large enough for the rebuild to pay for itself; the
O(n) rebuild is amortised O(1) per cancellation.
"""

from array import array
from bisect import insort
from heapq import heapify, heappop, heappush

#: Sentinel pop limit meaning "no horizon": any event time compares
#: below +inf, so the hot loop needs no per-pop None check.
_NO_LIMIT = float("inf")


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Mark the event so it will be skipped when its time comes."""
        self.cancelled = True
        # Drop references early: a cancelled event may sit in the queue for a
        # long time, and its args can pin large message objects in memory.
        self.fn = None
        self.args = ()

    def __repr__(self):
        state = " cancelled" if self.cancelled else ""
        return "Event(t={:.6f}, seq={}{})".format(self.time, self.seq, state)


class EventQueue:
    """Calendar queue of events ordered by ``(time, seq)``.

    Time is partitioned into fixed-width buckets indexed by
    ``int(time / width)``. A bucket beyond the drain frontier is three
    columns (times, seqs, and ``fn, args`` pairs) that a push appends
    to; only when the frontier reaches the bucket are its entries built
    and sorted into the *current* list, which pop reads at a head index.
    A min-heap of bucket indices finds the next non-empty bucket without
    scanning. Because a bucket's entire time range lies strictly before
    every later bucket's, the current list's head is always the global
    minimum — the ``(time, seq)`` total order (ties share a timestamp and
    therefore a bucket) is preserved exactly.

    There is no fixed horizon: buckets are created on demand however far
    ahead an event lands, and the index heap skips the empty gaps, so the
    wheel degrades gracefully (to roughly heap behaviour) on sparse
    long-horizon workloads instead of overflowing.

    Bookkeeping is one counter store per operation: a push bumps
    ``_pushed``, a pop ``_popped``, a cancellation ``_cancelled`` (and
    ``_shells``, the cancelled entries still physically queued); the live
    count, the physical size and the scheduled total are derived.
    """

    __slots__ = ("_seq", "_pushed", "_popped", "_cancelled", "_shells",
                 "_dead", "_cur", "_head", "_cur_idx", "_future",
                 "_bucket_heap", "_inv_width")

    #: Minimum physical size before compaction is considered; below this the
    #: lazy pops clean up cancelled shells cheaply enough on their own.
    COMPACT_MIN_SIZE = 64

    #: Bucket width in simulated seconds. The committed scenarios'
    #: event horizons are bimodal — ~40% under 100 µs (virtual-time
    #: completions, local hops) and ~55% between 10 ms and 100 ms (WAN
    #: link arrivals, pacing rounds) — so 1 ms buckets keep the binary
    #: insertions to the short-horizon cluster while WAN arrivals spread
    #: across O(10-100) cheap column-append buckets.
    BUCKET_WIDTH = 1e-3

    def __init__(self):
        self._seq = 0
        self._pushed = 0
        self._popped = 0
        self._cancelled = 0
        self._shells = 0
        #: Tombstones: the ``seq`` of every cancelled bare entry still
        #: physically queued.
        self._dead = set()
        self._inv_width = 1.0 / self.BUCKET_WIDTH
        #: Sorted entries whose bucket index is <= the drain frontier
        #: ``_cur_idx``; those before ``_head`` are consumed (None).
        self._cur = []
        self._head = 0
        self._cur_idx = -1
        #: Bucket index -> ``(times, seqs, objs)`` columns in push order,
        #: ``objs`` alternating ``fn, args``, for indices strictly beyond
        #: the frontier.
        self._future = {}
        #: Min-heap of future bucket indices; may hold stale indices for
        #: buckets emptied by compaction (skipped on pop).
        self._bucket_heap = []

    def __len__(self):
        """Live (pending, non-cancelled) events."""
        return self._pushed - self._popped - self._cancelled

    @property
    def scheduled_total(self):
        """Events ever pushed — the kernel event volume a run generates."""
        return self._pushed

    @property
    def cancelled_total(self):
        """Live events cancelled before running; closes ``scheduled_total
        = popped + len(queue) + cancelled_total``."""
        return self._cancelled

    @property
    def heap_size(self):
        """Physical entries across all buckets, including shells."""
        return len(self) + self._shells

    def push(self, time, fn, args):
        """Create and enqueue an event; returns its :class:`Event` handle.

        The event is sequenced at push time. The handle may be kept
        indefinitely.
        """
        event = Event(time, self._seq, fn, args)
        EventQueue.push_bare(self, time, event, None)
        return event

    def push_bare(self, time, fn, args):
        """Enqueue ``fn(*args)`` with no :class:`Event`; returns its ``seq``.

        The kernel's hot path. ``args`` must be a tuple (``None`` marks a
        handle entry). The returned ``seq`` is the handle
        :meth:`cancel_bare` takes — valid only while the event is pending.
        """
        seq = self._seq
        self._seq += 1
        self._pushed += 1
        idx = int(time * self._inv_width)
        if idx <= self._cur_idx:
            insort(self._cur, (time, seq, fn, args), self._head)
        else:
            bucket = self._future.get(idx)
            if bucket is None:
                self._future[idx] = (array("d", (time,)), array("q", (seq,)),
                                     [fn, args])
                heappush(self._bucket_heap, idx)
            else:
                times, seqs, objs = bucket
                times.append(time)
                seqs.append(seq)
                objs.append(fn)
                objs.append(args)
        return seq

    def _advance(self):
        """Make the earliest future bucket the current list.

        Called only once the current list is consumed. Returns False when
        no future bucket holds entries. Advancing the frontier past the
        kernel clock is harmless: later pushes whose index falls at or
        behind the frontier are inserted into the current list in order.
        """
        future = self._future
        bheap = self._bucket_heap
        while bheap:
            idx = heappop(bheap)
            bucket = future.pop(idx, None)
            if bucket is None:
                continue
            times, seqs, objs = bucket
            cur = list(zip(times, seqs, objs[0::2], objs[1::2]))
            cur.sort()
            self._cur = cur
            self._head = 0
            self._cur_idx = idx
            return True
        return False

    def pop_entry(self, limit):
        """Remove and return the earliest live ``(time, seq, fn, args)``.

        What :meth:`Simulator.run` pops: the entry as stored, so a bare
        event is dispatched without ever becoming an object (``args is
        None`` means ``fn`` is the :class:`Event` of a handle entry).
        Returns None when the queue is drained or the earliest live entry
        is later than ``limit`` (it stays queued); shells ahead of it are
        discarded either way, so the loop advances with a single O(1) read
        per executed event instead of a peek-then-pop pair. A consumed
        slot is cleared, so the entry is freed once its callback is done.
        """
        cur = self._cur
        head = self._head
        while True:
            if head == len(cur):
                if not self._advance():
                    self._head = head
                    return None
                cur = self._cur
                head = 0
            entry = cur[head]
            if entry[3] is None:
                if entry[2].cancelled:
                    cur[head] = None
                    head += 1
                    self._shells -= 1
                    continue
            elif self._dead and entry[1] in self._dead:
                cur[head] = None
                head += 1
                self._dead.remove(entry[1])
                self._shells -= 1
                continue
            if entry[0] > limit:
                self._head = head
                return None
            cur[head] = None
            self._head = head + 1
            self._popped += 1
            return entry

    def pop(self, limit=None):
        """Remove and return the earliest live event as an :class:`Event`.

        A bare entry is wrapped on demand (``.time/.seq/.fn/.args``).
        ``limit`` as for :meth:`pop_entry`; None means no horizon.
        """
        entry = self.pop_entry(_NO_LIMIT if limit is None else limit)
        if entry is None:
            return None
        if entry[3] is None:
            return entry[2]
        return Event(*entry)

    def note_cancelled(self):
        """Callers must invoke this once per cancelled live event."""
        self._cancelled += 1
        self._shells += 1
        live = self._pushed - self._popped - self._cancelled
        if (self._shells > live
                and live + self._shells >= self.COMPACT_MIN_SIZE):
            self._compact()

    def cancel_bare(self, seq):
        """Cancel the pending bare event whose push returned ``seq``.

        Only while it is pending: a ``seq`` that has already run (or was
        already cancelled) would be counted as a second cancellation.
        """
        self._dead.add(seq)
        self.note_cancelled()

    def _compact(self):
        dead = self._dead

        def live(time, seq, fn, args):
            return not fn.cancelled if args is None else seq not in dead

        self._cur = [entry for entry in self._cur[self._head:]
                     if live(*entry)]
        self._head = 0
        future = {}
        for idx, (times, seqs, objs) in self._future.items():
            kept_times, kept_seqs, kept_objs = kept = array("d"), array("q"), []
            for time, seq, fn, args in zip(times, seqs, objs[0::2],
                                           objs[1::2]):
                if live(time, seq, fn, args):
                    kept_times.append(time)
                    kept_seqs.append(seq)
                    kept_objs.append(fn)
                    kept_objs.append(args)
            if kept_seqs:
                future[idx] = kept
        self._future = future
        self._bucket_heap = list(future)
        heapify(self._bucket_heap)
        dead.clear()
        self._shells = 0

