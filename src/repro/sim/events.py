"""Event records and the simulator's pending-event queue.

Events are ordered by ``(time, seq)`` where ``seq`` is a monotonically
increasing sequence number assigned at scheduling time. Two events scheduled
for the same instant therefore fire in scheduling order, which keeps runs
deterministic without relying on heap tie-breaking behaviour.

:class:`EventQueue` is a calendar queue / bucketed timing wheel. Time is
partitioned into fixed-width buckets held in a dict (sparse — no fixed
horizon); only the bucket currently being drained is kept heap-ordered, so
an insert into a future bucket is an O(1) list append instead of an
O(log n) sift. Most simulator events are short-horizon link arrivals that
land a few buckets ahead, which is exactly the distribution a wheel wins
on. Entries are ``(time, seq, event)`` tuples so the heap sifts compare
C-level tuples — ``(time, seq)`` is unique, so the event object itself is
never compared.

Cancellation is lazy: :meth:`Event.cancel` marks the event and the
queue skips cancelled entries when popping. This is O(1) per cancellation
and avoids the cost of re-heapifying. Lazy cancellation alone, however,
lets cancelled shells pile up until their timestamp is reached — a
retransmission timer cancelled on every ack, for instance, keeps one dead
entry per ack queued, inflating every subsequent operation. The queue
therefore *compacts* itself (drops all cancelled shells and rebuilds)
whenever the shells outnumber the live events and the structure is large
enough for the rebuild to pay for itself; the O(n) rebuild is amortised
O(1) per cancellation.

Allocation churn is bounded by a per-queue freelist: events pushed through
``push_pooled`` are recycled by the kernel after their callback runs and
reused for later pushes. Only the kernel's hot paths — whose event handles
provably never outlive the callback — use the pooled entry point;
``schedule``/``schedule_at`` hand out fresh events whose handles callers
may keep indefinitely. Cancelled shells are never recycled, so a stale
``cancel`` on an old handle remains the documented no-op instead of
killing an unrelated new tenant.
"""

from heapq import heapify, heappop, heappush

#: Sentinel pop() limit meaning "no horizon": any event time compares
#: below +inf, so the hot loop needs no per-pop None check.
_NO_LIMIT = float("inf")


class Event:
    """A scheduled callback; returned by :meth:`Simulator.schedule`."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "pooled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.pooled = False

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
    ``int(time / width)``. Entries land in an unordered per-bucket list
    (O(1) append); only when the drain frontier reaches a bucket is it
    heapified into the *current* heap. A separate min-heap of bucket
    indices finds the next non-empty bucket without scanning. Because a
    bucket's entire time range lies strictly before every later bucket's,
    the current heap's root is always the global minimum — the ``(time,
    seq)`` total order (including :meth:`reserve`-pinned ties, which share
    a timestamp and therefore a bucket) is preserved exactly.

    There is no fixed horizon: buckets are created on demand however far
    ahead an event lands, and the index heap skips the empty gaps, so the
    wheel degrades gracefully (to roughly heap behaviour) on sparse
    long-horizon workloads instead of overflowing.
    """

    __slots__ = ("_seq", "_live", "_pushed", "_pool", "_cur", "_cur_idx",
                 "_future", "_bucket_heap", "_inv_width", "_physical")

    #: Minimum physical size before compaction is considered; below this the
    #: lazy pops clean up cancelled shells cheaply enough on their own.
    COMPACT_MIN_SIZE = 64

    #: Freelist cap — enough to absorb the steady-state in-flight event
    #: population of the committed scenarios without hoarding memory.
    POOL_MAX = 4096

    #: Bucket width in simulated seconds. The committed scenarios'
    #: event horizons are bimodal — ~40% under 100 µs (virtual-time
    #: completions, local hops) and ~55% between 10 ms and 100 ms (WAN
    #: link arrivals, pacing rounds) — so 1 ms buckets keep same-bucket
    #: heap ordering work to the short-horizon cluster while WAN arrivals
    #: spread across O(10-100) cheap list-append buckets.
    BUCKET_WIDTH = 1e-3

    def __init__(self):
        self._seq = 0
        self._live = 0
        self._pushed = 0
        self._pool = []
        self._inv_width = 1.0 / self.BUCKET_WIDTH
        #: Heap of ``(time, seq, event)`` for every entry whose bucket index
        #: is <= the drain frontier ``_cur_idx``.
        self._cur = []
        self._cur_idx = -1
        #: Bucket index -> unordered list of ``(time, seq, event)`` entries,
        #: for indices strictly beyond the frontier.
        self._future = {}
        #: Min-heap of future bucket indices; may hold stale indices for
        #: buckets emptied by compaction (skipped on pop).
        self._bucket_heap = []
        self._physical = 0

    def __len__(self):
        return self._live

    @property
    def scheduled_total(self):
        """Events ever pushed — the kernel event volume a run generates.

        Reserved-but-unused sequence numbers (see :meth:`reserve`) are not
        counted: they cost one integer increment, not a queue operation.
        """
        return self._pushed

    def reserve(self):
        """Allocate and return a sequence number without enqueueing.

        Lets a caller that *may* need an event later pin its tie-breaking
        position now: an event pushed afterwards with the reserved ``seq``
        fires exactly where an event scheduled at reservation time would
        have. Unused reservations cost nothing but a gap in the sequence —
        relative order of all other events is unaffected.
        """
        seq = self._seq
        self._seq += 1
        return seq

    def recycle(self, event):
        """Return an executed pooled event to the freelist.

        Only the kernel loop calls this, after the callback of an event it
        retired itself — the handle cannot be cancelled or re-examined by
        anyone else afterwards. Cancelled-in-queue shells never reach here.
        """
        if len(self._pool) < self.POOL_MAX:
            self._pool.append(event)

    @property
    def heap_size(self):
        """Physical entries across all buckets, including shells."""
        return self._physical

    def push(self, time, fn, args, seq=None):
        """Create and enqueue an event; returns its handle.

        ``seq`` (from :meth:`reserve`) overrides the tie-breaking position;
        by default the event is sequenced at push time.
        """
        if seq is None:
            seq = self._seq
            self._seq += 1
        event = Event(time, seq, fn, args)
        self._pushed += 1
        self._live += 1
        self._physical += 1
        idx = int(time * self._inv_width)
        if idx <= self._cur_idx:
            heappush(self._cur, (time, seq, event))
        else:
            bucket = self._future.get(idx)
            if bucket is None:
                self._future[idx] = [(time, seq, event)]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append((time, seq, event))
        return event

    def push_pooled(self, time, fn, args, seq=None):
        """Like :meth:`push`, but may reuse a recycled event record.

        Only for callers whose handle never escapes structures drained
        before the callback runs — the kernel recycles the record after
        executing it, and a stale handle must not alias the next tenant.
        """
        if seq is None:
            seq = self._seq
            self._seq += 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time = time
            event.seq = seq
            event.fn = fn
            event.args = args
            event.cancelled = False
        else:
            event = Event(time, seq, fn, args)
            event.pooled = True
        self._pushed += 1
        self._live += 1
        self._physical += 1
        idx = int(time * self._inv_width)
        if idx <= self._cur_idx:
            heappush(self._cur, (time, seq, event))
        else:
            bucket = self._future.get(idx)
            if bucket is None:
                self._future[idx] = [(time, seq, event)]
                heappush(self._bucket_heap, idx)
            else:
                bucket.append((time, seq, event))
        return event

    def _advance(self):
        """Merge the earliest future bucket into the current heap.

        Returns False when no future bucket holds entries. Advancing the
        frontier past the kernel clock is harmless: later pushes whose
        index falls at or behind the frontier go straight into the current
        heap, which orders them correctly regardless.
        """
        future = self._future
        bheap = self._bucket_heap
        while bheap:
            idx = heappop(bheap)
            bucket = future.pop(idx, None)
            if bucket is None:
                continue
            self._cur_idx = idx
            cur = self._cur
            if cur:
                for entry in bucket:
                    heappush(cur, entry)
            else:
                heapify(bucket)
                self._cur = bucket
            return True
        return False

    def pop(self, limit=None):
        """Remove and return the earliest non-cancelled event, or None.

        With ``limit``, an event later than ``limit`` is left queued and
        None is returned — cancelled shells ahead of it are still
        discarded. This lets the simulator loop advance with a single
        heap operation per executed event instead of a peek-then-pop pair.
        """
        if limit is None:
            limit = _NO_LIMIT
        while True:
            cur = self._cur
            while cur:
                time, _seq, event = cur[0]
                if event.cancelled:
                    heappop(cur)
                    self._physical -= 1
                    continue
                if time > limit:
                    return None
                heappop(cur)
                self._physical -= 1
                self._live -= 1
                return event
            if not self._advance():
                return None

    def peek_time(self):
        """Time of the earliest pending event, or None if empty."""
        while True:
            cur = self._cur
            while cur:
                entry = cur[0]
                if entry[2].cancelled:
                    heappop(cur)
                    self._physical -= 1
                    continue
                return entry[0]
            if not self._advance():
                return None

    def note_cancelled(self):
        """Callers must invoke this once per cancelled live event."""
        self._live -= 1
        shells = self._physical - self._live
        if shells > self._live and self._physical >= self.COMPACT_MIN_SIZE:
            self._compact()

    def _compact(self):
        cur = [entry for entry in self._cur if not entry[2].cancelled]
        heapify(cur)
        self._cur = cur
        future = {}
        physical = len(cur)
        for idx, bucket in self._future.items():
            live = [entry for entry in bucket if not entry[2].cancelled]
            if live:
                future[idx] = live
                physical += len(live)
        self._future = future
        self._bucket_heap = list(future)
        heapify(self._bucket_heap)
        self._physical = physical


def resolve_queue_backend():
    """Return the event-queue class (there is exactly one).

    Kept only as the seam the repo benchmark's isolated queue drivers
    (``benchmarks/e2e/drivers.py``) import: they call this with no
    argument and instantiate the result. Everything else constructs
    :class:`EventQueue` directly.
    """
    return EventQueue
