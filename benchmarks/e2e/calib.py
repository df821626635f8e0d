"""Frozen calibration kernel for host-time normalisation.

Imports nothing from ``repro`` and is never edited to track the code under
test: its cost moves only with the host, so dividing a slice's CPU time by
the calibration time measured next to it removes the host's slow spells.

The mix matters. This sandbox's slow spells do not slow all code alike: a
heap-only kernel slowed by 1.9x while the simulator slowed by 1.7x, and
a memory-bound one by less. Four-minute interleavings of five candidate
micro-kernels with 4000-event chunks of three workloads were fitted, and
the mix below — 40 % small-object allocation, 40 % heap push/pop of
``__slots__`` objects with tuple-keyed dict probes, 20 % random reads over a
table larger than the caches, by time — tracked all three best. On fresh
four-minute runs, medians of ten ~0.7 s windows normalised by this kernel
had an interquartile spread of 3.0, 3.1 and 4.6 % of their median
(semantic_knee_n13, semantic_n100, baseline_star_n13), against 8.0, 5.2
and 9.5 % for the heap part alone; raw windows spread 17-26 %.
"""

import gc
import time
from heapq import heappop, heappush

#: Reference host: one calibration takes exactly this long there.
CU_REF_S = 0.010

_ALLOC_OPS = 4800
_HEAP_OPS = 1400
_READ_OPS = 3200
_TABLE_BYTES = 1 << 25


class _Item:
    __slots__ = ("time", "seq", "tag")

    def __init__(self, time_, seq, tag):
        self.time = time_
        self.seq = seq
        self.tag = tag

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class Calibrator:
    """Owns the read table; :meth:`run` is one calibration."""

    def __init__(self):
        # Written once so every page is real (an untouched bytearray maps
        # the kernel's shared zero page and would always hit the cache).
        self._table = bytes(range(256)) * (_TABLE_BYTES // 256)

    def run(self):
        """Run the kernel once; returns its CPU seconds.

        The collector is off meanwhile: the kernel's own allocations would
        otherwise trigger collections whose cost is that of whatever heap
        the caller holds (a full deployment), not the host's speed.
        """
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return self._kernel()
        finally:
            if was_enabled:
                gc.enable()

    def _kernel(self):
        start = time.process_time()
        for index in range(_ALLOC_OPS):
            pairs = [(index, part) for part in range(4)]
            record = {"pairs": pairs, "index": index}
        heap = []
        seen = {}
        state = 12345
        for seq in range(_HEAP_OPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            heappush(heap, _Item((state >> 8) * 1e-6, seq, state & 7))
            key = ("2B", state & 255, seq & 3)
            seen[key] = seen.get(key, 0) + 1
            if seq & 1:
                item = heappop(heap)
                if (item.tag, item.seq & 63) in seen:
                    state ^= 1
        while heap:
            heappop(heap)
        table = self._table
        mask = _TABLE_BYTES - 1
        total = len(record)
        for _ in range(_READ_OPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            total += table[(state << 4) & mask]
        return time.process_time() - start
