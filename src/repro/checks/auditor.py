"""Dynamic determinism race auditor.

The simulator's tie-breaking contract is *(time, seq)*: two events at the
same virtual instant fire in the order their sequence numbers were
allocated. That is deterministic **within** one process, but the PR 4
tie-break hazard showed it can silently encode *push order* — whatever
order a ``set`` iterated, a lazily-armed wake-up happened to arm, or a
dict happened to be walked — and push order is exactly what a different
``PYTHONHASHSEED`` or insertion history perturbs.

A :class:`RaceAuditor` makes that hazard observable. Attached to a
:class:`~repro.sim.kernel.Simulator` at construction
(``Simulator(seed, auditor=auditor)``) it records, with zero changes to
simulation behaviour:

* **tie groups** — every set of events scheduled for one identical
  virtual timestamp, each member tagged with its callback label, its
  sequence number, whether that sequence number came from a *reserved
  slot* (:meth:`Simulator.reserve_slot` — the explicit tie-break
  mechanism) or from push order, and the event that scheduled it;
* **RNG draw counts** — every named stream (``repro.sim.random``) is
  wrapped in a :class:`CountingStream`, so paired runs can be diffed to
  find which stream's draw sequence first slid when fingerprints differ;
* **an execution trace** — one entry per executed event: ``(time, seq,
  label, args signature, reserved flag, per-stream draw deltas)``,
  address-free so two runs of identical behaviour produce identical
  traces. A rolling SHA-256 digest of the trace is always maintained;
  the full entry list is kept only when ``capture=True``.

The auditor is strictly opt-in. It is the event queue's *observer*
(:mod:`repro.sim.events`): the compiled queue tells it about every
reservation, push and execution, and runs the same loop either way. An
unattached simulator's queue has no observer and binds the plain
:func:`make_stream`, so the audited machinery is never on the hot path
(``benchmarks/e2e`` gates its cost).

:mod:`repro.checks.race` builds the double-run ``repro check --race``
harness on top of this module.
"""

import hashlib

from repro.sim.random import CountingStream

#: Origin marker for events pushed before the first event executed
#: (deployment wiring, ``start()`` scheduling): their relative order is
#: fixed by straight-line setup code, not by the event loop.
SETUP_ORIGIN = -1


def callback_label(fn):
    """Stable, address-free label for a scheduled callback."""
    label = getattr(fn, "__qualname__", None)
    if label is None:
        label = type(fn).__name__
    return label


def args_signature(args):
    """Address-free signature of a callback's arguments.

    Scalars contribute their value (floats exactly, via ``hex``); any
    other object contributes only its class name. Two runs doing the same
    thing therefore produce equal signatures, while ``repr``-style memory
    addresses can never leak in.
    """
    parts = []
    for arg in args:
        if arg is None or isinstance(arg, (bool, int, str)):
            parts.append(repr(arg))
        elif isinstance(arg, float):
            parts.append(arg.hex())
        else:
            parts.append(type(arg).__name__)
    return ",".join(parts)


class TieMember:
    """One event of a same-timestamp tie group, with push provenance."""

    __slots__ = ("seq", "label", "args_sig", "reserved", "origin")

    def __init__(self, seq, label, args_sig, reserved, origin):
        self.seq = seq
        self.label = label
        self.args_sig = args_sig
        self.reserved = reserved      # seq came from reserve_slot()
        self.origin = origin          # exec index of the scheduling event

    def to_dict(self):
        return {
            "seq": self.seq,
            "label": self.label,
            "args": self.args_sig,
            "reserved": self.reserved,
            "origin": self.origin,
        }


class TieGroup:
    """All events scheduled for one identical virtual timestamp."""

    __slots__ = ("time", "members")

    def __init__(self, time):
        self.time = time
        self.members = []

    def is_hazard(self):
        """Whether this group's ordering depends on push order.

        Two or more *non-reserved* members at one instant fire in push
        order — the PR 4 hazard class. Push order is deterministic within
        one interpreter, but it is exactly what a hash-ordered container
        feeding the scheduling loop, a different ``PYTHONHASHSEED``, or a
        lazily-armed wake-up perturbs; only a slot reserved at the point
        where the *logical* order is decided pins it. Flagged groups are
        an audit surface, not individually proven races: the double-run
        harness (:mod:`repro.checks.race`) is the oracle for which of
        them actually bite.
        """
        return sum(1 for m in self.members if not m.reserved) >= 2

    def to_dict(self):
        return {
            "time": self.time.hex(),
            "members": [m.to_dict() for m in self.members],
            "hazard": self.is_hazard(),
        }


class RaceAuditor:
    """Observes one simulation run for push-order tie-break hazards.

    Pass to ``Simulator(seed, auditor=...)``; the simulator makes it its
    queue's observer and calls :meth:`make_stream`/:meth:`bind` at
    construction.
    After (or during) the run, inspect :meth:`tie_groups`,
    :meth:`hazards`, :meth:`rng_draws`, :meth:`trace` / :meth:`digest`,
    or :meth:`summary`.
    """

    def __init__(self, capture=False):
        self.capture = capture
        self.sim = None
        self._streams = {}            # name -> CountingStream
        self._prev_draws = {}         # name -> draws at last executed event
        self._by_time = {}            # time -> TieGroup
        self._reserved = set()        # seqs handed out by reserve_slot
        self._pending = {}            # seq -> (label, args_sig) for exec lookup
        self._trace = []              # kept only when capture=True
        self._hash = hashlib.sha256()
        self.events_recorded = 0
        self.events_executed = 0
        self._exec_index = SETUP_ORIGIN

    # -- simulator integration (called by Simulator.__init__) --------------

    def make_stream(self, root_seed, name):
        stream = CountingStream(root_seed, name)
        self._streams[name] = stream
        self._prev_draws[name] = 0
        return stream

    def bind(self, sim):
        if self.sim is not None:
            raise RuntimeError("RaceAuditor is single-run; attach a fresh "
                               "auditor per simulator")
        self.sim = sim

    # -- queue observer callbacks -------------------------------------------

    def note_reserved(self, seq):
        self._reserved.add(seq)

    def note_push(self, time, seq, fn, args, explicit_seq):
        label = callback_label(fn)
        args_sig = args_signature(args)
        reserved = explicit_seq and seq in self._reserved
        group = self._by_time.get(time)
        if group is None:
            group = self._by_time[time] = TieGroup(time)
        group.members.append(TieMember(
            seq, label, args_sig, reserved, self._exec_index))
        self._pending[seq] = (label, args_sig, reserved)
        self.events_recorded += 1

    def note_exec(self, time, seq, fn, args):
        self._exec_index = self.events_executed
        self.events_executed += 1
        label, args_sig, reserved = self._pending.pop(
            seq, (callback_label(fn), args_signature(args), False))
        deltas = []
        for name, stream in self._streams.items():
            delta = stream.draws - self._prev_draws[name]
            if delta:
                self._prev_draws[name] = stream.draws
                deltas.append((name, delta))
        deltas.sort()
        entry = (time.hex(), seq, label, args_sig, reserved, tuple(deltas))
        self._hash.update(repr(entry).encode("utf-8"))
        if self.capture:
            self._trace.append(entry)

    # -- views ---------------------------------------------------------------

    def trace(self):
        """The captured execution trace (``capture=True`` runs only)."""
        return list(self._trace)

    def digest(self):
        """Rolling SHA-256 over the executed-event trace so far."""
        return self._hash.hexdigest()

    def rng_draws(self):
        """Draw count per named stream, in sorted stream order."""
        return {name: stream.draws
                for name, stream in sorted(self._streams.items())}

    def tie_groups(self):
        """Groups of two or more events scheduled at one instant."""
        return [group for _time, group in sorted(self._by_time.items())
                if len(group.members) >= 2]

    def hazards(self):
        """Tie groups whose ordering depends on push order (see
        :meth:`TieGroup.is_hazard`)."""
        return [group for group in self.tie_groups() if group.is_hazard()]

    def group_at(self, time):
        """The tie group at an exact virtual timestamp, or None."""
        return self._by_time.get(time)

    def summary(self):
        """Compact, JSON-ready description of what the run did."""
        ties = self.tie_groups()
        hazards = [g for g in ties if g.is_hazard()]
        return {
            "events_recorded": self.events_recorded,
            "events_executed": self.events_executed,
            "trace_digest": self.digest(),
            "rng_draws": self.rng_draws(),
            "tie_groups": len(ties),
            "tied_events": sum(len(g.members) for g in ties),
            "hazard_groups": len(hazards),
            "reserved_slots": len(self._reserved),
        }
