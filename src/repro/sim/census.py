"""Reading a run-loop census.

``Simulator.run(..., census=d)`` — the compiled ``EventQueue.run`` —
fills the dict ``d`` with ``key -> (count, ns)`` pairs, added to what it
already holds (so a run sliced into several calls accumulates):

* per **callback**, keyed by its function (a Python function, a bound
  method's ``__func__``, or a compiled method's descriptor): the events
  that ran it and the ``CLOCK_MONOTONIC`` nanoseconds they took,
  inclusive of everything the callback called;
* per **span**, keyed by a name such as ``"NodeCore._complete ->
  deliver"``: the calls one compiled type made into another (the node
  into the replica and the membership handlers, the fan-out and the
  sender's round into the filter and the aggregator, the link into its
  loss hook, the node into the aggregated receive), timed the same way.
  A span's time is part of the callback that made the call;
* ``"EventQueue.run"``: the events the loop ran and its whole time, so
  the loop's own cost is that minus the callbacks'.

The counters live in C for the duration of the run; the dict is written
once, when the loop returns. Without a census the loop and the spans
cost one pointer test each. The census never changes what a run
computes, and no report carries it.
"""

RUN = "EventQueue.run"

HEADERS = ("callback", "events", "ms", "events/decided", "us/decided")


def label(key):
    """A census key's printable name."""
    if isinstance(key, str):
        return key
    return getattr(key, "__qualname__", None) or type(key).__name__


def callbacks(census):
    """``(label, events, ns)`` per callback, costliest first."""
    rows = [(label(key), count, ns) for key, (count, ns) in census.items()
            if not isinstance(key, str)]
    return sorted(rows, key=lambda row: (-row[2], row[0]))


def spans(census):
    """``(name, calls, ns)`` per span, costliest first."""
    rows = [(key, count, ns) for key, (count, ns) in census.items()
            if isinstance(key, str) and key != RUN]
    return sorted(rows, key=lambda row: (-row[2], row[0]))


def event_total(census):
    """Events counted under callbacks: the run's executed events."""
    return sum(count for key, (count, _ns) in census.items()
               if not isinstance(key, str))


def rows(census, decided):
    """Table rows: callbacks, then spans (marked ``> ``), then the loop's
    own time, each with its events and time per decided value."""
    per = max(decided, 1)

    def row(name, count, ns):
        return [name, count, "{:.3f}".format(ns / 1e6),
                "{:.2f}".format(count / per),
                "{:.2f}".format(ns / 1e3 / per)]

    table = [row(*entry) for entry in callbacks(census)]
    table.extend(row("> " + name, count, ns)
                 for name, count, ns in spans(census))
    if RUN in census:
        events, ns = census[RUN]
        inside = sum(ns for _name, _count, ns in callbacks(census))
        table.append(row("(loop itself)", events, ns - inside))
    return table
