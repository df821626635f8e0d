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
per job, chained start-to-completion: `tests/reference/server.py`)
does, so every read equals that reference bit for bit.

The type is compiled (``_kernel/server.c``, one extension with the event
heap it pushes completions into; its Python reference model is
`tests/reference/fifo.py`). ``FifoServer(sim)`` takes a
:class:`repro.sim.Simulator`, and its surface is
``submit_timed(service_time, fn, *args)`` and ``submit_acct(service_time)``
(both return the completion), ``busy_time``, ``queue_length``, ``busy``,
``utilization(elapsed)``, ``sim`` and a writable ``slowdown`` (the
gray-failure multiplier, fixed per job at submission). A completion is
pushed without the kernel's time checks, so a negative or non-finite
service time, and a ``slowdown`` that is not finite and > 0, raise
:class:`ValueError` naming the field.
"""

import math

from repro.sim.events import compiled


def check_service_time(name, value):
    """Reject a negative or non-finite configured time, naming the field.

    Completions are ``max(now, busy_until) + service`` and go through the
    kernel's unchecked push; ``completion >= now`` holds only because
    every configured service time and delay passed this check.
    """
    if not 0.0 <= value < math.inf:
        raise ValueError(
            "{} must be a finite, non-negative time in seconds, got "
            "{!r}".format(name, value))


FifoServer = compiled.FifoServer
