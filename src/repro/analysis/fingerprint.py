"""Exact fingerprints of what an experiment run computed.

The virtual-time server rework (and any future kernel optimisation)
promises to change *how fast* the simulator runs without changing *what it
computes*. That promise is checked by fingerprinting the outcome of a run:
the raw latency samples, the per-client samples, the decision counters and
every :class:`~repro.runtime.metrics.MessageStats` field of a
:class:`~repro.runtime.metrics.MetricsReport` are serialised to a
canonical JSON document — floats rendered via :meth:`float.hex` so every
bit of the mantissa participates — and hashed. Two runs computed the same
thing iff their fingerprints match; there is no tolerance, because the
simulator is deterministic and the optimisations are meant to be exact.

The config that produced the run is not part of the document: a config
field can be added or deleted without moving a digest, and two configs
that differ only in a knob the run never reads fingerprint alike.

Used by the committed-fingerprint tests
(``tests/integration/test_committed_fingerprints.py`` and, for the
large-N scenarios, ``benchmarks/test_large_scenarios.py``), which pin each
committed scenario's fingerprint so a perf change that silently alters
results fails CI even when it is fast.
"""

import dataclasses
import hashlib
import json


def _canonical(value):
    """Recursively convert ``value`` into JSON-encodable canonical form.

    Floats become their hex representation (exact, every bit), so 0.1+0.2
    and 0.3 fingerprint differently. Dict keys become strings. Anything
    else an outcome cannot hold raises :class:`TypeError`; ``repr`` is
    never used, so memory addresses cannot leak into the hash.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(
        "cannot canonicalise {!r} for fingerprinting".format(type(value)))


def report_to_dict(report):
    """Canonical dict form of a MetricsReport's outcome (exact floats).

    Covers everything the run computed: raw latency samples, per-client
    samples, decision counters, and all MessageStats fields — if any of
    it shifts by one ulp the fingerprint changes.
    """
    return {
        "latencies_s": _canonical(report.latencies_s),
        "per_client_latencies_s": _canonical(report.per_client_latencies_s),
        "submitted": report.submitted,
        "decided": report.decided,
        "decided_in_window": report.decided_in_window,
        "decided_by_majority": report.decided_by_majority,
        "decided_by_message": report.decided_by_message,
        "messages": _canonical(dataclasses.asdict(report.messages)),
    }


def report_fingerprint(report):
    """sha256 hex digest of the canonical serialisation of ``report``."""
    document = json.dumps(report_to_dict(report), sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(document.encode("ascii")).hexdigest()
