"""Exact fingerprints of experiment reports.

The virtual-time server rework (and any future kernel optimisation)
promises to change *how fast* the simulator runs without changing *what it
computes*. That promise is checked by fingerprinting: a
:class:`~repro.runtime.metrics.MetricsReport` is serialised to a canonical
JSON document — floats rendered via :meth:`float.hex` so every bit of the
mantissa participates — and hashed. Two runs are behaviourally identical
iff their fingerprints match; there is no tolerance, because the
simulator is deterministic and the optimisations are meant to be exact.

Used by the committed-fingerprint test
(``tests/integration/test_committed_fingerprints.py``) and the perf-smoke
gate (``benchmarks/perf``), which both pin each committed scenario's
fingerprint so a perf change that silently alters results fails CI even
when it is fast.
"""

import dataclasses
import hashlib
import json

#: Field metadata marking a dataclass field that is serialised only when
#: it differs from its declared default. A field added after fingerprints
#: were committed carries it: every report that leaves the field alone
#: keeps its digest, and any other value changes the digest loudly.
_OMIT_KEY = "fingerprint_omit_at_default"
OMIT_AT_DEFAULT = {_OMIT_KEY: True}

#: The reverse case: ``ExperimentConfig`` fields deleted after fingerprints
#: were committed, in canonical form at the one value every committed run
#: gave them. The config document still carries them, so deleting a knob
#: no run used moves no digest.
RETIRED_CONFIG_FIELDS = {"crashes": [], "failover_timeout": None}


def _canonical(value):
    """Recursively convert ``value`` into JSON-encodable canonical form.

    Floats become their hex representation (exact, every bit), so 0.1+0.2
    and 0.3 fingerprint differently. Objects are walked structurally —
    dataclasses by field (see :data:`OMIT_AT_DEFAULT` for the one
    exception), ``__slots__`` classes by slot, plain objects by
    ``__dict__`` — tagged with the class name; ``repr`` is never used, so
    memory addresses cannot leak into the hash.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(v) for v in value)
    if dataclasses.is_dataclass(value):
        document = {"__class__": type(value).__name__}
        for f in dataclasses.fields(value):
            field_value = getattr(value, f.name)
            if _OMIT_KEY in f.metadata and field_value == f.default:
                continue
            document[f.name] = _canonical(field_value)
        return document
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        return {
            "__class__": type(value).__name__,
            **{name: _canonical(getattr(value, name))
               for name in slots if hasattr(value, name)},
        }
    state = getattr(value, "__dict__", None)
    if state is not None:
        return {
            "__class__": type(value).__name__,
            **{k: _canonical(v) for k, v in state.items()},
        }
    raise TypeError(
        "cannot canonicalise {!r} for fingerprinting".format(type(value)))


def report_to_dict(report):
    """Canonical dict form of a MetricsReport (exact floats, sorted keys).

    Covers everything a report carries: the full config (cost model and
    fault plan included), raw latency samples, per-client samples, decision
    counters, and all MessageStats fields — if any of it shifts by one ulp
    the fingerprint changes.
    """
    return {
        "config": {**RETIRED_CONFIG_FIELDS, **_canonical(report.config)},
        "latencies_s": _canonical(report.latencies_s),
        "per_client_latencies_s": _canonical(report.per_client_latencies_s),
        "submitted": report.submitted,
        "decided": report.decided,
        "decided_in_window": report.decided_in_window,
        "decided_by_majority": report.decided_by_majority,
        "decided_by_message": report.decided_by_message,
        "messages": _canonical(report.messages),
    }


def report_fingerprint(report):
    """sha256 hex digest of the canonical serialisation of ``report``."""
    document = json.dumps(report_to_dict(report), sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(document.encode("ascii")).hexdigest()
