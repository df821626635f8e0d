"""Committed large-N scenarios: exact results and a memory ceiling.

``fig3_n100`` and ``gossip_n1000`` (see :mod:`repro.checks.scenarios`)
are too slow for tier-1, so CI runs them here, once each, under
``tracemalloc``. Every check is machine-independent:

* **Exactness** — the outcome digest (``report_fingerprint``) matches
  the committed value bit for bit.
* **Event accounting** — every scheduled event is executed, still pending
  at the horizon, or cancelled. ``gossip_n1000``'s ~0.6M scheduled but
  never-run events are all link arrivals in flight when the horizon cuts
  the flood; none is cancelled.
* **Event ceiling** — no more kernel events scheduled than committed.
* **Memory** — the tracemalloc peak stays within ``MEM_TOLERANCE`` of the
  committed value. The flat per-node state (interned ids, array-backed
  dedup, flat per-hop layout) is what makes n=1000 overlays fit; this
  keeps a regression from quietly re-inflating it.

Run with ``PYTHONPATH=src python -m pytest benchmarks/test_large_scenarios.py
-q`` (about three minutes; ``gossip_n1000`` dominates).
"""

import tracemalloc

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.checks.scenarios import LARGE_SCENARIOS
from repro.runtime.runner import run_deployment

#: Multiple of the committed tracemalloc peak a scenario may reach.
MEM_TOLERANCE = 1.3

#: name -> (report fingerprint, ceiling on kernel events scheduled,
#: committed tracemalloc peak in KiB). The peaks were measured on one
#: host (Python 3.11, x86-64 Xeon), by this test: 21341.1 and 126445.5
#: while future event-queue buckets held entry tuples, 11379.3 and
#: 57353.2 once they were flat columns, and the values below once the
#: event heap, the hop types and the gossip node's per-hop paths were
#: compiled (a pending receive job no longer holds a bound method).
COMMITTED = {
    "fig3_n100": (
        "43ad729717638f14d682a19a49dc734dad4d80d39d10f0e5649314b820438b62",
        777_166, 10175.0),
    "gossip_n1000": (
        "d941a972a1ff715eabdee6267ec6dd0df79c643f35fdb0557d4de544f2e83405",
        3_547_065, 50282.7),
}


@pytest.mark.parametrize("name", sorted(LARGE_SCENARIOS))
def test_large_scenario_matches_committed_values(name):
    fingerprint, ceiling, peak_kb = COMMITTED[name]
    tracemalloc.start()
    try:
        deployment, report = run_deployment(LARGE_SCENARIOS[name]())
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sim = deployment.sim

    assert report_fingerprint(report) == fingerprint
    assert sim.events_scheduled == (
        sim.events_executed + sim.pending() + sim.events_cancelled)
    assert sim.events_scheduled <= ceiling, (
        "{} scheduled {} kernel events, above the committed {}".format(
            name, sim.events_scheduled, ceiling))
    assert peak / 1024.0 <= MEM_TOLERANCE * peak_kb, (
        "{} peaked at {:.1f} KiB, above {}x the committed {} KiB".format(
            name, peak / 1024.0, MEM_TOLERANCE, peak_kb))
    if name == "gossip_n1000":
        assert sim.pending() > 0 and sim.events_cancelled == 0
