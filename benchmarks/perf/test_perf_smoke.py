"""CI smoke gate for the simulator hot path.

Four machine-independent checks per run:

* **Exactness** — every scenario's report fingerprint must match the
  committed baseline bit for bit. The fingerprint hashes the full
  experiment report (config, raw latency samples, every counter) with
  floats rendered exactly, so any behavioural drift fails here no matter
  how fast the simulator got.
* **Event accounting** — every scheduled event is executed, still
  pending at the horizon, or cancelled; nothing else. ``gossip_n1000``'s
  ~0.6M scheduled-but-never-run events are all link arrivals in flight
  when the 0.4 s horizon cuts the flood (none cancelled).
* **Memory** — tracemalloc peak must stay within ``MEM_TOLERANCE`` of
  baseline. The flat-state work (interned ids, array-backed dedup,
  flat per-hop layout) is what makes N=1000 overlays fit; this
  gate keeps a regression from quietly re-inflating the per-node state.
  Peaks are allocation high-water marks, machine-independent up to
  allocator details. The scenario set includes the large-N smokes
  (``fig3_n100`` and the reduced-duration ``gossip_n1000`` run).
* **Event ceiling** — a scenario may never schedule more kernel events
  than its baseline row (machine-independent, zero tolerance): event
  counts are an implementation property that hot-path work drives down
  (fig3_workload: 109,720 vs 282,561 with one event per server job), so
  they are capped, not pinned — a lower count passes and is ratcheted in
  by the next re-baseline.

Raw events/sec is recorded in ``BENCH_perf.latest.json`` as information
only: the host's wall clock swings 2x, so a floor on it failed unchanged
code; CPU cost is gated by the calibrated ``benchmarks/e2e`` instead.

Regenerate the baseline deliberately with ``REPRO_PERF_UPDATE=1`` or
``python -m benchmarks.perf --update``.
"""

import os

from benchmarks.perf import harness

#: Multiple of the baseline tracemalloc peak a scenario may reach.
MEM_TOLERANCE = 1.3
REPEATS = int(os.environ.get("REPRO_PERF_REPEATS", "3"))


def test_perf_smoke():
    payload = harness.measure_all(repeats=REPEATS)
    harness.write_latest(payload)

    if os.environ.get("REPRO_PERF_UPDATE"):
        path = harness.save_baseline(payload)
        print("baseline regenerated at {}".format(path))
        return

    baseline = harness.load_baseline()
    assert baseline is not None, (
        "no committed baseline; generate one with REPRO_PERF_UPDATE=1")

    for name, measured in payload["scenarios"].items():
        expected = baseline["scenarios"].get(name)
        assert expected is not None, (
            "scenario {!r} missing from baseline — regenerate it".format(name))
        assert measured["fingerprint"] == expected["fingerprint"], (
            "scenario {!r} produced report fingerprint {} but the baseline "
            "pins {}: the simulation's results changed; regenerate the "
            "baseline if intentional".format(
                name, measured["fingerprint"], expected["fingerprint"]))
        assert measured["events_scheduled"] == (
            measured["events"] + measured["pending_at_end"]
            + measured["events_cancelled"]), (
            "scenario {!r}: scheduled events unaccounted for: {}".format(
                name, measured))
        assert measured["events_scheduled"] <= expected["events_scheduled"], (
            "scenario {!r} scheduled {} kernel events, above the baseline's "
            "{}: the hot path grew an event".format(
                name, measured["events_scheduled"],
                expected["events_scheduled"]))
        ceiling = MEM_TOLERANCE * expected["peak_mem_kb"]
        assert measured["peak_mem_kb"] <= ceiling, (
            "scenario {!r} peaked at {} KiB, above {:.0f} "
            "({}x baseline {}): the flat-state memory budget regressed".format(
                name, measured["peak_mem_kb"], ceiling,
                MEM_TOLERANCE, expected["peak_mem_kb"]))

    flood = payload["scenarios"]["gossip_n1000"]
    assert flood["pending_at_end"] > 0 and flood["events_cancelled"] == 0, (
        "gossip_n1000's never-run events should all be arrivals in flight "
        "at the horizon, got {}".format(flood))
