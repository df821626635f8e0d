"""Benchmark-side glue for the simulator microbenchmarks.

The scenarios and the measurement core live in :mod:`repro.perf` (shared
with the ``repro perf`` CLI subcommand); this module keeps what is
specific to the committed benchmark suite: the baseline file next to this
file and the ``latest`` dump CI uploads as an artifact.

Per scenario the payload records ``events``, ``events_scheduled``,
``pending_at_end``, ``events_cancelled``, ``wall_s``, ``events_per_sec``,
``peak_mem_kb`` and the exact report ``fingerprint`` — see
:mod:`repro.perf.measure` for definitions.
"""

import json
import pathlib

from repro.perf import (          # noqa: F401  (re-exported for the gate)
    OVERLAY_SEED,
    SCENARIOS,
    host_info,
    measure_all,
    measure_scenario,
    measure_speedup,
)

BASELINE_PATH = pathlib.Path(__file__).parent / "BENCH_perf.json"
LATEST_PATH = pathlib.Path(__file__).parent / "BENCH_perf.latest.json"


def load_baseline():
    """The committed baseline, or None if it has not been generated yet."""
    if not BASELINE_PATH.exists():
        return None
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def save_baseline(payload):
    with open(BASELINE_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return BASELINE_PATH


def write_latest(payload):
    """Dump the just-measured numbers for the CI artifact upload."""
    with open(LATEST_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return LATEST_PATH
