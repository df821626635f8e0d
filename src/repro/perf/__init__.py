"""Performance measurement: scenarios and the measurement core.

Lives inside the package (rather than under ``benchmarks/``) so the
``repro perf`` CLI subcommand and the perf-smoke CI gate share one
implementation. ``benchmarks/perf`` keeps the committed baseline file and
the pytest gate and delegates all measurement here.
"""

from repro.perf.scenarios import OVERLAY_SEED, PERF_SCENARIOS, SCENARIOS
from repro.perf.measure import (
    compare_payloads,
    host_info,
    measure_all,
    measure_scenario,
    measure_speedup,
)
from repro.perf.profile import profile_scenario

__all__ = [
    "OVERLAY_SEED",
    "PERF_SCENARIOS",
    "SCENARIOS",
    "compare_payloads",
    "host_info",
    "measure_all",
    "measure_scenario",
    "measure_speedup",
    "profile_scenario",
]
