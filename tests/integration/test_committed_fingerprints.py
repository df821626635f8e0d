"""Committed report fingerprints: the oracle that holds behaviour still.

Every fixed-seed scenario must keep producing the exact experiment report
(every raw latency sample and counter, floats hashed via ``float.hex``)
that was committed for it. The figure scenarios' values live in
``benchmarks/perf/BENCH_perf.json`` — one copy, shared with the perf-smoke
gate. The regression scenarios' values were captured at the last commit
that still carried the event-per-job server deployments and the binary-heap
queue, where the A/B suite proved them equal on all four combinations —
except ``degrade_jitter``, captured at the commit that made every link hop
a single event with jitter drawn when the arrival is committed (jittered
runs have no older bits to hold on to) — and ``raft_semantic``, captured at
the last commit where Raft had its own copy of the vote-merging rule.
"""

import json
import pathlib

import pytest

from repro.analysis.fingerprint import report_fingerprint
from repro.checks.monitor import SafetyMonitor
from repro.perf.scenarios import REGRESSION_SCENARIOS, SCENARIOS
from repro.runtime.runner import run_experiment

_BASELINE = (pathlib.Path(__file__).resolve().parents[2]
             / "benchmarks" / "perf" / "BENCH_perf.json")

REGRESSION_FINGERPRINTS = {
    "agg_heavy":
        "a277d5640d83672c8aec13ce1ce16b15d5ad4e45fa9b8bc959211faa202c9f64",
    "churn_leader":
        "04de14c8dec015cf96bbb539057c06bf309001600b56d6b0b106291f297690f3",
    "churn_smoke":
        "0812e07183daf648601c9bcd83b306b7ee2187de06514f67a35d0f9c600c3147",
    "degrade_jitter":
        "7f20b6bf7030f1e002a2b7f02af48f3ec4bb00de15a2e869c8e4b3986756e63c",
    "raft_semantic":
        "453a43590ee3132d8ac11b16c5bc900248f55490343e6d33cfa64175a8e4882c",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_figure_scenario_matches_perf_baseline(name):
    with open(_BASELINE) as fh:
        expected = json.load(fh)["scenarios"][name]["fingerprint"]
    assert report_fingerprint(run_experiment(SCENARIOS[name]())) == expected


@pytest.mark.parametrize("name", sorted(REGRESSION_SCENARIOS))
def test_regression_scenario_matches_committed_fingerprint(name):
    report = run_experiment(REGRESSION_SCENARIOS[name]())
    assert report_fingerprint(report) == REGRESSION_FINGERPRINTS[name]


def test_degrade_jitter_is_safe_under_a_strict_monitor():
    """Jittered, degraded links reorder arrivals; Paxos safety must hold
    anyway, and the armed run must reproduce the committed bits."""
    report = run_experiment(REGRESSION_SCENARIOS["degrade_jitter"](),
                            monitor=SafetyMonitor(strict=True))
    assert (report_fingerprint(report)
            == REGRESSION_FINGERPRINTS["degrade_jitter"])


def test_membership_field_unconfigured_is_bitwise_inert():
    """The membership *field* existing (as None) must not perturb a fixed
    run: same seed, same report fingerprint, with the membership layer
    compiled in but unconfigured. Guards the inert-when-unconfigured
    contract at the report level (the perf baseline guards event counts).
    """
    config = SCENARIOS["fig7_overlay"]()
    assert config.membership is None
    first = report_fingerprint(run_experiment(config))
    second = report_fingerprint(run_experiment(SCENARIOS["fig7_overlay"]()))
    assert first == second
