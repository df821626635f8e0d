"""Regression tests for the double-run race harness.

The synthetic planted-hazard scenario is the acceptance fixture: the
harness MUST catch it and report slot and RNG-stream provenance for the
first divergent event.
"""

import os

import pytest

from repro.checks.race import (
    ALTERNATE_HASH_SEEDS,
    BASE_HASH_SEED,
    SYNTHETIC,
    _run_with_hash_seed,
    race_check,
    race_scenarios,
)
from repro.checks.report import format_race_text


def test_race_scenarios_lists_committed_then_synthetic():
    names = race_scenarios()
    assert names[-1] == SYNTHETIC
    assert "agg_heavy" in names
    assert any(name.startswith("fig") for name in names)


def test_default_seed_plan_is_base_plus_alternates():
    assert BASE_HASH_SEED == 0
    assert BASE_HASH_SEED not in ALTERNATE_HASH_SEEDS
    assert len(ALTERNATE_HASH_SEEDS) >= 1


def test_worker_restores_parent_hash_seed_env():
    saved = os.environ.get("PYTHONHASHSEED")
    payload = _run_with_hash_seed(SYNTHETIC, 5)
    assert os.environ.get("PYTHONHASHSEED") == saved
    # ...while the child really ran under the requested seed.
    assert payload["hash_seed_env"] == "5"
    assert payload["summary"]["events_executed"] == 13   # pump + 12 deliveries


def test_synthetic_race_is_detected_with_provenance():
    """Acceptance: the planted tie-break race is caught and localized."""
    report = race_check(SYNTHETIC)
    assert report["ok"] is False
    divergence = report["divergence"]
    assert divergence is not None

    # The first divergent event is one of the same-timestamp deliveries.
    assert divergence["index"] >= 1
    assert "deliver" in divergence["left"]["label"]
    assert "deliver" in divergence["right"]["label"]
    assert divergence["left"]["args"] != divergence["right"]["args"]
    assert divergence["time_s"] == pytest.approx(0.05)

    # Provenance: all 12 tied deliveries, every one scheduled by the
    # pump (event #0).
    group = divergence["tie_group"]
    assert len(group["members"]) == 12
    assert all(member["origin"] == 0 for member in group["members"])

    # Stream provenance: the deliveries draw the same *count* from the
    # payload stream on both sides — the leak is ordering, not draws.
    assert divergence["rng_streams_diverged"] == []
    assert divergence["hash_seeds"][0] == BASE_HASH_SEED

    # The text reporter surfaces the provenance for humans.
    text = format_race_text([report])
    assert "DIVERGED" in text
    assert "push-order" in text
    assert "scheduled by event #0" in text
    assert "rng streams diverged by then: none" in text


def test_same_hash_seed_twice_audits_clean():
    report = race_check(SYNTHETIC, hash_seeds=[0, 0])
    assert report["ok"] is True
    assert report["divergence"] is None
    left, right = report["runs"]["0"], report["runs"]["0"]
    assert left["trace_digest"] == right["trace_digest"]
    text = format_race_text([report])
    assert "clean" in text
    assert "1/1 scenario clean" in text
