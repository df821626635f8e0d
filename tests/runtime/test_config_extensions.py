"""Topology knobs beyond the paper: replace(), validation, synthetic
regions."""

import pytest

from repro.net.faults.events import Degrade, RegionOutage
from repro.net.regions import (
    INTRA_REGION_LATENCY_MS,
    REGIONS,
    TABLE1_LATENCY_MS,
    synthetic_regions,
)
from repro.net.topology import Topology
from repro.runtime.config import ExperimentConfig

def test_replace_carries_extension_attrs():
    config = ExperimentConfig(n=27, num_regions=30, overlay_family="powerlaw")
    copy = config.replace(rate=100.0)
    assert copy.rate == 100.0
    assert copy.num_regions == 30
    assert copy.overlay_family == "powerlaw"
    # And they are overridable through replace() like every other field.
    other = config.replace(num_regions=7, overlay_family="kout", n=13)
    assert other.n == 13
    assert other.num_regions == 7
    assert other.overlay_family == "kout"
    # The original is untouched.
    assert config.num_regions == 30


@pytest.mark.parametrize("field, value", [
    ("duration", 0.0), ("duration", -1.0), ("duration", float("inf")),
    ("warmup", -0.5), ("warmup", float("nan")),
    ("drain", float("nan")), ("drain", -1.0),
    ("num_regions", 0), ("overlay_family", "bogus"),
])
def test_bad_value_is_rejected_at_config_time(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})
    with pytest.raises(ValueError, match=field):
        ExperimentConfig().replace(**{field: value})


def test_zero_warmup_and_drain_stay_legal():
    config = ExperimentConfig(warmup=0.0, drain=0.0)
    assert config.end_of_run == config.duration


def test_fault_plan_regions_follow_the_configured_region_count():
    beyond_builtin = len(REGIONS) + 7
    ExperimentConfig(n=40, num_regions=30,
                     faults=[(0.5, Degrade(0, beyond_builtin)),
                             (0.6, RegionOutage(beyond_builtin))])
    for event in (Degrade(0, 7), RegionOutage(7)):
        ExperimentConfig(faults=[(0.5, event)])     # 13 built-in regions
        with pytest.raises(ValueError, match="region"):
            ExperimentConfig(num_regions=5, faults=[(0.5, event)])
    with pytest.raises(ValueError, match="region"):
        ExperimentConfig(faults=[(0.5, RegionOutage(beyond_builtin))])


def test_synthetic_regions_matrix_shape_and_anchoring():
    matrix = synthetic_regions(30, seed=5)
    assert len(matrix) == 30
    table_min = min(TABLE1_LATENCY_MS.values())
    table_max = max(TABLE1_LATENCY_MS.values())
    for i, row in enumerate(matrix):
        assert len(row) == 30
        assert row[i] == INTRA_REGION_LATENCY_MS
        for j, latency in enumerate(row):
            if i != j:
                assert latency >= INTRA_REGION_LATENCY_MS
                # Symmetric model (distance-driven).
                assert latency == pytest.approx(matrix[j][i])
    # Region 0 is North Virginia: its row is jittered Table 1 — same order
    # of magnitude as the published coordinator latencies.
    coordinator_row = [matrix[0][j] for j in range(1, 30)]
    assert min(coordinator_row) >= 0.3 * table_min
    assert max(coordinator_row) <= 2.5 * table_max


def test_synthetic_regions_deterministic_per_seed():
    assert synthetic_regions(12, seed=3) == synthetic_regions(12, seed=3)
    assert synthetic_regions(12, seed=3) != synthetic_regions(12, seed=4)
    with pytest.raises(ValueError):
        synthetic_regions(0)


def test_topology_accepts_synthetic_matrix():
    matrix = synthetic_regions(8, seed=1)
    topology = Topology(20, matrix_ms=matrix)
    assert topology.num_regions == 8
    assert topology.region(0) == 0
    assert topology.region(9) == 1
    assert topology.region_name(0) == "region-0"
    assert topology.latency_s(0, 8) == pytest.approx(matrix[0][0] / 1000.0)
    assert topology.latency_s(0, 1) == pytest.approx(matrix[0][1] / 1000.0)
    with pytest.raises(ValueError):
        Topology(20, num_regions=9, matrix_ms=matrix)


def test_builtin_topology_region_names_unchanged():
    topology = Topology(13)
    assert topology.region_name(0) == "north-virginia"
    assert topology.num_regions == 13


def test_deployment_uses_synthetic_topology():
    from repro.runtime.deployment import build_deployment

    config = ExperimentConfig(n=20, rate=20.0, num_regions=5, region_seed=2,
                              overlay_family="powerlaw")
    deployment = build_deployment(config)
    assert deployment.topology.num_regions == 5
    assert deployment.topology.region_name(3) == "region-3"
    assert deployment.overlay.is_connected()
