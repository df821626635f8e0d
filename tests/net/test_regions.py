"""Tests for the region model and the Table 1 latency matrix."""

import pytest

from repro.net import regions


def test_thirteen_regions_as_in_paper():
    assert len(regions.REGIONS) == 13
    assert regions.REGIONS[regions.COORDINATOR_REGION] == "north-virginia"


def test_table1_has_exactly_twelve_entries():
    assert len(regions.TABLE1_LATENCY_MS) == 12
    assert set(regions.TABLE1_LATENCY_MS) == set(regions.REGIONS[1:])


@pytest.mark.parametrize(
    "region,latency",
    [
        ("canada", 7.0),
        ("north-california", 30.0),
        ("oregon", 39.0),
        ("london", 38.0),
        ("ireland", 33.0),
        ("frankfurt", 44.0),
        ("sao-paulo", 58.0),
        ("tokyo", 73.0),
        ("mumbai", 93.0),
        ("sydney", 98.0),
        ("seoul", 87.0),
        ("singapore", 105.0),
    ],
)
def test_table1_values_verbatim(region, latency):
    """The paper's Table 1 values must be preserved exactly."""
    assert regions.TABLE1_LATENCY_MS[region] == latency
    index = regions.REGIONS.index(region)
    assert regions.LATENCY_MATRIX_MS[0][index] == latency
    assert regions.LATENCY_MATRIX_MS[index][0] == latency


def test_matrix_is_symmetric():
    matrix = regions.LATENCY_MATRIX_MS
    size = len(regions.REGIONS)
    for i in range(size):
        for j in range(size):
            assert matrix[i][j] == pytest.approx(matrix[j][i])


def test_diagonal_is_lan_latency():
    for i in range(len(regions.REGIONS)):
        assert regions.LATENCY_MATRIX_MS[i][i] == regions.INTRA_REGION_LATENCY_MS


def test_synthesized_pairs_are_plausible():
    """Non-coordinator pairs come from the calibrated distance model."""
    matrix = regions.LATENCY_MATRIX_MS
    london = regions.REGIONS.index("london")
    ireland = regions.REGIONS.index("ireland")
    sydney = regions.REGIONS.index("sydney")
    # London <-> Ireland is a short hop; London <-> Sydney spans the globe.
    assert matrix[london][ireland] < 25.0
    assert matrix[london][sydney] > 80.0
    # All synthesized values are within sane WAN bounds.
    for i in range(len(regions.REGIONS)):
        for j in range(len(regions.REGIONS)):
            if i != j:
                assert 1.0 <= matrix[i][j] <= 200.0


def test_placement_matches_paper_system_sizes():
    """n=13 -> 1/region; n=53 -> 4/region + coordinator; n=105 -> 8 + coord."""
    for n, per_region in ((13, 1), (53, 4), (105, 8)):
        counts = {}
        for i in range(n):
            counts.setdefault(regions.region_of_process(i), 0)
            counts[regions.region_of_process(i)] += 1
        # Coordinator's region hosts one extra process (the coordinator).
        expected_nv = per_region + (1 if n > 13 else 0)
        assert counts[regions.COORDINATOR_REGION] == expected_nv
        for region in range(1, 13):
            assert counts[region] == per_region


def test_coordinator_is_process_zero_in_nv():
    assert regions.region_of_process(0) == regions.COORDINATOR_REGION


def test_region_latency_ms_helper():
    assert regions.region_latency_ms(0, 1) == 7.0
    assert regions.region_latency_ms(0, 0) == regions.INTRA_REGION_LATENCY_MS


def test_fit_and_mean_are_the_same_floats_on_every_python():
    """The latency fit and the report's mean sum left to right.

    Python 3.12's ``sum()`` compensates float rounding (gh-100425); with
    it the fitted overhead moves by an ulp, every synthesized latency
    with it, and the committed digests drawn on 3.10/3.11 no longer
    match. These are the 3.10/3.11 bits.
    """
    from repro.runtime.metrics import mean

    assert regions._OVERHEAD_MS == float.fromhex("0x1.58d975c4ac560p+2")
    assert regions._KM_PER_MS == float.fromhex("0x1.37ec9f8f838efp+7")
    # sum([0.1] * 10) left to right is 0x1.fffffffffffffp-1, not 1.0.
    assert mean([0.1] * 10) == float.fromhex("0x1.9999999999999p-4")
