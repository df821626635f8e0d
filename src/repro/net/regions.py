"""The 13 AWS regions of the paper and their WAN latencies.

The paper (Table 1) reports one-way WAN latencies between the coordinator's
region (North Virginia) and the other twelve regions. Those values are used
verbatim. The paper does not publish the full 13x13 matrix, so the latency
between two non-coordinator regions is synthesized from great-circle
distances with a propagation-speed factor calibrated (least squares) against
the twelve published pairs. The synthesized values land within the usual
range of public AWS inter-region measurements, and every experiment that the
paper quantifies precisely involves the coordinator's region, where Table 1
values are exact.

Process-to-region placement follows the paper's §4.3: processes are spread
evenly among the 13 regions and the coordinator (process 0) is placed in
North Virginia. With ``region_of_process(i) = i % 13`` the paper's three
system sizes come out exactly as described: n=13 puts one process per
region; n=53 puts four per region plus the coordinator in North Virginia;
n=105 puts eight per region plus the coordinator.
"""

import math
from functools import reduce
from operator import add

#: Region names, index 0 is the coordinator's region.
REGIONS = (
    "north-virginia",
    "canada",
    "north-california",
    "oregon",
    "london",
    "ireland",
    "frankfurt",
    "sao-paulo",
    "tokyo",
    "mumbai",
    "sydney",
    "seoul",
    "singapore",
)

COORDINATOR_REGION = 0

#: Paper Table 1 — one-way latency (ms) between North Virginia and the rest.
TABLE1_LATENCY_MS = {
    "canada": 7.0,
    "north-california": 30.0,
    "oregon": 39.0,
    "london": 38.0,
    "ireland": 33.0,
    "frankfurt": 44.0,
    "sao-paulo": 58.0,
    "tokyo": 73.0,
    "mumbai": 93.0,
    "sydney": 98.0,
    "seoul": 87.0,
    "singapore": 105.0,
}

#: Approximate datacenter coordinates (latitude, longitude) per region.
_COORDINATES = {
    "north-virginia": (38.95, -77.45),
    "canada": (45.50, -73.57),
    "north-california": (37.44, -122.14),
    "oregon": (45.84, -119.70),
    "london": (51.51, -0.13),
    "ireland": (53.33, -6.25),
    "frankfurt": (50.11, 8.68),
    "sao-paulo": (-23.55, -46.63),
    "tokyo": (35.68, 139.69),
    "mumbai": (19.08, 72.88),
    "sydney": (-33.87, 151.21),
    "seoul": (37.57, 126.98),
    "singapore": (1.35, 103.82),
}

#: One-way latency (ms) between processes in the same region (LAN).
INTRA_REGION_LATENCY_MS = 0.5

_EARTH_RADIUS_KM = 6371.0


def _great_circle_km(a, b):
    """Great-circle distance in km between two (lat, lon) points."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (math.sin(dlat / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2)
    return 2 * _EARTH_RADIUS_KM * math.asin(math.sqrt(h))


def _calibrate_speed():
    """Fit latency = overhead + distance/speed against the Table 1 pairs.

    A tiny 2-parameter least-squares fit; returns (overhead_ms, km_per_ms).
    """
    origin = _COORDINATES["north-virginia"]
    xs = []  # distance km
    ys = []  # latency ms
    for region, latency in TABLE1_LATENCY_MS.items():
        xs.append(_great_circle_km(origin, _COORDINATES[region]))
        ys.append(latency)
    n = len(xs)
    # Summed left to right: from Python 3.12 on, sum() compensates float
    # rounding (gh-100425), which moves the fit and every latency from it.
    mean_x = reduce(add, xs, 0) / n
    mean_y = reduce(add, ys, 0) / n
    cov = reduce(add, [(x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)],
                 0)
    var = reduce(add, [(x - mean_x) ** 2 for x in xs], 0)
    slope = cov / var  # ms per km
    overhead = mean_y - slope * mean_x
    return max(0.0, overhead), 1.0 / slope


_OVERHEAD_MS, _KM_PER_MS = _calibrate_speed()


def _build_matrix():
    """Full 13x13 one-way latency matrix in milliseconds.

    North Virginia rows/columns use the exact Table 1 values; other pairs
    use the calibrated distance model; the diagonal is the LAN latency.
    """
    size = len(REGIONS)
    matrix = [[0.0] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            if i == j:
                matrix[i][j] = INTRA_REGION_LATENCY_MS
            elif i == COORDINATOR_REGION:
                matrix[i][j] = TABLE1_LATENCY_MS[REGIONS[j]]
            elif j == COORDINATOR_REGION:
                matrix[i][j] = TABLE1_LATENCY_MS[REGIONS[i]]
            else:
                km = _great_circle_km(_COORDINATES[REGIONS[i]],
                                      _COORDINATES[REGIONS[j]])
                matrix[i][j] = max(
                    INTRA_REGION_LATENCY_MS, _OVERHEAD_MS + km / _KM_PER_MS
                )
    return matrix


#: Full one-way latency matrix (ms), indexed by region index.
LATENCY_MATRIX_MS = _build_matrix()


def region_of_process(process_id, num_regions=len(REGIONS)):
    """Region index hosting ``process_id`` (round-robin placement)."""
    return process_id % num_regions


def region_latency_ms(region_a, region_b):
    """One-way latency in ms between two region indices."""
    return LATENCY_MATRIX_MS[region_a][region_b]


def _destination(origin, bearing_rad, distance_km):
    """(lat, lon) reached from ``origin`` along a great circle."""
    lat1 = math.radians(origin[0])
    lon1 = math.radians(origin[1])
    d = distance_km / _EARTH_RADIUS_KM
    lat2 = math.asin(
        math.sin(lat1) * math.cos(d)
        + math.cos(lat1) * math.sin(d) * math.cos(bearing_rad))
    lon2 = lon1 + math.atan2(
        math.sin(bearing_rad) * math.sin(d) * math.cos(lat1),
        math.cos(d) - math.sin(lat1) * math.sin(lat2))
    # Normalize longitude to [-180, 180); latitude is already in range.
    lon2 = (lon2 + math.pi) % (2 * math.pi) - math.pi
    return (math.degrees(lat2), math.degrees(lon2))


def synthetic_regions(num_regions, seed=0):
    """Seeded one-way latency matrix (ms) for ``num_regions`` regions.

    Generates planet-scale deployments larger than the paper's 13 regions
    while staying anchored to its Table 1 statistics: region 0 is North
    Virginia, and every other region is placed on the globe at a distance
    resampled (with jitter) from the twelve published North-Virginia
    distances, in a uniformly random direction. Latencies then come from
    the same calibrated ``overhead + distance/speed`` model that fills the
    unpublished cells of the 13-region matrix, so synthetic pairs are
    statistically indistinguishable from the synthesized Table 1
    off-coordinator pairs. The diagonal is the LAN latency.

    Randomness comes from the named ``"regions"`` stream of ``seed`` (the
    experiment's stream-discipline scheme), so the matrix is a pure
    function of ``(num_regions, seed)``.
    """
    if num_regions < 1:
        raise ValueError("need at least one region")
    from repro.sim.random import make_stream

    rng = make_stream(seed, "regions")
    origin = _COORDINATES["north-virginia"]
    table_km = sorted(
        _great_circle_km(origin, _COORDINATES[region])
        for region in TABLE1_LATENCY_MS
    )
    coordinates = [origin]
    for _ in range(1, num_regions):
        distance = rng.choice(table_km) * rng.uniform(0.6, 1.4)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        coordinates.append(_destination(origin, bearing, distance))

    matrix = [[0.0] * num_regions for _ in range(num_regions)]
    for i in range(num_regions):
        for j in range(num_regions):
            if i == j:
                matrix[i][j] = INTRA_REGION_LATENCY_MS
            else:
                km = _great_circle_km(coordinates[i], coordinates[j])
                matrix[i][j] = max(
                    INTRA_REGION_LATENCY_MS, _OVERHEAD_MS + km / _KM_PER_MS
                )
    return matrix
