"""Small statistics helpers shared by benches and examples."""

from repro.runtime.metrics import cdf_points, mean, percentile, stddev

__all__ = ["cdf_points", "summarize"]


def summarize(samples):
    """Mean, stddev and common percentiles of a sample list."""
    xs = sorted(samples)
    return {
        "count": len(xs),
        "mean": mean(xs),
        "stddev": stddev(xs),
        "p50": percentile(xs, 50.0),
        "p90": percentile(xs, 90.0),
        "p99": percentile(xs, 99.0),
        "p99.9": percentile(xs, 99.9),
        "min": xs[0] if xs else 0.0,
        "max": xs[-1] if xs else 0.0,
    }
