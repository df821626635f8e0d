"""Observability configuration.

Deliberately *not* a field of :class:`~repro.runtime.config.ExperimentConfig`:
the experiment config describes what a run computes, and tracing must
never change that. ``ObsConfig`` travels through the separate
``obs=`` argument of :func:`~repro.runtime.runner.run_experiment` /
:func:`~repro.runtime.deployment.build_deployment`, exactly like the race
``auditor=``.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ObsConfig:
    """What the tracer records.

    Parameters
    ----------
    spans:
        Record per-value lifecycle spans (submit → propose → quorum →
        decide → deliver) and global round events.
    hops:
        Annotate spans with per-message gossip hops (fresh receive,
        duplicate, semantic filter drop, aggregation), capped per value by
        ``max_hops_per_value``. Requires ``spans``.
    timeseries:
        Arm the virtual-time ticker sampling throughput, in-flight count,
        per-region link utilization, retransmissions, CPU utilization and
        membership/fault state into fixed-width buckets.
    tick_interval:
        Bucket width of the ticker, in simulated seconds.
    max_hops_per_value:
        Per-span bound on stored hop annotations; overflowing hops are
        counted (``hops_dropped``) but not stored, so a retransmission
        storm cannot balloon trace memory.
    """

    spans: bool = True
    hops: bool = True
    timeseries: bool = True
    tick_interval: float = 0.05
    max_hops_per_value: int = 512

    def __post_init__(self):
        for name in ("spans", "hops", "timeseries"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(
                    "{} must be a bool, got {!r}".format(name, value))
        tick, hops = self.tick_interval, self.max_hops_per_value
        if not isinstance(tick, (int, float)) or isinstance(tick, bool):
            raise TypeError(
                "tick_interval must be a number, got {!r}".format(tick))
        if not (tick > 0 and math.isfinite(tick)):
            raise ValueError("tick_interval must be positive and finite, "
                             "got {!r}".format(tick))
        if not isinstance(hops, int) or isinstance(hops, bool):
            raise TypeError(
                "max_hops_per_value must be an int, got {!r}".format(hops))
        if hops < 0:
            raise ValueError(
                "max_hops_per_value must be >= 0, got {!r}".format(hops))
        if self.hops and not self.spans:
            raise ValueError("hops annotations require spans")
