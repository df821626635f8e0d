"""Observability configuration.

Deliberately *not* a field of :class:`~repro.runtime.config.ExperimentConfig`:
the experiment config describes what a run computes, and tracing must
never change that. ``ObsConfig`` travels through the separate
``obs=`` argument of :func:`~repro.runtime.runner.run_experiment` /
:func:`~repro.runtime.deployment.build_deployment`, exactly like the race
``auditor=``.
"""

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
        if self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive")
        if self.max_hops_per_value < 0:
            raise ValueError("max_hops_per_value must be >= 0")
        if self.hops and not self.spans:
            raise ValueError("hops annotations require spans")
